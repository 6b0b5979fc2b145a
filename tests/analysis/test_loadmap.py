"""Per-failure load matrices: reads on each disk, one row per failure.

The matrix is ``[scheme.loads for scheme in schemes]``; pool-scale load
maps live in :class:`repro.obs.DiskLoadMap`.
"""

import pytest

from repro.codes import RdpCode
from repro.recovery import RecoveryPlanner


@pytest.fixture(scope="module")
def rdp7():
    return RdpCode(7)


def loads_per_failure(code, algorithm):
    schemes = RecoveryPlanner(code, algorithm, depth=1).all_data_disk_schemes()
    return [scheme.loads for scheme in schemes]


@pytest.fixture(scope="module")
def u_matrix(rdp7):
    return loads_per_failure(rdp7, "u")


class TestLoadMatrix:
    def test_shape(self, rdp7, u_matrix):
        assert len(u_matrix) == rdp7.layout.n_data
        assert all(len(row) == rdp7.layout.n_disks for row in u_matrix)

    def test_failed_disk_never_read(self, u_matrix):
        for f, row in enumerate(u_matrix):
            assert row[f] == 0

    def test_matches_schemes(self, rdp7):
        schemes = RecoveryPlanner(rdp7, "khan", depth=1).all_data_disk_schemes()
        for scheme in schemes:
            assert sum(scheme.loads) == scheme.total_reads
            assert max(scheme.loads) == scheme.max_load


class TestSummary:
    def test_u_balances_better_than_khan(self, rdp7, u_matrix):
        khan = loads_per_failure(rdp7, "khan")
        u_max = [max(row) for row in u_matrix]
        k_max = [max(row) for row in khan]
        assert sum(u_max) <= sum(k_max)
        assert max(u_max) <= max(k_max)
