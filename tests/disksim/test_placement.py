"""Tests for per-disk recovery time under a single-array placement."""

import numpy as np
import pytest

from repro.codes import make_code
from repro.disksim.recovery_sim import recovery_under_placement
from repro.placement import PlacementMap, make_placement
from repro.recovery import RecoveryPlanner


@pytest.fixture(scope="module")
def code():
    # shortened RDP: logical failure situations genuinely differ in cost
    return make_code("rdp", 7)


def rotated(n, stripes=None):
    """The paper's layout: rotation is built into every PlacementMap."""
    return make_placement("flat", n, stripes or n, n)


def unrotated(n):
    """``table[s, j] = (j - s) % n`` undoes the rotation: role l stays on l."""
    s = np.arange(n)
    return PlacementMap(n, (s[None, :] - s[:, None]) % n, "unrotated")


class TestPlacements:
    def test_mapping_roundtrip(self):
        pm = rotated(6)
        for phys in range(6):
            stripes, roles = pm.roles_of_disk(phys)
            assert sorted(stripes.tolist()) == list(range(6))
            assert ((roles + stripes) % 6 == phys).all()
            assert (pm.disk_of_role(stripes, roles) == phys).all()

    def test_flat_is_identity(self):
        pm = unrotated(8)
        for phys in range(8):
            _, roles = pm.roles_of_disk(phys)
            assert (roles == phys).all()


class TestRecoveryUnderPlacement:
    def test_rotation_equalizes(self, code):
        """With rotation, every physical disk recovers in the same time."""
        result = recovery_under_placement(code, rotated(code.layout.n_disks))
        assert result.spread == pytest.approx(1.0)

    def test_flat_exposes_situation_differences(self, code):
        """Without rotation, per-disk recovery times differ whenever the
        logical situations do."""
        result = recovery_under_placement(code, unrotated(code.layout.n_disks))
        assert result.placement == "unrotated"
        assert result.spread > 1.0

    def test_rotated_mean_equals_flat_mean(self, code):
        """Rotation redistributes, it does not create or destroy work."""
        n = code.layout.n_disks
        flat = recovery_under_placement(code, unrotated(n))
        rot = recovery_under_placement(code, rotated(n))
        assert np.mean(rot.per_disk_time_s) == pytest.approx(
            np.mean(flat.per_disk_time_s)
        )

    def test_custom_stripes_and_planner(self, code):
        planner = RecoveryPlanner(code, "khan", depth=1)
        result = recovery_under_placement(
            code, rotated(code.layout.n_disks, stripes=3), planner=planner
        )
        assert len(result.per_disk_time_s) == code.layout.n_disks
        assert result.worst_s > 0

    @pytest.mark.parametrize(
        "n_pool, width", [(14, 7), (8, 8), (8, 7)], ids=["pool", "wide", "narrow"]
    )
    def test_shape_mismatch_rejected(self, code, n_pool, width):
        pm = make_placement("declustered", n_pool, 20, width)
        with pytest.raises(ValueError, match="width == pool == 7"):
            recovery_under_placement(code, pm)
