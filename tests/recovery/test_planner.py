"""Tests for the scheme planner / cache."""

import json

import pytest

from repro.codes import RdpCode
from repro.recovery import RecoveryPlanner, SchemePlanCache


@pytest.fixture
def code():
    return RdpCode(5)


class TestPlanner:
    def test_caches_schemes(self, code):
        planner = RecoveryPlanner(code, algorithm="u")
        a = planner.scheme_for_disk(0)
        b = planner.scheme_for_disk(0)
        assert a is b

    def test_all_data_disk_schemes(self, code):
        planner = RecoveryPlanner(code, algorithm="khan")
        schemes = planner.all_data_disk_schemes()
        assert len(schemes) == code.layout.n_data
        for d, s in enumerate(schemes):
            assert s.failed_mask == code.layout.disk_mask(d)

    def test_all_disk_schemes_includes_parity(self, code):
        planner = RecoveryPlanner(code, algorithm="naive")
        schemes = planner.all_disk_schemes()
        assert len(schemes) == code.layout.n_disks

    def test_unknown_algorithm(self, code):
        with pytest.raises(ValueError):
            RecoveryPlanner(code, algorithm="bogus")

    # Plans persist through one SchemePlanCache store; these check that a
    # round trip is exact and that a different situation is a miss.
    def test_save_load_roundtrip(self, code, tmp_path):
        path = tmp_path / "plans.json"
        planner = RecoveryPlanner(
            code, algorithm="c", plan_cache=SchemePlanCache(path)
        )
        original = planner.all_data_disk_schemes()

        store = SchemePlanCache(path)
        fresh = RecoveryPlanner(code, algorithm="c", plan_cache=store)
        for d in code.layout.data_disks:
            a, b = original[d], fresh.scheme_for_disk(d)
            assert a.read_mask == b.read_mask
            assert a.equations == b.equations
            assert a.failed_eids == b.failed_eids
            assert a.search_stats == b.search_stats
        assert (store.hits, store.misses) == (code.layout.n_data, 0)

    def test_load_rejects_algorithm_mismatch(self, code, tmp_path):
        _miss_after_planning(
            tmp_path,
            RecoveryPlanner(code, algorithm="c"),
            RecoveryPlanner(code, algorithm="u"),
        )

    def test_load_rejects_code_mismatch(self, code, tmp_path):
        """Plans for one geometry are never served to another."""
        _miss_after_planning(
            tmp_path,
            RecoveryPlanner(code, algorithm="u"),
            RecoveryPlanner(RdpCode(7), algorithm="u"),
        )

    def test_load_rejects_different_family_same_width(self, tmp_path):
        from repro.codes import EvenOddCode

        _miss_after_planning(
            tmp_path,
            RecoveryPlanner(RdpCode(7), algorithm="u"),
            RecoveryPlanner(EvenOddCode(7), algorithm="u"),
        )

    def test_load_rejects_depth_mismatch(self, code, tmp_path):
        _miss_after_planning(
            tmp_path,
            RecoveryPlanner(code, algorithm="u", depth=1),
            RecoveryPlanner(code, algorithm="u", depth=2),
        )

    def test_load_rejects_budget_mismatch(self, code, tmp_path):
        _miss_after_planning(
            tmp_path,
            RecoveryPlanner(code, algorithm="u", max_expansions=200),
            RecoveryPlanner(code, algorithm="u"),
        )

    def test_load_accepts_legacy_payload_without_geometry(self, code, tmp_path):
        """A record holding only the plan itself (no algorithm label, exact
        flag, effort or metadata) still loads."""
        path = tmp_path / "plans.json"
        RecoveryPlanner(
            code, algorithm="u", plan_cache=SchemePlanCache(path)
        ).scheme_for_disk(0)
        payload = json.loads(path.read_text())
        for record in payload["plans"].values():
            for optional in ("algorithm", "exact", "expanded_states", "metadata"):
                del record[optional]
        path.write_text(json.dumps(payload))
        store = SchemePlanCache(path)
        RecoveryPlanner(code, algorithm="u", plan_cache=store).scheme_for_disk(0)
        assert (store.hits, store.misses) == (1, 0)

    def test_loaded_schemes_validate(self, code, tmp_path):
        path = tmp_path / "plans.json"
        RecoveryPlanner(
            code, algorithm="u", plan_cache=SchemePlanCache(path)
        ).all_data_disk_schemes()
        fresh = RecoveryPlanner(
            code, algorithm="u", plan_cache=SchemePlanCache(path)
        )
        for d in code.layout.data_disks:
            scheme = fresh.scheme_for_disk(d)
            assert scheme.metadata["plan_cache"] == "hit"
            scheme.validate(code)


def _miss_after_planning(tmp_path, stored, other):
    """``stored`` plans disk 0 into a store; ``other`` must miss on it."""
    path = tmp_path / "plans.json"
    stored.plan_cache = SchemePlanCache(path)
    stored.scheme_for_disk(0)
    store = SchemePlanCache(path)
    other.plan_cache = store
    other.scheme_for_disk(0)
    assert (store.hits, store.misses) == (0, 1)
