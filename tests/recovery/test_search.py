"""Tests for the unified UCS engine and cost functions."""

import pytest

from repro.codes import CodeLayout, RdpCode, make_code
from repro.equations import get_recovery_equations
from repro.equations.enumerate import EquationOption, RecoveryEquations
from repro.recovery import ckernel
from repro.recovery.search import (
    SearchStats,
    conditional_cost,
    generate_scheme,
    khan_cost,
    unconditional_cost,
    weighted_cost,
)


def tiny_problem():
    """Two failed elements on a 4-disk, 2-row layout with hand-built options.

    Slot 0: either read disk1 rows {0,1} (2 reads, concentrated) or read
    disk1 row 0 + disk2 row 0 (2 reads, spread).
    Slot 1: read disk3 row 1 (1 read).
    The spread choice yields max load 1; the concentrated one max load 2;
    both read 3 elements in total.
    """
    lay = CodeLayout(3, 1, 2)

    def m(*pairs):
        return lay.element_mask(pairs)

    failed = lay.disk_mask(0)
    # equations carry the failed bit; read mask excludes it
    opt_a = EquationOption(m((1, 0), (1, 1)), m((0, 0), (1, 0), (1, 1)))
    opt_b = EquationOption(m((1, 0), (2, 0)), m((0, 0), (1, 0), (2, 0)))
    opt_c = EquationOption(m((3, 1)), m((0, 1), (3, 1)))
    return lay, RecoveryEquations(
        layout=lay,
        failed_mask=failed,
        failed_eids=[lay.eid(0, 0), lay.eid(0, 1)],
        options=[[opt_a, opt_b], [opt_c]],
        depth=1,
    )


class TestCostFunctions:
    def test_khan_cost_counts_total(self):
        lay = CodeLayout(2, 1, 2)
        assert khan_cost(lay)(0b1011) == (3,)

    def test_conditional_orders_total_first(self):
        lay = CodeLayout(2, 1, 2)
        key = conditional_cost(lay)
        assert key(lay.disk_mask(0)) == (2, 2)

    def test_unconditional_orders_maxload_first(self):
        lay = CodeLayout(2, 1, 2)
        key = unconditional_cost(lay)
        assert key(lay.disk_mask(0)) == (2, 2)
        spread = lay.element_mask([(0, 0), (1, 0)])
        assert key(spread) == (1, 2)

    def test_weighted_cost_validates_length(self):
        lay = CodeLayout(2, 1, 2)
        with pytest.raises(ValueError):
            weighted_cost(lay, [1.0])

    def test_weighted_cost_scales(self):
        lay = CodeLayout(2, 1, 2)  # 3 disks total
        key = weighted_cost(lay, [1.0, 5.0, 1.0])
        mask = lay.element_mask([(1, 0)])
        assert key(mask) == (5.0, 5.0)


class TestEngine:
    def test_khan_picks_min_total(self):
        lay, rec = tiny_problem()
        s = generate_scheme(rec, khan_cost(lay), "khan")
        assert s.total_reads == 3

    def test_unconditional_prefers_spread(self):
        lay, rec = tiny_problem()
        s = generate_scheme(rec, unconditional_cost(lay), "u")
        assert s.max_load == 1
        assert s.loads == [0, 1, 1, 1]

    def test_conditional_total_equals_khan(self):
        lay, rec = tiny_problem()
        k = generate_scheme(rec, khan_cost(lay), "khan")
        c = generate_scheme(rec, conditional_cost(lay), "c")
        assert c.total_reads == k.total_reads
        assert c.max_load <= k.max_load

    def test_missing_options_raises(self):
        lay, rec = tiny_problem()
        rec.options[1] = []
        with pytest.raises(ValueError, match="no recovery equations"):
            generate_scheme(rec, khan_cost(lay), "khan")

    def test_stats_recorded_on_scheme(self):
        lay, rec = tiny_problem()
        s = generate_scheme(rec, khan_cost(lay), "khan")
        assert s.expanded_states >= 1
        assert s.exact

    def test_budget_triggers_greedy_completion(self):
        code = RdpCode(7)
        rec = get_recovery_equations(code, code.layout.disk_mask(0), depth=1)
        s = generate_scheme(rec, khan_cost(code.layout), "khan", max_expansions=2)
        assert not s.exact
        assert len(s.equations) == rec.n_failed
        s.validate(code)

    def test_budget_greedy_not_far_from_exact(self):
        code = RdpCode(7)
        rec = get_recovery_equations(code, code.layout.disk_mask(0), depth=1)
        exact = generate_scheme(rec, khan_cost(code.layout), "khan")
        budgeted = generate_scheme(
            rec, khan_cost(code.layout), "khan", max_expansions=5
        )
        assert budgeted.total_reads <= exact.total_reads * 2

    def test_lexicographic_optimality_vs_bruteforce(self):
        """Exhaustively enumerate all option combinations on a small code and
        confirm UCS returns the lexicographic optimum for each cost."""
        import itertools

        code = RdpCode(5)
        lay = code.layout
        rec = get_recovery_equations(code, lay.disk_mask(0), depth=1)
        combos = itertools.product(*rec.options)
        best_khan = None
        best_c = None
        best_u = None
        for combo in combos:
            mask = 0
            for opt in combo:
                mask |= opt.read_mask
            total, maxl = mask.bit_count(), lay.max_load(mask)
            best_khan = min(best_khan, (total,)) if best_khan else (total,)
            best_c = min(best_c, (total, maxl)) if best_c else (total, maxl)
            best_u = min(best_u, (maxl, total)) if best_u else (maxl, total)
        k = generate_scheme(rec, khan_cost(lay), "khan")
        c = generate_scheme(rec, conditional_cost(lay), "c")
        u = generate_scheme(rec, unconditional_cost(lay), "u")
        assert (k.total_reads,) == best_khan
        assert (c.total_reads, c.max_load) == best_c
        assert (u.max_load, u.total_reads) == best_u


class TestIncrementalCostModels:
    """The incremental extend() path must agree with key_of_mask()."""

    @pytest.mark.parametrize(
        "factory", [khan_cost, conditional_cost, unconditional_cost]
    )
    def test_extend_consistent_with_key_of_mask(self, factory):
        lay = CodeLayout(4, 2, 3)
        model = factory(lay)
        masks = [
            0b101,
            0b110001,
            0b111000111,
            lay.disk_mask(3),
            lay.disk_mask(1) | 0b1,
            lay.element_mask([(0, 0), (1, 0), (2, 0), (5, 2)]),
        ]

        def internal_key(mask):
            # fold bit by bit — a different increment order than one shot
            state, key = model.initial()
            seen = 0
            while mask:
                low = mask & -mask
                mask ^= low
                seen |= low
                state, key = model.extend(state, low, seen)
            return key

        # incremental keys must be path-independent...
        for m in masks:
            state0, _ = model.initial()
            _, one_shot = model.extend(state0, m, m)
            assert internal_key(m) == one_shot
        # ...and order masks exactly as the public lexicographic key does
        by_internal = sorted(masks, key=internal_key)
        by_public = sorted(masks, key=model.key_of_mask)
        assert [model.key_of_mask(m) for m in by_internal] == [
            model.key_of_mask(m) for m in by_public
        ]

    def test_weighted_extend_matches_fold(self):
        lay = CodeLayout(3, 1, 2)
        model = weighted_cost(lay, [1.0, 2.0, 0.5, 3.0])
        mask = lay.element_mask([(0, 0), (1, 0), (1, 1), (3, 1)])
        state, key = model.initial()
        state, key = model.extend(state, mask, mask)
        assert key == model.key_of_mask(mask)


class TestSearchStatsMetadata:
    def test_scheme_carries_populated_stats(self):
        code = RdpCode(7)
        rec = get_recovery_equations(code, code.layout.disk_mask(0), depth=1)
        s = generate_scheme(rec, conditional_cost(code.layout), "c")
        stats = s.search_stats
        assert stats is not None
        assert stats["algorithm"] == "c"
        assert stats["expanded"] >= 1
        assert stats["pushed"] >= stats["expanded"]
        assert stats["peak_frontier"] >= 1
        assert stats["wall_time_s"] > 0
        assert s.expanded_states == stats["expanded"]

    def test_stats_summary_renders(self):
        stats = SearchStats(algorithm="u", expanded=10, pushed=20)
        text = stats.summary()
        assert "expanded=10" in text and "pushed=20" in text

    def test_stats_serialise_with_plan(self, tmp_path):
        """search_stats survive a round trip through the plan store."""
        from repro.recovery import RecoveryPlanner, SchemePlanCache

        code = RdpCode(5)
        path = tmp_path / "plans.json"
        planned = RecoveryPlanner(
            code, "u", depth=1, plan_cache=SchemePlanCache(path)
        ).scheme_for_disk(0)
        store = SchemePlanCache(path)
        loaded = RecoveryPlanner(
            code, "u", depth=1, plan_cache=store
        ).scheme_for_disk(0)
        assert store.hits == 1
        assert loaded.search_stats == planned.search_stats


class TestCompiledKernel:
    """The C kernel must be bit-for-bit equivalent to the Python engine."""

    @pytest.fixture(autouse=True)
    def _require_kernel(self):
        if not ckernel.available():
            pytest.skip("no C compiler available; pure-Python mode")

    @pytest.mark.parametrize("family,n", [("rdp", 9), ("evenodd", 8), ("star", 8)])
    @pytest.mark.parametrize(
        "factory,alg",
        [(khan_cost, "khan"), (conditional_cost, "c"), (unconditional_cost, "u")],
    )
    def test_matches_pure_python(self, monkeypatch, family, n, factory, alg):
        import repro.recovery.search as search_mod

        code = make_code(family, n)
        lay = code.layout
        rec = get_recovery_equations(code, lay.disk_mask(0), depth=1)
        # force the kernel even below the size heuristic so small, fast
        # codes still exercise it
        monkeypatch.setattr(search_mod, "_worth_ckernel", lambda _s: True)
        compiled = generate_scheme(rec, factory(lay), alg)
        monkeypatch.setenv("REPRO_PURE_PYTHON", "1")
        monkeypatch.setattr(ckernel, "_lib", None)
        monkeypatch.setattr(ckernel, "_load_attempted", True)
        pure = generate_scheme(rec, factory(lay), alg)
        monkeypatch.setattr(ckernel, "_load_attempted", False)
        assert compiled.read_mask == pure.read_mask
        assert compiled.equations == pure.equations
        cs, ps = compiled.search_stats, pure.search_stats
        for field in ("expanded", "pushed", "pruned_closed", "peak_frontier"):
            assert cs[field] == ps[field], field
