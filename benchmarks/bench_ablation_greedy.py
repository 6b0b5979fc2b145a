"""Ablation A3 — greedy one-pass generation vs the exact search.

The exact generators pay an exponential worst case for guaranteed optima.
This bench quantifies the trade: greedy scheme quality (max load / total
reads) and speed across the figure families at a mid-to-large size.
"""

import pytest
from conftest import emit

from repro.codes import PAPER_FIGURE_FAMILIES, make_code
from repro.equations import get_recovery_equations
from repro.recovery import greedy_scheme, u_scheme
from repro.recovery.search import generate_scheme, unconditional_cost

N_DISKS = 13


@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_generation_speed(mode, benchmark):
    code = make_code("rdp", N_DISKS)
    if mode == "exact":
        scheme = benchmark(u_scheme, code, 0, depth=1)
        assert scheme.exact
    else:
        scheme = benchmark(greedy_scheme, code, 0, algorithm="u")
        assert not scheme.exact


def test_quality_across_families(benchmark, results_dir):
    def collect():
        rows = []
        for family in PAPER_FIGURE_FAMILIES:
            code = make_code(family, N_DISKS)
            exact = u_scheme(code, 0, depth=1)
            approx = greedy_scheme(code, 0, algorithm="u")
            rows.append((family, exact, approx))
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    lines = [
        f"Greedy vs exact U-scheme, disk 0, {N_DISKS} disks",
        f"{'family':12s} {'exact(max/tot)':>15s} {'greedy(max/tot)':>16s} "
        f"{'states exact':>13s} {'greedy':>7s}",
    ]
    for family, exact, approx in rows:
        lines.append(
            f"{family:12s} {exact.max_load:8d}/{exact.total_reads:<6d} "
            f"{approx.max_load:9d}/{approx.total_reads:<6d} "
            f"{exact.expanded_states:13d} {approx.expanded_states:7d}"
        )
        assert approx.max_load <= exact.max_load + 2
    emit(results_dir, "ablation_greedy", "\n".join(lines))


def test_budget_fallback_quality(benchmark, results_dir):
    """State budgets degrade gracefully: the greedy completion stays close
    to the exact optimum (and is flagged inexact)."""
    code = make_code("rdp", 13)
    rec = get_recovery_equations(code, code.layout.disk_mask(0), depth=1)
    exact = benchmark.pedantic(
        generate_scheme,
        args=(rec, unconditional_cost(code.layout), "u"),
        rounds=1,
        iterations=1,
    )
    rows = ["budget sweep, rdp @ 13 disks: exact = "
            f"(max={exact.max_load}, total={exact.total_reads}) "
            f"in {exact.expanded_states} states"]
    for budget in (50, 500, 5000):
        s = generate_scheme(
            rec, unconditional_cost(code.layout), "u", max_expansions=budget
        )
        rows.append(
            f"budget {budget:>6d}: (max={s.max_load}, total={s.total_reads}) "
            f"exact={s.exact}"
        )
        assert s.max_load <= exact.max_load + 3
    emit(results_dir, "ablation_budget", "\n".join(rows))
