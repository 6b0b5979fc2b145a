"""simulate_fleet / run_fleet: validation, dispatch, end-to-end arms."""

import pytest

from repro.codes import make_code
from repro.fleet import (
    QosPolicy,
    default_engine,
    make_criticality,
    run_fleet,
    simulate_fleet,
    uniform_windows,
)
from repro.placement import make_placement


class TestValidation:
    def test_zero_windows_allowed_and_never_lose(self):
        """W=0 is the instant-repair baseline, not an error."""
        r = simulate_fleet(
            uniform_windows(8, 0.0),
            tolerance=1,
            mission_hours=8760.0,
            disk_mttf_hours=500.0,
            trials=100,
            seed=1,
            engine="vector",
        )
        assert r.losses == 0
        assert r.degraded_hours == 0.0
        assert r.failures_total > 0

    def test_negative_window_rejected(self):
        w = uniform_windows(4, 1.0)
        w.hours[2] = -0.5
        with pytest.raises(ValueError, match=">= 0"):
            simulate_fleet(w, tolerance=1, trials=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tolerance": -1},
            {"tolerance": 1, "disk_mttf_hours": 0.0},
            {"tolerance": 1, "mission_hours": -1.0},
            {"tolerance": 1, "trials": 0},
            {"tolerance": 1, "engine": "gpu"},
        ],
    )
    def test_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            simulate_fleet(uniform_windows(4, 1.0), **kwargs)

    def test_criticality_disk_count_must_match(self):
        placement = make_placement("declustered", 20, 60, 5)
        crit = make_criticality(placement, 2)
        with pytest.raises(ValueError, match="covers"):
            simulate_fleet(
                uniform_windows(8, 1.0), tolerance=2, criticality=crit,
                trials=1,
            )


class TestEngineDispatch:
    def test_default_engine_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_PURE_PYTHON", raising=False)
        assert default_engine() == "vector"
        monkeypatch.setenv("REPRO_PURE_PYTHON", "1")
        assert default_engine() == "scalar"

    def test_auto_respects_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PURE_PYTHON", "1")
        r = simulate_fleet(
            uniform_windows(4, 1.0), tolerance=1, trials=2,
            mission_hours=100.0, disk_mttf_hours=50.0, engine="auto",
        )
        assert r.engine == "scalar"

    def test_explicit_engine_recorded(self):
        for engine in ("vector", "scalar"):
            r = simulate_fleet(
                uniform_windows(4, 1.0), tolerance=1, trials=2,
                mission_hours=100.0, disk_mttf_hours=50.0, engine=engine,
            )
            assert r.engine == engine


class TestSemantics:
    def test_single_array_semantics_without_criticality(self):
        """criticality=None: any tolerance+1 concurrent failures lose."""
        kwargs = dict(
            mission_hours=8760.0, disk_mttf_hours=2000.0, trials=150, seed=3,
            engine="vector",
        )
        harsh = simulate_fleet(
            uniform_windows(16, 48.0), tolerance=0, **kwargs
        )
        tolerant = simulate_fleet(
            uniform_windows(16, 48.0), tolerance=3, **kwargs
        )
        assert harsh.losses > tolerant.losses

    def test_criticality_spares_disjoint_failures(self):
        """Flat groups: cross-group double failures are not losses."""
        placement = make_placement("flat", 20, 60, 5)
        crit = make_criticality(placement, 1)
        kwargs = dict(
            tolerance=1, mission_hours=8760.0, disk_mttf_hours=400.0,
            trials=200, seed=5, engine="vector",
        )
        with_crit = simulate_fleet(
            uniform_windows(20, 24.0), criticality=crit, **kwargs
        )
        without = simulate_fleet(uniform_windows(20, 24.0), **kwargs)
        assert with_crit.losses <= without.losses

    def test_longer_windows_lose_more(self):
        kwargs = dict(
            tolerance=1, mission_hours=8760.0, disk_mttf_hours=1000.0,
            trials=300, seed=11, engine="vector",
        )
        short = simulate_fleet(uniform_windows(16, 2.0), **kwargs)
        long = simulate_fleet(uniform_windows(16, 100.0), **kwargs)
        assert short.losses < long.losses
        assert short.mean_degraded_fraction < long.mean_degraded_fraction

    def test_observed_hours_stop_at_loss(self):
        r = simulate_fleet(
            uniform_windows(16, 200.0), tolerance=0,
            mission_hours=8760.0, disk_mttf_hours=100.0, trials=50, seed=2,
            engine="vector",
        )
        assert r.losses == 50
        assert r.observed_hours < 50 * 8760.0
        # at tolerance 0 the first failure is the loss instant, so no
        # degraded time accrues (tests/disksim/test_reliability.py checks
        # the in-flight interval is counted when tolerance > 0)
        assert r.mean_degraded_fraction == 0.0


class TestRunFleet:
    def test_end_to_end(self):
        code = make_code("rdp", 5)
        placement = make_placement("declustered", 24, 100, code.layout.n_disks)
        r = run_fleet(
            code,
            placement,
            policy=QosPolicy(capacity_scale=1e6),
            mission_hours=8760.0,
            disk_mttf_hours=2000.0,
            trials=50,
            seed=1,
        )
        assert r.trials == 50
        assert r.n_disks == 24
        assert r.windows_mean_hours > 0
        assert r.label == f"{code.name}/{placement.name}/u"

    def test_engines_agree_end_to_end(self):
        code = make_code("rdp", 5)
        placement = make_placement("declustered", 24, 100, code.layout.n_disks)
        kwargs = dict(
            policy=QosPolicy(capacity_scale=2e6),
            mission_hours=8760.0,
            disk_mttf_hours=800.0,
            trials=60,
            seed=4,
        )
        v = run_fleet(code, placement, engine="vector", **kwargs)
        s = run_fleet(code, placement, engine="scalar", **kwargs)
        assert v.losses == s.losses
        assert v.failures_total == s.failures_total
        assert v.observed_hours == s.observed_hours
        assert v.degraded_hours == s.degraded_hours
