"""Window-of-vulnerability checks for one array on the fleet engine.

A single array is ``repro.fleet`` with constant repair windows and no
criticality oracle: any ``fault_tolerance + 1`` concurrent failures lose
data.
"""

import pytest

from repro.codes import Raid4Code, RdpCode, StarCode
from repro.fleet import recovery_hours_for_disk, simulate_fleet, uniform_windows


def simulate(code, recovery_hours, **kwargs):
    return simulate_fleet(
        uniform_windows(code.layout.n_disks, recovery_hours),
        code.fault_tolerance,
        **kwargs,
    )


class TestRecoveryHours:
    def test_conversion(self):
        # 300 GB at 56.1 MB/s is ~1.52 hours
        hours = recovery_hours_for_disk(300.0, 56.1)
        assert hours == pytest.approx(300 * 1024 / 56.1 / 3600, rel=1e-6)

    def test_invalid_speed(self):
        with pytest.raises(ValueError, match="positive"):
            recovery_hours_for_disk(300, 0)


class TestSimulation:
    def test_validation(self):
        code = RdpCode(5)
        with pytest.raises(ValueError):
            simulate(code, -1.0)
        with pytest.raises(ValueError):
            simulate(code, 1.0, trials=0)

    def test_zero_recovery_time_never_loses(self):
        """Instant repair means at most one disk is ever down."""
        code = RdpCode(5)
        r = simulate(code, 0.0, disk_mttf_hours=5000.0, trials=300, seed=1)
        assert r.loss_probability == 0.0
        assert r.mean_degraded_fraction == pytest.approx(0.0, abs=1e-9)

    def test_faster_recovery_reduces_loss(self):
        """The paper's whole argument: shorter windows, fewer losses.  Use
        an exaggerated regime (unreliable disks, long rebuilds) so the
        Monte-Carlo signal is strong with few trials."""
        code = Raid4Code(6, 4)  # tolerates one failure
        kwargs = dict(disk_mttf_hours=50_000.0, mission_hours=50_000.0,
                      trials=800, seed=7)
        slow = simulate(code, 400.0, **kwargs)
        fast = simulate(code, 100.0, **kwargs)
        assert 0.0 < fast.loss_probability < slow.loss_probability < 1.0
        assert fast.mean_degraded_fraction < slow.mean_degraded_fraction

    def test_higher_tolerance_survives_better(self):
        rdp = RdpCode(5)    # 2-fault tolerant, 6 disks
        star = StarCode(5)  # 3-fault tolerant, 8 disks
        kwargs = dict(recovery_hours=300.0, disk_mttf_hours=3000.0,
                      trials=600, seed=3)
        r2 = simulate(rdp, **kwargs)
        r3 = simulate(star, **kwargs)
        assert r3.loss_probability <= r2.loss_probability

    def test_nines(self):
        r = simulate(RdpCode(5), 0.0, trials=10, seed=1)
        assert r.nines() == float("inf")

    def test_failures_accumulate(self):
        r = simulate(RdpCode(5), 1.0, disk_mttf_hours=2000.0,
                     mission_hours=50000.0, trials=50, seed=9)
        assert r.mean_failures_per_mission > 1.0

    def test_lost_missions_still_count_degraded_time(self):
        """A regime where every trial loses data still reports the degraded
        interval in flight at the loss instant."""
        r = simulate(RdpCode(5), 5000.0, disk_mttf_hours=200.0,
                     mission_hours=50000.0, trials=40, seed=4)
        assert r.loss_probability == 1.0
        assert r.mean_degraded_fraction > 0.0

    def test_zero_recovery_hours_is_explicitly_allowed(self):
        r = simulate(RdpCode(5), 0.0, trials=5, seed=0)
        assert r.trials == 5

    def test_validation_messages(self):
        code = RdpCode(5)
        with pytest.raises(ValueError, match=">= 0"):
            simulate(code, -0.5)
        with pytest.raises(ValueError, match="positive"):
            simulate(code, 1.0, disk_mttf_hours=0.0)
        with pytest.raises(ValueError, match="positive"):
            simulate(code, 1.0, mission_hours=-10.0)
