"""Extension bench: why the paper's rotated placement matters.

Without rotation a physical disk's recovery cost depends on which logical
role it froze into — shortened codes have asymmetric failure situations, so
unrotated placement produces lucky and unlucky disks.  Rotation equalises them
(the stack property the paper's measurements rely on, Sec. VI-A).
"""

import numpy as np
from conftest import emit

from repro.codes import make_code
from repro.disksim.recovery_sim import recovery_under_placement
from repro.placement import PlacementMap, make_placement
from repro.recovery import RecoveryPlanner

FAMILY, N_DISKS = "rdp", 7  # shortened RDP: situations genuinely differ


def test_rotation_equalizes_recovery(benchmark, results_dir):
    code = make_code(FAMILY, N_DISKS)
    planner = RecoveryPlanner(code, "u", depth=1)
    planner.all_disk_schemes()

    n = code.layout.n_disks
    s = np.arange(n)
    # one rotation of stripes over the array; the rotation is built into
    # PlacementMap, so undoing it needs table[s, j] = (j - s) % n
    rotated_map = make_placement("flat", n, n, n)
    unrotated_map = PlacementMap(n, (s[None, :] - s[:, None]) % n, "unrotated")

    rotated = benchmark(
        recovery_under_placement, code, rotated_map, planner=planner
    )
    unrotated = recovery_under_placement(code, unrotated_map, planner=planner)

    lines = [
        f"Placement and recovery time ({FAMILY}@{N_DISKS}, one rotation of "
        "stripes, U-schemes)",
        f"  unrotated: per-disk {['%.2f' % t for t in unrotated.per_disk_time_s]} s "
        f"(worst/best = {unrotated.spread:.2f})",
        f"  rotated  : per-disk {['%.2f' % t for t in rotated.per_disk_time_s]} s "
        f"(worst/best = {rotated.spread:.2f})",
        "rotation removes the placement lottery: every disk recovers in the "
        "situation-average time",
    ]
    emit(results_dir, "ext_placement", "\n".join(lines))

    assert rotated.spread < unrotated.spread
    assert abs(rotated.spread - 1.0) < 1e-9
