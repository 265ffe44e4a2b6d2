"""Host-speed calibration: every time the benchmark reports is in
reference seconds.

The benchmark shares a small virtual machine with other tenants.  When
they are busy, this process runs at full CPU time but slower -- by 20%
for minutes at a time and by 50% for seconds -- so a workload measured
twice a minute apart can differ by a third.  Every timed operation is
therefore preceded by :func:`calibrate`, which times a fixed piece of
pure-Python work (dictionary updates, tuple hashing, sorting, string
formatting: the kind of work the compiler does), and the operation's
time is multiplied by ``REFERENCE_S / calibrate()``.  A reference second
is a second on a host that runs the calibration in ``REFERENCE_S``;
this repository's 2-vCPU host does so when it is calm.  A change to the
compiler cannot change the calibration's work, so it moves reference
seconds exactly as it moves seconds.
"""

from __future__ import annotations

import time

#: What :func:`calibrate` takes on the calm reference host.
REFERENCE_S = 0.0021


def _work() -> int:
    table = {}
    acc = 0
    for i in range(4000):
        key = i % 97
        table[key] = table.get(key, 0) + (i * 3) // 7
        acc ^= hash((key, i & 15))
    ordered = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    return acc + len(",".join(f"{a}:{b}" for a, b in ordered[:40]))


def calibrate() -> float:
    """Seconds the fixed calibration work takes right now."""
    start = time.perf_counter()
    _work()
    _work()
    return time.perf_counter() - start


def scale() -> float:
    """Reference seconds per second at this moment."""
    return REFERENCE_S / calibrate()
