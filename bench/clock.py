"""Trial times on a fixed reference speed.

A shared host changes speed under the benchmark: on the 2-core Xeon the
baseline was taken on, by up to 1.6x, in steps that come and go within a
second or last minutes, so that the same groupring exchange took 6 ms in
one minute and 10 ms in the next, in CPU time as much as in wall time.
Raw wall-clock figures of two runs of the same code then differ by more
than any useful bound.  So the benchmark runs
``reference`` before and after every trial (and every set-up), a fixed
pure-Python loop of the kind of work sdpke's hot paths do (3x3 matrix
products mod a prime, 64-bit big-int arithmetic), and divides the trial's
time by the mean of the two reference times.  The quotient follows the
program, not the host: a change to sdpke moves it, a slow minute of the
host does not.

Reported times are that quotient in units of REFERENCE_S: seconds on a
host that runs the reference loop in exactly 1 ms.  Wall-clock figures are
printed next to them.  The loop imports nothing, so it can run before the
set-up's first import.
"""

from __future__ import annotations

import statistics
import time

#: what one run of ``reference`` takes, by definition, on the reference host
REFERENCE_S = 1e-3
#: ``reference`` returns this; anything else means the loop did not run as written
REFERENCE_RESULT = 136489173959011576
#: reference runs before and after a set-up
SETUP_REFERENCE_RUNS = 10
_MODULUS = 65521
_MASK64 = (1 << 64) - 1


def reference() -> int:
    """Fixed work of about a millisecond: 40 3x3 matrix products mod 65521, 1500 64-bit LCG steps."""
    a = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    for _ in range(40):
        a = [[(sum(a[i][k] * a[k][j] for k in range(3)) + 1) % _MODULUS for j in range(3)] for i in range(3)]
    s, x = 0, 1
    for i in range(1500):
        x = (x * 6364136223846793005 + i) & _MASK64
        s ^= x >> 7
    return a[0][0] ^ s


def time_reference() -> float:
    """Wall seconds of one run of ``reference``."""
    t0 = time.perf_counter()
    result = reference()
    elapsed = time.perf_counter() - t0
    if result != REFERENCE_RESULT:
        raise RuntimeError(f"reference loop returned {result}, expected {REFERENCE_RESULT}")
    return elapsed


def median_reference(runs: int = SETUP_REFERENCE_RUNS) -> float:
    """Median wall seconds of ``runs`` back-to-back runs of ``reference``."""
    return statistics.median(time_reference() for _ in range(runs))


def scaled(seconds: float, reference_s: float) -> float:
    """``seconds`` measured while the reference took ``reference_s``, on the reference speed."""
    return seconds * REFERENCE_S / reference_s
