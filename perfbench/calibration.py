"""Host-speed calibration, interleaved with the timed phase.

The benchmark runs on a few cores of a shared host whose speed changes with
its neighbours' load: within a run it flips between a fast and a slow mode
many times a second, and from run to run its average drifts by a quarter or
more. Such changes move every time the benchmark reads, whatever the program
does. To take them out, the timed phase is paused every `INTERVAL_S` seconds
(between ops, or between the profiles of `ne_refute`) to time a fixed
pure-Python kernel: Fraction arithmetic, dict inserts and a sort, the mix the
package spends its time in. The kernel uses no code of the package, so no
change to the package moves it. Each op's time is then multiplied by
`REFERENCE_KERNEL_S / mean kernel time` around it (`local_scale`), and reads
as the time the op would have taken on a host that runs the kernel in
`REFERENCE_KERNEL_S`.

The pauses are kept out of every measured time (all are read from `now()`);
the raw (unscaled) times are printed on stderr next to the scale factors.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
# The host's speed flips between a fast and a slow mode, up to twofold, many
# times a second, so a run's time is its base time times the mean slowdown
# over the run. An op's time is therefore scaled by the mean kernel time over
# the samples taken from WINDOW_S before it starts to WINDOW_S after it ends
# (at least MIN_SAMPLES of them, the nearest ones if the window holds fewer).
WINDOW_S = 0.5
MIN_SAMPLES = 10
WARM_UP_RUNS = 3
STEP_SAMPLES = 5
# Mean kernel time on the host the bounds were set on (2 vCPUs of a shared
# x86-64 VM, CPython 3.11); it only fixes the scale the reported times read in.
REFERENCE_KERNEL_S = 0.0025


def kernel():
    """Fraction arithmetic, then a dict of fresh tuple keys built and sorted:
    the allocation-heavy mix the package's DP, memo and search run on."""
    acc = Fraction(0)
    for i in range(1, 80):
        f = Fraction(i % 97 + 1, i % 12 + 1)
        acc += f * Fraction(1, 3) - f / 7
    table = {}
    for i in range(130):
        key = (i * 7919 % 10_007, Fraction(i % 13, 7))
        table[key] = [i, key]
    rows = sorted(table, key=lambda k: (k[1], k[0]))
    return acc, rows[len(rows) // 2]


_times: list[float] = []  # when each sample ran, on the `now()` clock
_samples: list[float] = []
_paused_s = 0.0
_next = 0.0


def sample() -> None:
    """Time the kernel once."""
    global _paused_s, _next
    collecting = gc.isenabled()
    gc.disable()  # the kernel frees all it makes; collections of the
    try:          # program's heap must not land in it
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
    finally:
        if collecting:
            gc.enable()
    _times.append(t0 - _paused_s)
    _samples.append(t1 - t0)
    _paused_s += t1 - t0
    _next = t1 + INTERVAL_S


def tick() -> None:
    """Time the kernel if `INTERVAL_S` has passed since it last ran."""
    if time.perf_counter() >= _next:
        sample()


def now() -> float:
    """A clock that stands still while the kernel runs; every time the
    benchmark measures, traced spans included, is read from it."""
    return time.perf_counter() - _paused_s


def sample_count() -> int:
    return len(_samples)


def warm_up() -> None:
    """Run the kernel untimed, so that its first samples do not pay for
    fresh memory and cold caches."""
    for _ in range(WARM_UP_RUNS):
        kernel()


def timed_step(fn):
    """Run `fn` between two bursts of STEP_SAMPLES samples; return its
    result, its raw time and its time scaled by the mean of those samples."""
    first = len(_samples)
    for _ in range(STEP_SAMPLES):
        sample()
    t0 = time.perf_counter()
    result = fn()
    raw_s = time.perf_counter() - t0
    for _ in range(STEP_SAMPLES):
        sample()
    return result, raw_s, raw_s * scale(first)


def scale(first: int = 0) -> float:
    """Factor from this process's times to reference-host times, from the
    samples numbered `first` on."""
    return REFERENCE_KERNEL_S / statistics.fmean(_samples[first:])


def local_scale(t0: float, t1: float) -> float:
    """Factor from the time of an op that ran from `t0` to `t1` (on the
    `now()` clock) to reference-host time."""
    lo = bisect.bisect_left(_times, t0 - WINDOW_S)
    hi = bisect.bisect_right(_times, t1 + WINDOW_S)
    if hi - lo < MIN_SAMPLES:
        mid = bisect.bisect_left(_times, (t0 + t1) / 2)
        lo = max(0, min(mid - MIN_SAMPLES // 2, len(_times) - MIN_SAMPLES))
        hi = lo + MIN_SAMPLES
    return REFERENCE_KERNEL_S / statistics.fmean(_samples[lo:hi])
