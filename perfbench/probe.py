"""Host-speed probe: time a fixed CPU kernel, next to the benchmark.

Usage: python perfbench/probe.py OUT_FILE

The benchmark runs on a shared host whose processors change speed by
tens of percent within seconds, each on its own (other tenants load
the cores they share), so raw wall times of the same code spread more
than any useful bound.  The probe measures that speed while the
benchmark runs.  It times ``kernel()``, a fixed mix of interpreter work
and small NumPy calls like metd's inner loops that shares no code with
metd, by its own CPU time, so the time it waits while a metd command
holds the processor does not count.  Per call it appends one line
``start end cpu_seconds`` (``time.monotonic`` for start and end) to
OUT_FILE, then sleeps IDLE_RATIO times as long as the call took.  The
run starts it on the one processor the metd commands are pinned to,
where it takes about a tenth of the time, and stops it when the run
ends.  Should the run itself be killed, the probe ends on its own.

``host_factor`` turns the calls that fall within an interval into the
processor's slowdown over it, relative to ``REFERENCE_KERNEL_S``.  A
wall time divided by that factor is the time the command would have
taken at the reference speed.
"""

import os
import statistics
import sys
import time

import numpy as np

# Close to the CPU time of one kernel() call on a quiet 2.1 GHz Xeon vCPU
# of the shared host the baseline was measured on.  It only sets the
# scale of adjusted times; any fixed value compares runs equally well.
REFERENCE_KERNEL_S = 0.0025
KERNEL_ROUNDS = 200
IDLE_RATIO = 8
MIN_WINDOW_S = 1.0

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((12, 16))
_VECTOR = _rng.standard_normal(16)
_KEYS = list(range(48))


def kernel() -> float:
    total = 0.0
    for _ in range(KERNEL_ROUNDS):
        scores = _MATRIX @ _VECTOR
        weights = np.exp(scores - scores.max())
        total += float(weights.sum() / np.linalg.norm(scores))
        table = {key: key * 2 for key in _KEYS}
        total += sum(table.values()) * 1e-9
    return total


def host_factor(samples, start: float, end: float) -> float:
    """Mean kernel time over [start, end] relative to the reference.

    ``samples`` are (start, end, cpu_seconds) of kernel calls; the calls
    that lie within the interval count.  An interval shorter than
    MIN_WINDOW_S is widened to the MIN_WINDOW_S that end at ``end``, so
    that a short one still holds calls.  Without any, the factor is 1.
    """
    start = min(start, end - MIN_WINDOW_S)
    inside = [cpu for a, b, cpu in samples if a >= start and b <= end]
    if not inside:
        return 1.0
    return statistics.fmean(inside) / REFERENCE_KERNEL_S


def main(argv) -> int:
    out_path = argv[0]
    parent = os.getppid()
    with open(out_path, "w", encoding="utf-8", buffering=1) as out:
        while os.getppid() == parent:
            started, cpu = time.monotonic(), time.thread_time()
            kernel()
            ended, cpu = time.monotonic(), time.thread_time() - cpu
            out.write(f"{started:.6f} {ended:.6f} {cpu:.7f}\n")
            time.sleep(IDLE_RATIO * (ended - started))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
