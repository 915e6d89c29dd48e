"""Host-speed calibration, so that run times measure the program, not the host.

The benchmark's host is a share of a busy machine whose speed drifts: a fixed
loop takes up to 1.5 times as long in one half-minute as in the next, and an
R=14 ILP trial up to twice as long.  Medians over a 25 s run do not remove
that, because the slow phases last as long as a run.

So the loop times a fixed calibration kernel right before every unit of work
and once after the last, and reports each unit in reference seconds: its wall
time scaled by REF_S over the mean of the kernel times on either side of it.
A reference second is a second on a host where the kernel takes REF_S, about
the median on the 2-CPU x86-64 host the benchmark was tuned on.  The kernel is
the benchmark's own code and never calls the program, so a change to the
program moves reference seconds as it moves wall seconds.

The kernel mixes interpreted Python with small numpy matrix products and
sorts, as the program does.  On 4- to 5-minute recordings with the program
running between kernel calls, the spread (interquartile range over median)
of 25 s windows fell from 0.10-0.16 to 0.05 for a heuristic trial and from
0.18 to 0.05 for an ILP trial; a memory-bound kernel tracked the drift worse
and was left out.  The CPUs drift independently, so the kernel runs in the
measuring process, right before and after each unit, not beside it.  That
cannot follow work spread over a pool of processes, whose CPUs drift apart
during a unit: on a two-worker run_sweep of 5 s units, corrected figures
spread by 0.06-0.16 over sets of runs, no steadier than uncorrected ones.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.005  # kernel time that defines one reference second
_MATRIX = np.random.default_rng(0).random((60, 60))


def kernel() -> float:
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    for _ in range(40):
        acc += float(np.sort(_MATRIX @ _MATRIX.T, axis=1)[0, 0])
    return acc


def measure() -> float:
    """Wall seconds of one kernel call."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def to_reference(seconds: float, before: float, after: float) -> float:
    """Wall `seconds` in reference seconds, given the kernel times around them."""
    return seconds * 2.0 * REF_S / (before + after)


def reference_durations(durations, calibrations) -> list:
    """Each unit's reference seconds; `calibrations` has one time more than `durations`."""
    if len(calibrations) != len(durations) + 1:
        raise ValueError("need a kernel time before every unit and one after the last")
    return [to_reference(d, calibrations[k], calibrations[k + 1]) for k, d in enumerate(durations)]
