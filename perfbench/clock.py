"""Host-speed reference for the benchmark's timings.

A shared 2-vCPU host does not run at one speed: on the Xeon host the
benchmark was written on, each vCPU's speed changed by up to 2x within
seconds (no steal time; CPU time slowed as much as wall time), and a run
could spend most of its time fast or slow.  Raw wall times of the same work
then spread by 20-30% between runs.

So every timed span is bracketed by `reference`, two fixed loops that call
no lpsq code, and is reported as ``wall * nominal / ref`` with ``ref`` the
mean of the reference times measured just before and just after it:
seconds at the speed where the reference takes its nominal time.  The
benchmark pins itself and its children to one CPU, so a span and its
references run on the same vCPU.  The raw wall times are kept in the
details line.

Two kinds of span slow differently, so each has its own reference, chosen
by timing short pieces of the workloads in tight alternation with candidate
loops while the host speed changed:

- ``process`` spans (set-up, and each CLI campaign: interpreter start,
  imports, a short campaign) against the interpreter loop alone;
- ``array`` spans (library calls in the worker process) against the
  interpreter loop plus the small-array loop.  Against the interpreter loop
  alone, the sparse pieces (one SquareEvaluator call in 1-D and 2-D)
  slowed 1.3 times as much in log terms; against both, 1.0-1.1 times.  No
  loop fitted the bilinear call (0.6-0.7).
"""

from __future__ import annotations

import time

import numpy as np

# bound at import, before any tracing wrapper replaces the numpy.fft names
_rfft, _irfft = np.fft.rfft, np.fft.irfft
_X = np.arange(1024.0)

# nominal loop times (s) in the host's usual state
INTERP_S = 0.025
ARRAY_S = 0.025


def _interp_loop() -> None:
    for _ in range(150):
        _irfft(_rfft(_X))
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    table = {}
    for i in range(25_000):
        table[i] = str(i)


def _array_loop() -> None:
    small = np.zeros(64)
    for _ in range(9_000):
        small = small * 0.5 + 1.0


def reference() -> list:
    """[interpreter loop s, small-array loop s], about [INTERP_S, ARRAY_S]."""
    out = []
    for loop in (_interp_loop, _array_loop):
        t0 = time.perf_counter()
        loop()
        out.append(time.perf_counter() - t0)
    return out


def mean(a: list, b: list) -> list:
    return [(x + y) / 2 for x, y in zip(a, b)]


def scaled(wall_s: float, ref: list, kind: str) -> float:
    """A wall time in seconds at the nominal speed; kind is "process" or "array"."""
    if kind == "process":
        return wall_s * INTERP_S / ref[0]
    return wall_s * (INTERP_S + ARRAY_S) / (ref[0] + ref[1])
