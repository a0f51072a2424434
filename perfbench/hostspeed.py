"""A fixed reference kernel that measures how fast the shared host runs right now.

The benchmark's host is shared with other tenants, and its speed drifts by
20-30% over tens of minutes, also for the best of many repeats. The kernel is
shaped like the work gdd does (an autodiff tape of small numpy matmuls, tanh
and FFT correlations over Python node objects, then a reverse sweep) but
imports nothing from gdd, so no change to gdd can move it. Its best time in a
run says how fast the host was in that run; `bench.py` scales the run's times
by NOMINAL_S / that best time.
"""

from __future__ import annotations

import time

import numpy as np

# Best time of kernel() on a 2-core x86 box at its fastest; scaled times are
# times on a host where the kernel's best call takes this long.
NOMINAL_S = 0.35e-3

_RNG = np.random.default_rng(0)
_WEIGHTS = [_RNG.standard_normal((24, 24)) * 0.2 for _ in range(4)]
_INPUT = _RNG.standard_normal((6, 24))


class _Node:
    __slots__ = ("value", "parents", "grad")

    def __init__(self, value, parents=()):
        self.value, self.parents, self.grad = value, parents, None


def kernel() -> float:
    tape = []
    h = _Node(_INPUT)
    for k in range(12):
        a = _Node(h.value @ _WEIGHTS[k % 4], (h,))
        b = _Node(np.tanh(a.value), (a,))
        f = np.fft.rfft(b.value, axis=1)
        h = _Node(np.fft.irfft(f * np.conj(f), n=24, axis=1) + b.value, (b,))
        tape += (a, b, h)
    g = np.ones_like(h.value)
    for node in reversed(tape):
        node.grad = g
        g = g * 0.5 + node.value.sum(axis=0) * 1e-3
    return float(g.sum())


class Probe:
    """Best time of kernel() over the calls made so far."""

    def __init__(self):
        self.best_s = float("inf")
        self.calls = 0

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        self.best_s = min(self.best_s, time.perf_counter() - start)
        self.calls += 1
