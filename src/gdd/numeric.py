"""Float64 kernels, seeded randomness and the finite-difference oracle.

Tensors are plain numpy arrays in row-major order. `_softmax` is the
unchecked kernel of the tape's attention nodes. `finite_diff_grad`, the
oracle every analytic gradient is checked against (`gdd gradcheck` and the
stationarity diagnostic run it), raises ValueError on a non-finite
objective. Randomness flows through explicit Rng instances owned by the
caller -- nothing in this package touches numpy's global RNG.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

Tensor = np.ndarray


def as_tensor(x) -> Tensor:
    """Coerce input to a float64 array."""
    return np.asarray(x, dtype=np.float64)


class Rng:
    """Seeded random stream (PCG64 counter-based generator).

    Identical seed + identical call sequence gives identical output on all
    platforms. Single consumer: do not share one instance across tasks.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> Tensor:
        return self._gen.uniform(low, high, size=shape)

    def normal(self, shape) -> Tensor:
        return self._gen.normal(0.0, 1.0, size=shape)

    def integers(self, low: int, high: int) -> int:
        """One integer in [low, high)."""
        return int(self._gen.integers(low, high))

    def choice(self, seq):
        return seq[int(self._gen.integers(0, len(seq)))]

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def _softmax(v: Tensor, axis: int = -1) -> Tensor:
    """The softmax kernel without the checks, for float64 arrays that already
    have a non-empty `axis`. It reduces through the ufuncs' own reduce
    methods, which skip the Python wrappers of np.max/np.sum (and of the
    array methods) and give the same bits."""
    e = np.exp(v - np.maximum.reduce(v, axis, keepdims=True))
    return e / np.add.reduce(e, axis, keepdims=True)


def finite_diff_grad(f: Callable[[Tensor], float], x, eps: float = 1e-6) -> Tensor:
    """Central-difference gradient of a scalar function, coordinate by coordinate.

    grad[i] = (f(x + eps*e_i) - f(x - eps*e_i)) / (2*eps). This is the
    oracle every analytic gradient in the package is checked against; it must
    stay independent of the tape machinery.
    """
    if eps <= 0:
        raise ValueError("finite_diff_grad: eps must be positive")
    x = as_tensor(x)
    grad = np.empty_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        fp, fm = float(f(xp)), float(f(xm))
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise ValueError(f"finite_diff_grad: non-finite objective at coordinate {idx}")
        grad[idx] = (fp - fm) / (2.0 * eps)
    return grad


def init_uniform(rng: Rng, shape) -> Tensor:
    """Glorot init: 2-D weights i.i.d. uniform in [-b, b] with
    b = sqrt(6 / (fan_in + fan_out)); everything else (biases) starts at zero.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) != 2:
        return np.zeros(shape)
    bound = math.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(shape, -bound, bound)
