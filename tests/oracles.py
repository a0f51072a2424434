"""Reference computations that only the tests use.

Tape ops: one small node each, with its own VJP. Tests chain them into
reference computations that the library's fused nodes must reproduce in
value and gradient, and into the scalar losses of their finite-difference
checks.

Array oracles: the checked `array_softmax`, the naive and complex-FFT
circular correlations (`circ_corr_naive`, `circ_corr_fft`), the Gaussian
density `gaussian_pdf` and the quadruple-sum score-contrast objective
`eval_objective_direct`. Each is an elementary second implementation of
what the library computes one way only: `numeric._softmax`,
`autodiff.circ_corr`, `local_encoder._gaussian_mask` and
`local_encoder.eval_objective`. They check their inputs, and the FFT
correlation raises ValueError on a non-finite result.
"""

from __future__ import annotations

import math

import numpy as np

from gdd.autodiff import Var, _unbroadcast, as_var
from gdd.local_encoder import SQRT_2PI
from gdd.numeric import Tensor, _softmax, as_tensor

IMAG_RESIDUE_TOL = 1e-9


def reshape(a, shape) -> Var:
    a = as_var(a)
    return Var(a.value.reshape(shape), (a,), lambda g: (g.reshape(a.value.shape),))


def stack(vs) -> Var:
    """Tensors of one shape stacked along a new leading axis."""
    vs = tuple(as_var(v) for v in vs)
    return Var(np.stack([v.value for v in vs]), vs, lambda g: tuple(g))


def sum_(a, axis=None, keepdims: bool = False) -> Var:
    a = as_var(a)
    val = a.value.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        out = np.empty(a.value.shape)
        out[...] = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (out,)

    return Var(np.asarray(val), (a,), vjp)


def mean(a, axis=None, keepdims: bool = False) -> Var:
    """sum * (1/count) as one node; its gradient is g * (1/count), broadcast."""
    a = as_var(a)
    scale = 1.0 / (a.value.size if axis is None else a.value.shape[axis])

    def vjp(g):
        out = np.empty(a.value.shape)
        out[...] = (g if axis is None or keepdims else np.expand_dims(g, axis)) * scale
        return (out,)

    return Var(a.value.sum(axis=axis, keepdims=keepdims) * scale, (a,), vjp)


def pick(a, index: int) -> Var:
    """One scalar element of a 1-D tensor."""
    a = as_var(a)
    if a.value.ndim != 1:
        raise ValueError("pick expects a 1-D tensor")
    i = int(index)

    def vjp(g):
        out = np.zeros_like(a.value)
        out[i] = g
        return (out,)

    return Var(np.asarray(a.value[i]), (a,), vjp)


def logsumexp(a) -> Var:
    """log(sum(exp(a))) of a 1-D tensor, max-shifted for stability."""
    a = as_var(a)
    if a.value.ndim != 1:
        raise ValueError("logsumexp expects a 1-D tensor")
    m = np.max(a.value)
    e = np.exp(a.value - m)
    total = e.sum()
    p = e / total
    return Var(np.asarray(m + np.log(total)), (a,), lambda g: (g * p,))


def sub(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return Var(a.value - b.value, (a, b),
               lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)))


def div(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return Var(a.value / b.value, (a, b),
               lambda g: (_unbroadcast(g / b.value, a.value.shape),
                          _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape)))


def transpose(a) -> Var:
    a = as_var(a)
    if a.value.ndim != 2:
        raise ValueError("transpose expects a 2-D tensor")
    return Var(a.value.T.copy(), (a,), lambda g: (g.T,))


def relu(a) -> Var:
    a = as_var(a)
    return Var(np.maximum(a.value, 0.0), (a,), lambda g: (g * (a.value > 0.0),))


def softplus(a) -> Var:
    a = as_var(a)
    sig = 0.5 * (1.0 + np.tanh(0.5 * a.value))
    return Var(np.logaddexp(0.0, a.value), (a,), lambda g: (g * sig,))


def exp(a) -> Var:
    a = as_var(a)
    val = np.exp(a.value)
    return Var(val, (a,), lambda g: (g * val,))


def softmax(a, axis: int = -1) -> Var:
    a = as_var(a)
    p = _softmax(a.value, axis)
    return Var(p, (a,), lambda g: ((g - (g * p).sum(axis, keepdims=True)) * p,))


# ---------------------------------------------------------------------------
# Array oracles.
# ---------------------------------------------------------------------------

def array_softmax(v, axis: int = -1) -> Tensor:
    """Softmax along `axis`, computed with max-subtraction for overflow safety.

    Each slice along the reduced axis sums to 1; the result is invariant to
    adding a constant to the input slice.
    """
    v = as_tensor(v)
    if v.ndim == 0:
        raise ValueError("softmax: input must have at least one axis")
    if v.shape[axis] == 0:
        raise ValueError("softmax: empty axis")
    return _softmax(v, axis)


def _check_vec_pair(a: Tensor, b: Tensor, op: str) -> None:
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError(f"{op} expects 1-D operands, got shapes {a.shape} and {b.shape}")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"{op}: length mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] < 1:
        raise ValueError(f"{op}: operands must be non-empty")


def circ_corr_naive(a, b) -> Tensor:
    """Direct O(d^2) circular correlation: out[k] = sum_i a[i] * b[(i+k) % d].

    Reference oracle for circ_corr_fft; kept deliberately elementary.
    """
    a, b = as_tensor(a), as_tensor(b)
    _check_vec_pair(a, b, "circ_corr_naive")
    d = a.shape[0]
    out = np.empty(d)
    for k in range(d):
        out[k] = np.dot(a, np.roll(b, -k))
    return out


def circ_corr_fft(a, b) -> Tensor:
    """Circular correlation via FFT: ifft(conj(fft(a)) * fft(b)).

    Works for arbitrary lengths (mixed-radix transform underneath; no padding).
    The imaginary residue of the inverse transform must stay below 1e-9 and
    is discarded.
    """
    a, b = as_tensor(a), as_tensor(b)
    _check_vec_pair(a, b, "circ_corr_fft")
    out = np.fft.ifft(np.conj(np.fft.fft(a)) * np.fft.fft(b))
    residue = float(np.max(np.abs(out.imag), initial=0.0))
    if residue >= IMAG_RESIDUE_TOL:
        raise ValueError(f"circ_corr_fft: imaginary residue {residue:.3e} exceeds tolerance")
    out = np.ascontiguousarray(out.real)
    if not np.all(np.isfinite(out)):
        raise ValueError("circ_corr_fft: non-finite values in result")
    return out


def gaussian_pdf(x: float, sigma: float) -> float:
    """Zero-mean Gaussian density at x."""
    if sigma <= 0:
        raise ValueError(f"gaussian_pdf: sigma must be positive, got {sigma}")
    return math.exp(-0.5 * (x / sigma) ** 2) / (sigma * SQRT_2PI)


def eval_objective_direct(theta, phi, Q, K) -> float:
    """Brute-force quadruple-sum form of the objective; test oracle only."""
    theta, phi = as_tensor(theta), as_tensor(phi)
    Q, K = as_tensor(Q), as_tensor(K)
    dq = Q - theta
    dk = K - phi
    n = Q.shape[0]

    num1 = 0.0
    for j in range(n):
        for xi in range(n):
            for eta in range(n):
                num1 += (np.dot(dq[j], dk[xi]) - np.dot(dq[j], dk[eta])) ** 2
    den1 = sum(np.dot(dq[j], dq[j]) for j in range(n)) * sum(
        np.dot(K[a] - K[b], K[a] - K[b]) for a in range(n) for b in range(n))

    num2 = 0.0
    for xi in range(n):
        for j in range(n):
            for p in range(n):
                num2 += (np.dot(dk[xi], dq[j]) - np.dot(dk[xi], dq[p])) ** 2
    den2 = sum(np.dot(dk[xi], dk[xi]) for xi in range(n)) * sum(
        np.dot(Q[a] - Q[b], Q[a] - Q[b]) for a in range(n) for b in range(n))

    if den1 == 0.0 or den2 == 0.0:
        raise ValueError("degenerate objective")
    return num1 / den1 + num2 / den2
