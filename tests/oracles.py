"""Tape ops that only the tests use: one small node each, with its own VJP.

Tests chain them into reference computations that the library's fused
nodes must reproduce in value and gradient, and into the scalar losses of
their finite-difference checks.
"""

from __future__ import annotations

import numpy as np

from gdd.autodiff import Var, _unbroadcast, as_var
from gdd.numeric import _softmax


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
