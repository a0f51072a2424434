"""Tape ops that only the tests use: one small node each, with its own VJP.

Tests chain them into reference computations that the library's fused
nodes must reproduce in value and gradient, and into the scalar losses of
their finite-difference checks.
"""

from __future__ import annotations

import numpy as np

from gdd.autodiff import Var, as_var


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
