"""Reverse-mode gradient tape over float64 numpy arrays.

Every op is eager: it computes its value immediately and records its
parents and one VJP, a callback mapping the output gradient to one
gradient contribution per parent, in order. backward() sorts the op nodes
(those with a VJP) reachable from its output and replays them in reverse
topological order, calling each node's VJP once; inputs (leaves and
constants) never enter the sort, they only receive contributions.
A Leaf's gradient is a preallocated array, possibly a strided view into a
larger buffer, that backward() adds into in place; an op whose parent is a
Leaf may instead add its contribution into that array itself (touching
only the rows it used) and return None for it. The model's attention and
mask layers are nodes of this one kind, with hand-derived VJPs over many
parents, and so are the short chains it runs on every example: a sum or
mean over a span of rows (sum_rows), row gathers laid side by side
(gather_concat) and the cross-entropy (cross_entropy). Analytic gradients
produced here are validated against numeric.finite_diff_grad, never
trusted blind.

circ_corr runs its transforms as matrix products with two cached real DFT
matrices per length d (K = d // 2 + 1 bins), their columns interleaved bin
by bin: x @ F is [Re X0, Im X0, Re X1, Im X1, ...] for X = rfft(x), so its
.view(np.complex128) is rfft(x) and each spectral product is one complex
multiply, and the float64 view of a spectrum @ Finv gives irfft(., n=d).
At the model's widths (d_head = 16) a small GEMM costs less than the numpy
FFT call it replaces.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .numeric import _softmax, as_tensor

class Var:
    """A tape node: a float64 array, the gradient accumulated for it, its
    parents and its VJP (g -> one contribution per parent; None for an input)."""

    __slots__ = ("value", "grad", "_parents", "_vjp")

    def __init__(self, value, parents=(), vjp=None):
        self.value = as_tensor(value)
        self.grad = None
        self._parents = parents
        self._vjp = vjp

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


class Leaf(Var):
    """A tape input whose gradient accumulates in place into `grad`, a
    preallocated array such as a view into a flat gradient buffer."""

    __slots__ = ()

    def __init__(self, value, grad):
        super().__init__(value)
        self.grad = grad


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to `shape` (the reverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return Var(a.value + b.value, (a, b),
               lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)))


def sub(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return Var(a.value - b.value, (a, b),
               lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)))


def mul(a, b) -> Var:
    """a * b, elementwise. A plain array or number operand stays a constant:
    it becomes no parent, so backward computes no gradient for it."""
    if not isinstance(b, Var):
        a, b = as_var(a), as_tensor(b)
        return Var(a.value * b, (a,), lambda g: (_unbroadcast(g * b, a.value.shape),))
    if not isinstance(a, Var):
        a = as_tensor(a)
        return Var(a * b.value, (b,), lambda g: (_unbroadcast(g * a, b.value.shape),))
    return Var(a.value * b.value, (a, b),
               lambda g: (_unbroadcast(g * b.value, a.value.shape),
                          _unbroadcast(g * a.value, b.value.shape)))


def div(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return Var(a.value / b.value, (a, b),
               lambda g: (_unbroadcast(g / b.value, a.value.shape),
                          _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape)))


def matmul(a, b) -> Var:
    """Matrix/vector product following numpy @ semantics for ndim in {1, 2}."""
    a, b = as_var(a), as_var(b)
    av, bv = a.value, b.value
    if av.ndim == 2 and bv.ndim == 2:
        vjp = lambda g: (g @ bv.T, av.T @ g)
    elif av.ndim == 1 and bv.ndim == 2:
        vjp = lambda g: (bv @ g, av[:, None] * g)
    elif av.ndim == 2 and bv.ndim == 1:
        vjp = lambda g: (g[:, None] * bv, av.T @ g)
    elif av.ndim == 1 and bv.ndim == 1:
        vjp = lambda g: (g * bv, g * av)
    else:
        raise ValueError(f"matmul: unsupported ranks {av.shape} @ {bv.shape}")
    return Var(av @ bv, (a, b), vjp)


def transpose(a) -> Var:
    a = as_var(a)
    if a.value.ndim != 2:
        raise ValueError("transpose expects a 2-D tensor")
    return Var(a.value.T.copy(), (a,), lambda g: (g.T,))


def concat(vs, axis: int = 0) -> Var:
    vs = tuple(as_var(v) for v in vs)
    val = np.concatenate([v.value for v in vs], axis=axis)
    slices = []
    offset = 0
    for v in vs:
        size = v.value.shape[axis]
        sl = [slice(None)] * val.ndim
        sl[axis] = slice(offset, offset + size)
        slices.append(tuple(sl))
        offset += size
    return Var(val, vs, lambda g: tuple(g[s].copy() for s in slices))


def _scatter_rows(a: Var, idx: np.ndarray, g: np.ndarray):
    """The gradient of a row gather a[idx] for output gradient g: added into a
    Leaf's own gradient (only the gathered rows are touched; returns None),
    otherwise into a fresh zero tensor (returned)."""
    if isinstance(a, Leaf):
        np.add.at(a.grad, idx, g)
        return None
    out = np.zeros_like(a.value)
    np.add.at(out, idx, g)
    return out


def gather_rows(a, indices) -> Var:
    """Index along the first axis; rows may repeat. Gradient scatter-adds:
    into a Leaf's own gradient (touching only the gathered rows), otherwise
    into a fresh zero tensor."""
    a = as_var(a)
    idx = np.asarray(indices, dtype=np.intp)
    return Var(a.value.take(idx, axis=0), (a,), lambda g: (_scatter_rows(a, idx, g),))


def gather_concat(parts) -> Var:
    """Row gathers laid side by side, as one node. parts are (table, indices)
    pairs, indices of shape (m,) or (m, k); output row i concatenates, part
    by part, table[indices[i, 0]], ..., table[indices[i, k - 1]]. Each
    table's gradient scatter-adds as gather_rows' does."""
    tables = tuple(as_var(t) for t, _ in parts)
    idxs = tuple(np.asarray(i, dtype=np.intp) for _, i in parts)
    blocks = [t.value.take(i, axis=0).reshape(i.shape[0], -1) for t, i in zip(tables, idxs)]
    cols = list(itertools.pairwise(itertools.accumulate((b.shape[1] for b in blocks), initial=0)))

    def vjp(g):
        return tuple(_scatter_rows(t, i, g[:, lo:hi].reshape(i.shape + t.value.shape[1:]))
                     for t, i, (lo, hi) in zip(tables, idxs, cols))

    return Var(np.concatenate(blocks, axis=1), tables, vjp)


def sum_rows(a, start: int, stop: int, scale: float = 1.0) -> Var:
    """scale times the sum of rows [start, stop) of a 2-D tensor, as one node
    (a mean with scale = 1 / (stop - start)). Its gradient is g * scale on
    those rows and zero elsewhere."""
    a = as_var(a)

    def vjp(g):
        out = np.zeros_like(a.value)
        out[start:stop] = g * scale
        return (out,)

    return Var(a.value[start:stop].sum(axis=0) * scale, (a,), vjp)


def cross_entropy(logits, gold: int) -> Var:
    """logsumexp(z) - z[gold] of a 1-D logit vector z, max-shifted for
    stability, as one node. Its gradient is g * (softmax(z) - onehot(gold))."""
    z = as_var(logits)
    v = z.value
    if v.ndim != 1:
        raise ValueError("cross_entropy expects a 1-D tensor")
    i = int(gold)
    top = v.max()
    e = np.exp(v - top)
    total = e.sum()

    def vjp(g):
        d = g * (e / total)
        d[i] -= g
        return (d,)

    return Var(np.asarray(top + np.log(total) - v[i]), (z,), vjp)


def sum_squares(a: Leaf, runs) -> Var:
    """Sum of squares of a 1-D Leaf's entries over the index ranges `runs`
    ((start, stop) pairs). Its gradient, 2*g*a on those ranges, is added into
    the Leaf's own gradient."""
    w = a.value
    total = sum(float(np.dot(w[lo:hi], w[lo:hi])) for lo, hi in runs)

    def vjp(g):
        scale = 2.0 * float(g)
        for lo, hi in runs:
            a.grad[lo:hi] += scale * w[lo:hi]
        return (None,)

    return Var(np.asarray(total), (a,), vjp)


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


@functools.lru_cache(maxsize=8)
def _real_dft(d: int):
    """(F, Finv) for length d with K = d // 2 + 1 bins, read-only.

    F (d x 2K) interleaves the columns cos and -sin of the angles 2 pi jk/d,
    bin by bin, so row x @ F is [Re X0, Im X0, Re X1, ...] for X = rfft(x)
    and its .view(np.complex128) is rfft(x) itself. Finv (2K x d) takes
    that layout, the float64 view of a complex spectrum, back as
    irfft(., n=d) does: bin 0, and the Nyquist bin of an even d, weigh 1/d,
    every other bin 2/d, and the imaginary parts of those two bins drop out
    (their sine rows are zero).
    """
    k = np.arange(d // 2 + 1)
    angle = (2.0 * np.pi / d) * (np.outer(np.arange(d), k) % d)  # jk reduced mod d exactly
    cos, sin = np.cos(angle), np.sin(angle)
    w = np.full(k.size, 2.0 / d)
    w[0] = 1.0 / d
    if d % 2 == 0:
        w[-1] = 1.0 / d
    F = np.stack((cos, -sin), axis=2).reshape(d, 2 * k.size)
    Finv = np.stack((w[:, None] * cos.T, -w[:, None] * sin.T), axis=1).reshape(2 * k.size, d)
    F.flags.writeable = Finv.flags.writeable = False
    return F, Finv


def circ_corr(pair) -> Var:
    """Circular correlation of pair[0] with pair[1] along the last axis.

    pair is one (2, ..., d) operand; out (..., d) = irfft(conj(A) * B, n=d)
    with A, B the rffts of pair[0], pair[1]: real by construction, no
    imaginary residue to discard (numeric.circ_corr_fft is the complex-FFT
    oracle). The transforms are products with _real_dft's matrices, whose
    interleaved layout makes a GEMM's output rows complex spectra under
    .view(np.complex128): one GEMM of the pair's rows, read as they lie,
    gives A and B, conj(A) * B is one complex multiply, and one GEMM of its
    float64 view takes it back. Over G = rfft(g) the gradient is d/d pair[0]
    = irfft(conj(G) * B) and d/d pair[1] = irfft(G * A): one GEMM of g, two
    complex multiplies and one GEMM of both products, the pair's one
    (2, ..., d) contribution.
    """
    pair = as_var(pair)
    shape = pair.value.shape
    if len(shape) < 2 or shape[0] != 2:
        raise ValueError(f"circ_corr: expected a (2, ..., d) pair, got shape {shape}")
    d = shape[-1]
    F, Finv = _real_dft(d)
    m = pair.value.size // (2 * d)
    spectra = (pair.value.reshape(2 * m, d) @ F).view(np.complex128)  # [A; B], 2m x K
    A, B = spectra[:m], spectra[m:]

    def vjp(g):
        G = (g.reshape(m, d) @ F).view(np.complex128)
        both = np.empty((2 * m, A.shape[1]), np.complex128)
        np.multiply(G.conj(), B, out=both[:m])
        np.multiply(G, A, out=both[m:])
        return ((both.view(np.float64) @ Finv).reshape(shape),)

    return Var(((A.conj() * B).view(np.float64) @ Finv).reshape(shape[1:]), (pair,), vjp)


def backward(out: Var) -> None:
    """Accumulate d(out)/d(node) into .grad for every node reachable from out.

    Only op nodes (those with a VJP) are sorted and replayed: a parent
    without one, a Leaf or a constant input, never enters the search. It
    only receives its contributions, into its preallocated array for a Leaf
    and into a fresh or summed .grad for any other input.
    """
    if out.value.size != 1:
        raise ValueError("backward expects a scalar output")
    out.grad = np.ones_like(out.value)
    if out._vjp is None:
        return
    order = []
    seen = set()
    stack = [(out, False)]
    while stack:
        node, children_done = stack.pop()
        if children_done:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for parent in node._parents:
            if parent._vjp is not None and parent not in seen:
                stack.append((parent, False))
    for node in reversed(order):
        for parent, contrib in zip(node._parents, node._vjp(node.grad)):
            if contrib is None:  # the op added into the Leaf's gradient itself
                continue
            if isinstance(parent, Leaf):
                parent.grad += contrib
            else:
                parent.grad = contrib if parent.grad is None else parent.grad + contrib
