"""Reverse-mode gradient tape over float64 numpy arrays.

Every op is eager: it computes its value immediately and records its
parents and one VJP, a callback mapping the output gradient to one
gradient contribution per parent, in order. backward() finds the op nodes
(those with a VJP) reachable from its output and replays each once all of
its consumers have handed it their contributions; inputs (leaves and
constants) never enter the search, they only receive contributions. A
node kind whose VJPs are worth running together has a Batched VJP (see
batched): a kernel over a group of nodes. backward(grouped=True) replays
the nodes level by level: a Batched node sits one level above its highest
op-node parent, so the nodes of one group on one level never depend on
each other, and each group runs as one kernel call once the level's plain
nodes have run. That is the depth-based strategy of DyNet's on-the-fly
operation batching (Neubig et al. 2017), with only Batched nodes counted
as depth. Without grouped, backward() replays a reverse topological sort.
A Batched node's own VJP is its kernel over a group of one.

A contribution comes in one of these kinds:
- an array (or number) of the parent's shape;
- None, when a Batched kernel handed the parent its share on another node;
- the factors of a weight or embedding gradient, whose minibatch sum is a
  sum of per-example products: a pair (X^T, G) stands for the product
  X^T @ G (X of shape (..., rows, a) and G of (..., rows, b), with numpy's
  matmul broadcasting over leading head axes, so one X may serve a stack
  of heads; a single row makes it an outer product), and a Scatter
  (idx, rows) stands for rows scatter-added into the table rows idx;
- for a Leaf only, a function that adds the contribution into the
  gradient array it is given (sum_squares', which adds in blocks).
backward() multiplies factors out at once when the parent is not a Leaf.
A Leaf's gradient is a preallocated array, possibly a strided view into a
larger buffer, and no VJP writes into it: a Leaf collects its
contributions while the replay runs, and each Leaf's are added once it
ends, in the order of the Leafs' first contributions and each Leaf's in
the order they arrived. The model's l2 term, a sum_squares over the flat
Leaf that views every weight's gradient, is the loss's last operand and
reads no op node, so either replay runs it last (first in post-order, and
on level 0): its function is added after every other Leaf's
contributions, at every batch size. A single one (as
every weight's at batch 1, or a Batched group's, reduced already) is
added as it is; several (one per example of a minibatch) are reduced,
each kind at once: the functions first, then one GEMM over the
concatenated rows of all the pairs, one flat 1-D np.add.at over all the
Scatters (in the order of the 2-D scatters it replaces, so with the same
result bits) and one add of the sum of the arrays. Nothing stays pending
once backward() returns.

The model's attention and mask layers are nodes too, with hand-derived
VJPs over many parents (the DGAT's are Batched kinds, see dgat), and so
are the short chains it runs on every example: a sum or mean over a span
of rows (sum_rows) and the cross-entropy (cross_entropy). One gather_rows
node reads an edge's k table rows side by side, given (m, k) indices.
Analytic gradients produced here are validated against
numeric.finite_diff_grad, never trusted blind.

circ_corr, a Batched kind, runs its transforms as matrix products with
two cached real DFT matrices per length d (K = d // 2 + 1 bins), their
columns interleaved bin by bin: x @ F is [Re X0, Im X0, Re X1, Im X1, ...]
for X = rfft(x), so its .view(np.complex128) is rfft(x) and each spectral
product is one complex multiply, and the float64 view of a spectrum @ Finv
gives irfft(., n=d).
At the model's widths (d_head = 16) a small GEMM costs less than the numpy
FFT call it replaces.
"""

from __future__ import annotations

import functools
import itertools
from types import MethodType

import numpy as np

from .numeric import as_tensor

# sum_squares' VJP scales the weights through a scratch of this many entries
# (256 KB) at a time, never a buffer-sized temporary.
L2_BLOCK = 1 << 15


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


class Leaf(Var):
    """A tape input whose gradient accumulates in place into `grad`, a
    preallocated array such as a view into a flat gradient buffer."""

    __slots__ = ()

    def __init__(self, value, grad):
        super().__init__(value)
        self.grad = grad


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def _product(Xt: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Xt @ G; with one row, the outer product, by a cheaper multiply."""
    return Xt * G if Xt.shape[-1] == 1 else Xt @ G


class Scatter:
    """The contribution of a row gather table[idx], kept as its factors:
    rows (idx.shape + the table's row shape) scatter-added into the rows
    idx, which may repeat."""

    __slots__ = ("idx", "rows")

    def __init__(self, idx: np.ndarray, rows: np.ndarray):
        self.idx, self.rows = idx, rows

    def dense(self, shape) -> np.ndarray:
        out = np.zeros(shape)
        np.add.at(out, self.idx, self.rows)
        return out


def _add_into(grad: np.ndarray, c) -> None:
    """grad += c. A 3-D gradient is a stack of heads, such as a strided
    ModelParams.stack view: it takes c head by head, as numpy adds into each
    contiguous head block several times faster than into the strided whole."""
    if grad.ndim == 3:
        for head, x in zip(grad, c):
            head += x
    else:
        grad += c


def _apply(grad: np.ndarray, c) -> None:
    """Add one contribution of any kind into a Leaf's gradient."""
    if type(c) is tuple:
        _add_into(grad, _product(*c))
    elif type(c) is Scatter:
        np.add.at(grad, c.idx, c.rows)
    elif callable(c):
        c(grad)
    else:
        _add_into(grad, c)


def _scatter_into(grad: np.ndarray, scatters: list) -> None:
    """Add Scatters into a table's gradient with one 1-D np.add.at over the
    flat table: entry j of row r is flat entry r * width + j, listed row by
    row in the order of idx, so every entry receives its terms in the order
    that 2-D np.add.at calls, one per Scatter, would add them."""
    if not grad.flags.c_contiguous:  # no flat view to add into
        for s in scatters:
            np.add.at(grad, s.idx, s.rows)
        return
    width = grad[0].size
    idx = np.concatenate([s.idx.reshape(-1) for s in scatters])
    rows = np.concatenate([s.rows.reshape(-1) for s in scatters])
    np.add.at(grad.reshape(-1), (idx[:, None] * width + np.arange(width)).reshape(-1), rows)


def _reduce_into(grad: np.ndarray, contribs: list) -> None:
    """Add a Leaf's several contributions into its gradient, grouped by kind:
    the functions called first, in turn; then the pairs (X_k^T, G_k)
    concatenated along the axis that their product sums over (the rows of
    X_k and G_k), so that their sum is one product; the Scatters through
    _scatter_into; the plain arrays summed before one add."""
    products, scatters, arrays = [], [], []
    for c in contribs:
        if callable(c):
            c(grad)
        else:
            (products if type(c) is tuple else scatters if type(c) is Scatter else arrays).append(c)
    if products:
        _add_into(grad, np.concatenate([Xt for Xt, _ in products], axis=-1)
                  @ np.concatenate([G for _, G in products], axis=-2))
    if scatters:
        _scatter_into(grad, scatters)
    if arrays:
        total = arrays[0] + arrays[1] if len(arrays) > 1 else arrays[0]
        for c in arrays[2:]:
            total += c
        _add_into(grad, total)


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


def matmul(a, b) -> Var:
    """Matrix/vector product following numpy @ semantics for ndim in {1, 2}.
    A matrix b receives its gradient as factors: (a^T, g) for a matrix a,
    and the outer product (a[:, None], g[None]) for a vector a."""
    a, b = as_var(a), as_var(b)
    av, bv = a.value, b.value
    if av.ndim == 2 and bv.ndim == 2:
        vjp = lambda g: (g @ bv.T, (av.T, g))
    elif av.ndim == 1 and bv.ndim == 2:
        vjp = lambda g: (bv @ g, (av[:, None], g[None, :]))
    elif av.ndim == 2 and bv.ndim == 1:
        vjp = lambda g: (g[:, None] * bv, av.T @ g)
    elif av.ndim == 1 and bv.ndim == 1:
        vjp = lambda g: (g * bv, g * av)
    else:
        raise ValueError(f"matmul: unsupported ranks {av.shape} @ {bv.shape}")
    return Var(av @ bv, (a, b), vjp)


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


def gather_rows(a, indices) -> Var:
    """Index along the first axis; rows may repeat. Indices of shape (m, k)
    into a 2-D table lay each output row's k rows side by side: row i joins
    table[indices[i, 0]], ..., table[indices[i, k - 1]], and m may be 0. Its
    gradient is the Scatter of the output gradient into the gathered rows."""
    a = as_var(a)
    idx = np.asarray(indices, dtype=np.intp)
    rows = a.value.take(idx, axis=0)
    out = rows.reshape(len(idx), idx.shape[1] * a.value.shape[1]) if idx.ndim == 2 else rows
    return Var(out, (a,), lambda g: (Scatter(idx, g.reshape(rows.shape)),))


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


@functools.lru_cache(maxsize=8)
def _between(runs: tuple) -> np.ndarray:
    """The indices between consecutive ranges of sorted, disjoint runs,
    read-only."""
    gaps = np.array([i for (_, stop), (start, _) in itertools.pairwise(runs)
                     for i in range(stop, start)], dtype=np.intp)
    gaps.flags.writeable = False
    return gaps


def sum_squares(a: Leaf, runs) -> Var:
    """Sum of squares of a 1-D Leaf's entries over the index ranges `runs`
    ((start, stop) pairs, sorted and disjoint): one dot over the span from
    the first range's start to the last one's stop, less one dot over the
    entries between the ranges. Its gradient, 2*g*a on those ranges, is
    a function that adds it into the gradient it is given in one pass from
    the first range's start to the last one's stop, through one scratch
    array of at most L2_BLOCK entries a block at a time, so no temporary is
    larger than that; the entries between the ranges are saved before the
    pass and put back after it. Each entry of a range is scaled, then added,
    as its own expression would do it, and no other entry moves."""
    w = a.value
    runs = tuple(runs)
    lo, hi = (runs[0][0], runs[-1][1]) if runs else (0, 0)
    gaps = _between(runs)
    between = w[gaps]
    total = float(np.dot(w[lo:hi], w[lo:hi])) - float(np.dot(between, between))

    def vjp(g):
        scale = 2.0 * float(g)

        def add_scaled(grad):
            saved = grad[gaps]
            scratch = np.empty(min(L2_BLOCK, hi - lo))
            for start in range(lo, hi, L2_BLOCK):
                stop = min(start + L2_BLOCK, hi)
                grad[start:stop] += np.multiply(w[start:stop], scale, out=scratch[:stop - start])
            grad[gaps] = saved

        return (add_scaled,)

    return Var(np.asarray(total), (a,), vjp)


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
    imaginary residue to discard (the tests check it against a naive O(d^2)
    sum and a complex-FFT oracle). The transforms are products with _real_dft's matrices, whose
    interleaved layout makes a GEMM's output rows complex spectra under
    .view(np.complex128): one GEMM of the pair's rows, read as they lie,
    gives A and B, conj(A) * B is one complex multiply, and one GEMM of its
    float64 view takes it back. Its VJP is Batched over the width d (see
    _circ_corr_kernel).
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
    return Var(((A.conj() * B).view(np.float64) @ Finv).reshape(shape[1:]), (pair,),
               batched(_circ_corr_kernel, d, (A, B, F, Finv, shape)))


def _circ_corr_kernel(saved, grads):
    """circ_corr's VJP over one node, or over a group of nodes of one width
    d, saved (A, B, F, Finv, pair shape) each: their gradient rows g,
    concatenated, go through one GEMM to G = rfft(g), and d/d pair[0] =
    irfft(conj(G) * B) and d/d pair[1] = irfft(G * A) through two complex
    multiplies and one GEMM of both products; each pair's (2, ..., d)
    contribution is a view of it."""
    if type(saved) is tuple:  # one node, as its own VJP
        (_, (A, B, F, Finv, shape)), g = saved, grads
    else:
        A, B, F, Finv, shape = joined(saved, (0, 0, None, None, None))
        g = np.concatenate([g.reshape(-1, shape[-1]) for g in grads])
    d = shape[-1]
    G = (g.reshape(-1, d) @ F).view(np.complex128)
    M = G.shape[0]
    both = np.empty((2 * M, G.shape[1]), np.complex128)
    np.multiply(G.conj(), B, out=both[:M])
    np.multiply(G, A, out=both[M:])
    R = both.view(np.float64) @ Finv
    if type(saved) is tuple:
        return (R.reshape(shape),)
    R = R.reshape(2, M, d)
    spans = row_spans([s[0].shape[0] for s in saved])
    return [(R[:, lo:hi].reshape(s[4]),) for s, (lo, hi) in zip(saved, spans)]


def joined(saved, axes) -> tuple:
    """The fields of a group's saved tuples, each concatenated along its axis
    in `axes` (None: a field the group shares, taken from the first node)."""
    return tuple(col[0] if axis is None else np.concatenate(col, axis=axis)
                 for col, axis in zip(zip(*saved), axes))


def row_spans(counts: list) -> list:
    """The [lo, hi) ranges of consecutive blocks of `counts` rows."""
    return list(itertools.pairwise(itertools.accumulate(counts, initial=0)))


def batched(kernel, key, saved) -> MethodType:
    """The VJP of a node of a Batched kind, one that runs for a group of
    nodes as one call: kernel bound to ((kernel, key), saved), the node's
    group and saved state. Called with the node's output gradient, it is
    the node's own VJP, the kernel over a group of one, and returns the
    node's contributions; backward's levelled replay calls kernel(saved,
    grads) with the lists of a group's saved states and output gradients,
    in group order, and gets the list of each node's contributions. Nodes
    whose group is equal may run as one. A parent that several nodes of the group share (a
    weight, or one input of several heads) may receive their summed
    contribution once, from one of them, and None from the others.

    A bound method, unlike an instance with a __call__ method, costs what a
    closure costs to make and to call (130 against 420 ns for a trivial
    kernel called from a Python loop, CPython 3.11 on a 2-core x86 host),
    and the kernel needs no adapter for a group of one: at batch 1, where
    every node runs alone, that is a share of the step. backward() takes a
    VJP that is a bound method for a Batched one; no other op makes one."""
    return MethodType(kernel, ((kernel, key), saved))


def _sorted(out: Var) -> list:
    """The op nodes reachable from out in a depth-first post-order, whose
    reverse is a topological sort."""
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
    return order


def _levelled(out: Var):
    """Yield each op node reachable from out with its contributions, level by
    level. A node's level is the highest among its op-node parents' (0 with
    none), plus one when its VJP is Batched, so a Batched node sits strictly
    above every node it reads. Levels run from the top; within one, the
    plain nodes run first, in reverse post-order, then each Batched group
    as one kernel call (a group of one as the node's own VJP). Every
    consumer of a node sits on a higher level or is a plain node of its own,
    so each node runs once all of its contributions have arrived."""
    order = _sorted(out)
    level: dict = {}  # op node -> its level; an input reads as level 0
    get = level.get
    for node in order:  # each node after its parents
        top = 0
        for parent in node._parents:
            lv = get(parent, 0)
            if lv > top:
                top = lv
        level[node] = top + 1 if type(node._vjp) is MethodType else top
    plain = [[] for _ in range(level[out] + 1)]
    groups = [{} for _ in plain]
    for node in reversed(order):
        vjp = node._vjp
        if type(vjp) is MethodType:
            groups[level[node]].setdefault(vjp.__self__[0], []).append(node)
        else:
            plain[level[node]].append(node)
    for nodes, by_group in zip(reversed(plain), reversed(groups)):
        for node in nodes:
            yield node, node._vjp(node.grad)
        for (kernel, _), group in by_group.items():
            if len(group) == 1:
                yield group[0], group[0]._vjp(group[0].grad)
            else:
                yield from zip(group, kernel([n._vjp.__self__[1] for n in group],
                                             [n.grad for n in group]))


def backward(out: Var, grouped: bool = True) -> None:
    """Accumulate d(out)/d(node) into .grad for every node reachable from out.

    Only op nodes (those with a VJP) are searched and replayed: a parent
    without one, a Leaf or a constant input, only receives contributions.

    Without grouped, the replay is a reverse topological sort of a
    depth-first search (_sorted), and each Batched node runs as its own
    group of one. grouped runs the same nodes by level (_levelled): each
    level from the top, its plain nodes first in the sort's order, then
    each of its Batched groups as one kernel call. batch_grads groups only
    a minibatch of several examples: with one, no group could span two
    examples, and the levels' bookkeeping (a dict lookup per edge, a list
    per level) costs more than the few calls it would merge (see ROADMAP
    item 3).

    An op node or constant input receives each contribution as it arrives,
    into a fresh or summed .grad, with factors multiplied out. A Leaf's are
    collected, and each Leaf's are added into its preallocated array once
    the replay ends: a single one as it is, several reduced (see the module
    docstring). None adds nothing.
    """
    if out.value.size != 1:
        raise ValueError("backward expects a scalar output")
    out.grad = np.ones_like(out.value)
    if out._vjp is None:
        return
    if grouped:
        runs = _levelled(out)
    else:
        runs = ((node, node._vjp(node.grad)) for node in reversed(_sorted(out)))
    pending: dict[Leaf, list] = {}
    for node, contribs in runs:
        for parent, contrib in zip(node._parents, contribs):
            if isinstance(parent, Leaf):
                if contrib is not None:
                    if parent in pending:
                        pending[parent].append(contrib)
                    else:
                        pending[parent] = [contrib]
                continue
            if contrib is not None:
                if not isinstance(contrib, np.ndarray):
                    if type(contrib) is tuple:
                        contrib = _product(*contrib)
                    elif type(contrib) is Scatter:
                        contrib = contrib.dense(parent.value.shape)
                parent.grad = contrib if parent.grad is None else parent.grad + contrib
    for leaf, contribs in pending.items():
        if len(contribs) == 1:
            _apply(leaf.grad, contribs[0])
        else:
            _reduce_into(leaf.grad, contribs)
