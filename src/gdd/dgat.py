"""Global encoder: dual-level attention over the aspect-word graph.

Each layer runs two families of heads over the aspect's star graph. A
dual-level head first scores edges against the aspect (target-edge), then
reuses those weights inside the node scores (target-node), and aggregates
neighbors through circular correlation of projected node and edge features.
A relational head scores neighbors purely from edge embeddings via a small
MLP. The layer output concatenates all heads; edges are reprojected between
layers while context-word features stay at their layer-0 values.

Every function here builds tape nodes (`autodiff.Var`). A dual head's own
work is two nodes: its node and edge projections as one stacked pair, and
their row-wise circular correlation. The attention of a layer's U dual
heads is one node, with a hand-derived VJP over the plain-array kernels
`_edge_weights` and `_node_weights`, and so are its V relational heads.
Each family's weights come stacked over its heads (`DgatLayerParams.Wa`,
`RelHeads`; the model passes strided views of its flat buffers), so each
step is one matmul or ufunc call for all of them. A layer returns its heads'
attention weights as computed; an empty graph gives a zero vector and [].

The pair, the dual attention and the relational attention have Batched
VJPs (see autodiff): kernels that run a whole minibatch's nodes of one
kind as one call over their concatenated rows, each node an example with
its own m_i >= 1 graph words (an empty graph builds no such node). Their
softmax VJPs sum over each node's rows with np.add.reduceat (PyG's
scatter_softmax, Fey & Lenssen 2019; see _Segments), and the weights'
gradients go out once per group, as factors over all of its rows.

The paper's relational scoring MLP ends in an output bias b2, one scalar
per head added to every logit of that head's softmax. softmax(z + b2)
equals softmax(z) in exact arithmetic, so b2 changes no output and its
true gradient is zero. The model still stores it (param_layout, the GDD1
checkpoint bytes), as it stores the last layer's unread Wr, but no head
reads it: it is not a field of `RelHeads`, so its gradient is exactly 0
rather than rounding noise, and a finite difference over it is exactly 0
too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Var, as_var
from .numeric import Tensor, _softmax


@dataclass
class DualHeadParams:
    We: Tensor  # edge projection, d_edge x d_head
    Wi: Tensor  # node projection, d_model x d_head


@dataclass
class RelHeads:
    """The V relational heads of one layer, each field stacked over the heads
    (leading axis V)."""
    Wv: Tensor  # value projections, V x d_model x d_head
    W1: Tensor  # edge-scoring MLP, V x d_edge x d_head
    b1: Tensor  # V x d_head
    W2: Tensor  # V x d_head x 1

    @property
    def count(self) -> int:
        return self.Wv.shape[0]


@dataclass
class DgatLayerParams:
    dual: list[DualHeadParams]
    Wa: Tensor | None  # the dual heads' aspect projections, U x a_width x d_head
    rel: RelHeads | None  # None when the layer has no relational head
    Wr: Tensor  # relation update, d_edge x d_edge_out

    @property
    def num_heads(self) -> int:
        return len(self.dual) + (self.rel.count if self.rel is not None else 0)


def _scaled(logits: Tensor, d_head: int, scale: bool) -> Tensor:
    return logits * (1.0 / math.sqrt(d_head)) if scale else logits


def _edge_weights(logits: Tensor, d_head: int, scale: bool) -> Tensor:
    """Target-edge weights beta: softmax over the logits <Wa h_a, We e_i>."""
    return _softmax(_scaled(logits, d_head, scale))


def _node_weights(dots: Tensor, beta: Tensor, d_head: int, scale: bool) -> Tensor:
    """Target-node weights omega: softmax of beta_i * dots_i, the dots being
    <Wa h_a, Wi h_i>.

    beta multiplies the logit, it never masks: a zero beta_i leaves logit 0,
    which still receives softmax mass.
    """
    return _softmax(_scaled(beta * dots, d_head, scale))


class _Segments:
    """Consecutive segments of `counts` rows, one per node of a group of
    several, along the row axis M = sum(counts) of per-head arrays (axis 1
    of a (heads, M, ...) array), reduced with np.add.reduceat and spread
    with np.repeat at offsets kept in a Python list. Every count must be at
    least 1: reduceat gives an empty segment the next entry, not 0. One
    node, run as its own VJP, has no segments: its kernel takes the plain
    sum, broadcast or matmul in each place instead."""

    def __init__(self, counts):
        assert min(counts) > 0, "an empty segment"
        self.counts = counts
        self.starts = list(itertools.accumulate(counts[:-1], initial=0))

    def sums(self, x):
        """(heads, M) -> (heads, M): each entry's segment sum, on each of the
        segment's rows."""
        return np.repeat(np.add.reduceat(x, self.starts, axis=1), self.counts, axis=1)

    def rows(self, y):
        """(heads, N, ...) -> (heads, M, ...): each node's entry on each of
        its segment's rows."""
        return np.repeat(y, self.counts, axis=1)

    def weighted(self, w, X):
        """(heads, k, M), (heads, k, M, d) -> (heads, N, d): per segment, the
        sum over its rows and the k halves of w-weighted rows of X."""
        return np.add.reduceat((w[..., None] * X).sum(axis=1), self.starts, axis=1)


def _softmax_vjp(dp, p, seg):
    """The gradient of the logits of the row softmaxes p (heads x rows)
    given dp, the gradient of p: (dp - rowsum(dp * p)) * p, each row sum
    over the whole row for one node (seg None), else over its segment."""
    dot = dp * p
    return (dp - (dot.sum(axis=1, keepdims=True) if seg is None else seg.sums(dot))) * p


def _gathered(saved, axes):
    """A Batched kernel's segments and saved fields: for one node, as its
    own VJP, None and its fields as they are (every node at batch 1); for
    a group, its _Segments and its nodes' fields joined along `axes` (see
    autodiff.joined)."""
    if type(saved) is tuple:  # ((kernel, key), the node's saved state)
        return None, saved[1]
    return _Segments([s[0].shape[1] for s in saved]), ad.joined(saved, axes)


def dual_head_var(H_N: Var, E: Var, p: DualHeadParams):
    """One dual-level head's projections and their composition, two nodes.

    The first is the pair [H_N Wi; E We], stacked as (2, m, d_head), with a
    Batched VJP over all pairs of its widths (_pair_kernel); the second is
    ad.circ_corr(pair), whose row i is corr(Wi h_i, We e_i). Returns (pair,
    composed); dual_attention_var weighs them for all of a layer's heads.
    """
    Wi, We = as_var(p.Wi), as_var(p.We)
    Hv, Ev, wi, we = H_N.value, E.value, Wi.value, We.value
    value = np.empty((2, Hv.shape[0], wi.shape[1]))
    np.matmul(Hv, wi, out=value[0])
    np.matmul(Ev, we, out=value[1])
    parents = (H_N, E, Wi, We)
    pair = Var(value, parents, ad.batched(_pair_kernel, wi.shape + we.shape, parents))
    return pair, ad.circ_corr(pair)


def _pair_kernel(saved, grads):
    """The pair VJP of one dual head's node, or of a group of them, saved as
    their parents (H_N, E, Wi, We).

    The heads that read one (H_N, E), one example's layer, sum their
    gradients to it, g[0] Wi^T and g[1] We^T, into one array each, which
    goes out once, as its first head's contribution. Inputs whose heads
    read the same weights in the same order (one layer's, across examples)
    share each head's GEMMs over all of their rows, and each head's Wi and
    We get their gradients once, as the factors (H_N^T, g[0]) and (E^T,
    g[1]) over those rows (see autodiff).
    """
    if type(saved) is tuple:  # one node, as its own VJP: its rows as they lie
        (_, (H_N, E, Wi, We)), g = saved, grads
        return g[0] @ Wi.value.T, g[1] @ We.value.T, (H_N.value.T, g[0]), (E.value.T, g[1])
    inputs: dict = {}  # (H_N, E) -> its heads' positions in the group, in arrival order
    for i, s in enumerate(saved):
        if s[:2] in inputs:
            inputs[s[:2]].append(i)
        else:
            inputs[s[:2]] = [i]
    layers: dict = {}  # the heads' (Wi, We), in order -> their inputs' head positions
    for heads in inputs.values():
        weights = tuple(saved[i][2:] for i in heads)
        if weights in layers:
            layers[weights].append(heads)
        else:
            layers[weights] = [heads]
    out = [[None] * 4 for _ in saved]
    for weights, members in layers.items():
        firsts = [saved[heads[0]] for heads in members]
        H = np.concatenate([s[0].value for s in firsts]).T
        E = np.concatenate([s[1].value for s in firsts]).T
        for u, (Wi, We) in enumerate(weights):
            g = np.concatenate([grads[heads[u]] for heads in members], axis=1)  # 2 x rows x d_head
            if u == 0:
                dH, dE = g[0] @ Wi.value.T, g[1] @ We.value.T
            else:
                dH += g[0] @ Wi.value.T
                dE += g[1] @ We.value.T
            out[members[0][u]][2:] = (H, g[0]), (E, g[1])
        spans = ad.row_spans([s[0].value.shape[0] for s in firsts])
        for heads, (lo, hi) in zip(members, spans):
            out[heads[0]][:2] = dH[lo:hi], dE[lo:hi]
    return out


def dual_attention_var(h_a: Var, Wa, pairs, composeds, scale: bool = False):
    """The attention of a layer's U dual-level heads as one tape node.

    Wa stacks the heads' aspect projections, so a = h_a Wa is U x d_head.
    One batched matmul of the stacked pairs (U x 2m x d_head, see
    dual_head_var) with a gives each head's node logits <a_u, Wi h_i> and
    edge logits <a_u, We e_i>; beta is the softmax of the edge logits
    (target-edge), omega that of beta times the node logits (target-node),
    and head u outputs the omega_u-weighted sum of its composed rows.
    Returns (the heads' outputs side by side, Var[U * d_head]; beta, omega,
    arrays U x m). Its VJP is Batched over the layer's Wa and scale
    (_dual_attention_kernel).
    """
    Wa = as_var(Wa)
    h, W = h_a.value, Wa.value
    U, _, d = W.shape
    m = composeds[0].value.shape[0]
    P = np.concatenate([p.value for p in pairs]).reshape(U, 2 * m, d)
    C = np.concatenate([c.value for c in composeds]).reshape(U, m, d)
    a = np.matmul(h, W)  # U x d
    logits = np.matmul(P, a[:, :, None])[:, :, 0]  # U x 2m: node logits, then edge logits
    dots = logits[:, :m]
    beta = _edge_weights(logits[:, m:], d, scale)
    omega = _node_weights(dots, beta, d, scale)
    c = 1.0 / math.sqrt(d) if scale else 1.0
    out = np.matmul(omega[:, None, :], C).reshape(U * d)
    saved = (omega, beta, dots, P.reshape(U, 2, m, d), C, h[:, None], a[:, None], W, c)
    return (Var(out, (h_a, Wa, *pairs, *composeds),
                ad.batched(_dual_attention_kernel, (Wa, scale), saved)), beta, omega)


def _dual_attention_kernel(saved, grads):
    """dual_attention_var's VJP over one node, or over a group of its nodes,
    each with its own m_i rows, concatenated per head (the softmaxes' row
    sums taken per node, see _softmax_vjp).

    It runs back through both softmaxes by hand to the logits, d_logits =
    [d_dots; d_edge]; then d/d pair_u = d_logits_u a_u^T, d_a_u = pair_u^T
    d_logits_u, d/d h_a = sum_u Wa_u d_a_u and d/d composed_u = omega_u
    g_u^T. The Wa stack's gradient, the sum over nodes of the outer products
    h_a d_a_u^T, goes out once as the factors (the h_a as columns, d_a) for
    all heads and nodes.
    """
    # P: U x 2 x M x d, node rows then edge rows; h: a_width x N; a, g: U x N x d
    seg, (omega, beta, dots, P, C, h, a, W, c) = _gathered(saved, (1, 1, 1, 2, 1, 1, 1, None, None))
    U, _, d = W.shape
    one = seg is None
    g = grads.reshape(U, 1, d) if one else np.concatenate(grads).reshape(-1, U, d).transpose(1, 0, 2)
    d_omega = np.matmul(C, g.transpose(0, 2, 1))[:, :, 0] if one else (C * seg.rows(g)).sum(axis=2)
    d_node = _softmax_vjp(d_omega, omega, seg) * c
    d_beta = d_node * dots
    d_logits = np.empty((U, 2) + omega.shape[1:])
    np.multiply(d_node, beta, out=d_logits[:, 0])  # d/d dots
    d_logits[:, 1] = _softmax_vjp(d_beta, beta, seg) * c
    d_a = (np.matmul(d_logits.reshape(U, 1, -1), P.reshape(U, -1, d)) if one
           else seg.weighted(d_logits, P))  # U x N x d
    d_pairs = d_logits[..., None] * (a if one else seg.rows(a))[:, None]
    d_composed = omega[:, :, None] * (g if one else seg.rows(g))
    d_h = np.matmul(W, d_a.transpose(0, 2, 1)).sum(axis=0)  # a_width x N
    if one:
        return (d_h[:, 0], (h, d_a), *d_pairs, *d_composed)
    spans = ad.row_spans(seg.counts)
    lo, hi = spans[0]
    return [(d_h[:, 0], (h, d_a), *d_pairs[:, :, lo:hi], *d_composed[:, lo:hi]),
            *((d_h[:, i], None, *d_pairs[:, :, lo:hi], *d_composed[:, lo:hi])
              for i, (lo, hi) in enumerate(spans[1:], 1))]


def relational_head_var(H_N: Var, E: Var, heads: RelHeads):
    """All V relational heads of a layer as one tape node.

    Head v scores its neighbors from the edges alone, rho_v = softmax(relu(E
    W1_v + b1_v) W2_v), and returns the rho_v-weighted sum of its value rows
    H_N Wv_v. (The paper's MLP also adds a bias b2_v to every logit; it
    is not read, see the module docstring.) Every step runs for all heads
    at once, as a matmul over the stacked weights. Returns (the heads'
    outputs side by side, Var[V * d_head]; rho, array[V, m]). Its VJP is
    Batched over the layer's stacks (_relational_kernel).
    """
    fields = tuple(as_var(w) for w in (heads.Wv, heads.W1, heads.b1, heads.W2))
    Wv, W1, b1, W2 = (w.value for w in fields)
    Ev, Hv = E.value, H_N.value
    V, d_head = b1.shape
    pre = np.matmul(Ev, W1) + b1[:, None, :]  # V x m x d_head
    hidden = np.maximum(pre, 0.0)
    rho = _softmax(np.matmul(hidden, W2)[:, :, 0])  # V x m
    values = np.matmul(Hv, Wv)  # V x m x d_head
    out = np.matmul(rho[:, None, :], values).reshape(V * d_head)
    saved = (rho, values, pre, hidden, Hv, Ev, Wv, W1, W2)
    return Var(out, (H_N, E, *fields), ad.batched(_relational_kernel, fields, saved)), rho


def _relational_kernel(saved, grads):
    """relational_head_var's VJP over one node, or over a group of its
    nodes, each with its own m_i rows, concatenated per head (the softmax's
    row sums taken per node, see _softmax_vjp).

    It goes by hand through each softmax and relu MLP to E and the MLP
    weights, and through the values (d/d values_v = rho_v g_v^T) to H_N and
    Wv. E and H_N sum their heads' terms. The Wv, W1 and W2 stacks get their
    gradients as head-batched factors over all nodes' rows, handed out
    once: (H_N^T, d_values) and (E^T, d_pre) over one shared X,
    (hidden_v^T, d_logits_v) per head.
    """
    seg, (rho, values, pre, hidden, Hv, Ev, Wv, W1, W2) = _gathered(
        saved, (1, 1, 1, 1, 0, 0, None, None, None))
    V, _, d = Wv.shape
    one = seg is None
    g = grads.reshape(V, 1, d) if one else np.concatenate(grads).reshape(-1, V, d).transpose(1, 0, 2)
    d_rho = np.matmul(values, g.transpose(0, 2, 1))[:, :, 0] if one else (values * seg.rows(g)).sum(axis=2)
    d_logits = _softmax_vjp(d_rho, rho, seg)
    d_pre = d_logits[:, :, None] * W2.transpose(0, 2, 1) * (pre > 0.0)
    d_values = rho[:, :, None] * (g if one else seg.rows(g))
    dH = np.matmul(d_values, Wv.transpose(0, 2, 1)).sum(axis=0)
    dE = np.matmul(d_pre, W1.transpose(0, 2, 1)).sum(axis=0)
    weights = ((Hv.T, d_values), (Ev.T, d_pre), d_pre.sum(axis=1),
               (hidden.transpose(0, 2, 1), d_logits[:, :, None]))
    if one:
        return (dH, dE, *weights)
    spans = ad.row_spans(seg.counts)
    lo, hi = spans[0]
    return [(dH[lo:hi], dE[lo:hi], *weights),
            *((dH[lo:hi], dE[lo:hi], None, None, None, None) for lo, hi in spans[1:])]


def relation_update_var(E: Var, Wr) -> Var:
    """Project edge embeddings into the next layer's edge space."""
    return ad.matmul(E, as_var(Wr))


def dgat_layer_var(h_a: Var, H_N: Var, E: Var, params: DgatLayerParams,
                   d_head: int, scale: bool = False):
    """One layer's heads: (concat(U dual heads, V relational heads), beta,
    omega, rho), the weights as dual_attention_var (U x m) and
    relational_head_var (V x m) return them, [] for a family with no heads.

    An empty graph (m == 0) yields a zero vector of the layer width and []
    for all three weights. The layer's relation update is not run here:
    global_forward_var runs it only between layers.
    """
    if H_N.value.shape[0] == 0:
        return Var(np.zeros(params.num_heads * d_head)), [], [], []
    outs, beta, omega, rho = [], [], [], []
    if params.dual:
        pairs, composeds = zip(*(dual_head_var(H_N, E, hp) for hp in params.dual))
        out, beta, omega = dual_attention_var(h_a, params.Wa, pairs, composeds, scale)
        outs.append(out)
    if params.rel is not None:
        out, rho = relational_head_var(H_N, E, params.rel)
        outs.append(out)
    return ad.concat(outs), beta, omega, rho


def global_forward_var(h_a: Var, H_N: Var, E: Var, layers: list[DgatLayerParams],
                       d_head: int, scale: bool = False, dropout: float = 0.0,
                       rng=None):
    """Stack of layers; aspect and edge representations evolve, nodes do not.

    Each layer but the last updates the edges for the next one; nothing
    reads the last layer's edges, so its Wr is never used (nor is any Wr
    over an empty graph). Dropout (training only; pass an Rng) hits the
    concatenated aspect vector after each layer. Returns (h_a_final Var,
    trace): under "beta", "omega" and "rho" a list of each layer's weights,
    as dgat_layer_var returns them, and "empty": m == 0.
    """
    trace = {"beta": [], "omega": [], "rho": [], "empty": H_N.value.shape[0] == 0}
    for i, layer in enumerate(layers):
        h_a, *weights = dgat_layer_var(h_a, H_N, E, layer, d_head, scale)
        if dropout > 0.0 and rng is not None:
            keep = (rng.uniform(h_a.value.shape) >= dropout) / (1.0 - dropout)
            h_a = ad.mul(h_a, keep)
        for key, w in zip(("beta", "omega", "rho"), weights):
            trace[key].append(w)
        if i + 1 < len(layers) and not trace["empty"]:
            E = relation_update_var(E, layer.Wr)
    return h_a, trace
