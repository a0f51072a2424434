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
step is one matmul or ufunc call for all of them. A layer over an empty
graph returns a zero vector and flags it in its trace.

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


def dual_head_var(H_N: Var, E: Var, p: DualHeadParams):
    """One dual-level head's projections and their composition, two nodes.

    The first is the pair [H_N Wi; E We], stacked as (2, m, d_head), whose
    VJP does the two GEMMs to H_N and E and hands Wi and We their gradients
    as factors, (H_N^T, g[0]) and (E^T, g[1]) (see autodiff); the second is
    ad.circ_corr(pair), whose row i is corr(Wi h_i, We e_i). Returns (pair,
    composed); dual_attention_var weighs them for all of a layer's heads.
    """
    Wi, We = as_var(p.Wi), as_var(p.We)
    Hv, Ev, wi, we = H_N.value, E.value, Wi.value, We.value
    value = np.empty((2, Hv.shape[0], wi.shape[1]))
    np.matmul(Hv, wi, out=value[0])
    np.matmul(Ev, we, out=value[1])

    def vjp(g):
        return g[0] @ wi.T, g[1] @ we.T, (Hv.T, g[0]), (Ev.T, g[1])

    pair = Var(value, (H_N, E, Wi, We), vjp)
    return pair, ad.circ_corr(pair)


def dual_attention_var(h_a: Var, Wa, pairs, composeds, scale: bool = False):
    """The attention of a layer's U dual-level heads as one tape node.

    Wa stacks the heads' aspect projections, so a = h_a Wa is U x d_head.
    One batched matmul of the stacked pairs (U x 2m x d_head, see
    dual_head_var) with a gives each head's node logits <a_u, Wi h_i> and
    edge logits <a_u, We e_i>; beta is the softmax of the edge logits
    (target-edge), omega that of beta times the node logits (target-node),
    and head u outputs the omega_u-weighted sum of its composed rows.
    Returns (the heads' outputs side by side, Var[U * d_head]; beta, omega,
    arrays U x m). The VJP runs back through both softmaxes by hand to
    d_logits; then d/d pair_u = d_logits_u a_u^T, d_a_u = pair_u^T d_logits_u,
    d/d h_a = sum_u Wa_u d_a_u and d/d composed_u = omega_u g_u^T. The Wa
    stack's gradient, the outer products h_a d_a_u^T, goes out as the
    factors (h_a as a column, d_a) for all heads at once.
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

    def vjp(g):
        g = g.reshape(U, d)
        d_omega = np.matmul(C, g[:, :, None])[:, :, 0]
        d_node = (d_omega - (d_omega * omega).sum(axis=1, keepdims=True)) * omega * c
        d_beta = d_node * dots
        d_logits = np.empty((U, 2 * m))
        np.multiply(d_node, beta, out=d_logits[:, :m])  # d/d dots
        d_logits[:, m:] = (d_beta - (d_beta * beta).sum(axis=1, keepdims=True)) * beta * c
        d_a = np.matmul(d_logits[:, None, :], P)[:, 0, :]
        d_pairs = (d_logits[:, :, None] * a[:, None, :]).reshape(U, 2, m, d)
        return (np.matmul(W, d_a[:, :, None])[:, :, 0].sum(axis=0),
                (h[:, None], d_a[:, None, :]), *d_pairs,
                *(omega[:, :, None] * g[:, None, :]))

    out = np.matmul(omega[:, None, :], C).reshape(U * d)
    return Var(out, (h_a, Wa, *pairs, *composeds), vjp), beta, omega


def relational_head_var(H_N: Var, E: Var, heads: RelHeads):
    """All V relational heads of a layer as one tape node.

    Head v scores its neighbors from the edges alone, rho_v = softmax(relu(E
    W1_v + b1_v) W2_v), and returns the rho_v-weighted sum of its value rows
    H_N Wv_v. (The paper's MLP also adds a bias b2_v to every logit; it
    is not read, see the module docstring.) Every step runs for all heads
    at once, as a matmul over the stacked weights. Returns (the heads'
    outputs side by side, Var[V * d_head]; rho, array[V, m]).

    The VJP goes by hand through each softmax and relu MLP to E and the
    MLP weights, and through the values (d/d values_v = rho_v g_v^T) to H_N
    and Wv. E and H_N sum their heads' terms. The Wv, W1 and W2 stacks get
    their gradients as head-batched factors: (H_N^T, d_values) and (E^T,
    d_pre) over one shared X, (hidden_v^T, d_logits_v) per head.
    """
    fields = tuple(as_var(w) for w in (heads.Wv, heads.W1, heads.b1, heads.W2))
    Wv, W1, b1, W2 = (w.value for w in fields)
    Ev, Hv = E.value, H_N.value
    V, d_head = b1.shape
    pre = np.matmul(Ev, W1) + b1[:, None, :]  # V x m x d_head
    hidden = np.maximum(pre, 0.0)
    rho = _softmax(np.matmul(hidden, W2)[:, :, 0])  # V x m
    values = np.matmul(Hv, Wv)  # V x m x d_head

    def vjp(g):
        g = g.reshape(V, 1, d_head)
        d_rho = np.matmul(values, g.transpose(0, 2, 1))[:, :, 0]
        d_logits = (d_rho - (d_rho * rho).sum(axis=1, keepdims=True)) * rho
        d_pre = d_logits[:, :, None] * W2.transpose(0, 2, 1) * (pre > 0.0)
        d_values = rho[:, :, None] * g
        return (np.matmul(d_values, Wv.transpose(0, 2, 1)).sum(axis=0),
                np.matmul(d_pre, W1.transpose(0, 2, 1)).sum(axis=0),
                (Hv.T, d_values), (Ev.T, d_pre), d_pre.sum(axis=1),
                (hidden.transpose(0, 2, 1), d_logits[:, :, None]))

    out = np.matmul(rho[:, None, :], values).reshape(V * d_head)
    return Var(out, (H_N, E, *fields), vjp), rho


def relation_update_var(E: Var, Wr) -> Var:
    """Project edge embeddings into the next layer's edge space."""
    return ad.matmul(E, as_var(Wr))


def dgat_layer_var(h_a: Var, H_N: Var, E: Var, params: DgatLayerParams,
                   d_head: int, scale: bool = False):
    """One layer's heads: (concat(U dual heads, V relational heads), trace).

    The trace holds each head's attention weights as arrays (one rho per
    relational head, rows of the family node's rho). An empty graph
    (m == 0) yields a zero vector of the layer width and a trace flag
    instead of attention coefficients. The layer's relation update is not
    run here: global_forward_var runs it only between layers.
    """
    m = H_N.value.shape[0]
    width = params.num_heads * d_head
    trace = {"beta": [], "omega": [], "rho": [], "empty": m == 0}
    if m == 0:
        return Var(np.zeros(width)), trace
    outs = []
    if params.dual:
        pairs, composeds = zip(*(dual_head_var(H_N, E, hp) for hp in params.dual))
        out, beta, omega = dual_attention_var(h_a, params.Wa, pairs, composeds, scale)
        outs.append(out)
        trace["beta"].extend(beta)
        trace["omega"].extend(omega)
    if params.rel is not None:
        out, rho = relational_head_var(H_N, E, params.rel)
        outs.append(out)
        trace["rho"].extend(rho)
    return ad.concat(outs), trace


def global_forward_var(h_a: Var, H_N: Var, E: Var, layers: list[DgatLayerParams],
                       d_head: int, scale: bool = False, dropout: float = 0.0,
                       rng=None):
    """Stack of layers; aspect and edge representations evolve, nodes do not.

    Each layer but the last updates the edges for the next one; nothing
    reads the last layer's edges, so its Wr is never used (nor is any Wr
    over an empty graph). Dropout (training only; pass an Rng) hits the
    concatenated aspect vector after each layer. Returns (h_a_final Var,
    list of per-layer traces).
    """
    traces = []
    for i, layer in enumerate(layers):
        h_a, trace = dgat_layer_var(h_a, H_N, E, layer, d_head, scale)
        if dropout > 0.0 and rng is not None:
            keep = (rng.uniform(h_a.value.shape) >= dropout) / (1.0 - dropout)
            h_a = ad.mul(h_a, keep)
        traces.append(trace)
        if i + 1 < len(layers) and not trace["empty"]:
            E = relation_update_var(E, layer.Wr)
    return h_a, traces
