"""Global encoder: dual-level attention over the aspect-word graph.

Each layer runs two families of heads over the aspect's star graph. A
dual-level head first scores edges against the aspect (target-edge), then
reuses those weights inside the node scores (target-node), and aggregates
neighbors through circular correlation of projected node and edge features.
A relational head scores neighbors purely from edge embeddings via a small
MLP. The layer output concatenates all heads; edges are reprojected between
layers while context-word features stay at their layer-0 values.

Every function here builds tape nodes (`autodiff.Var`). A dual head's
attention, with the aspect projection only that head reads, is one node
with a hand-derived VJP over the plain-array kernels `_edge_weights` and
`_node_weights`. A layer's V relational heads are one node together: their
weights come stacked over the heads (`RelHeads`; the model passes strided
views of its flat buffers), so each step is one matmul or ufunc call for
all of them. A layer over an empty graph returns a zero vector and flags
it in its trace.

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
    Wa: Tensor  # aspect projection, a_width x d_head
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
    rel: RelHeads | None  # None when the layer has no relational head
    Wr: Tensor  # relation update, d_edge x d_edge_out

    @property
    def num_heads(self) -> int:
        return len(self.dual) + (self.rel.count if self.rel is not None else 0)


def _scaled(logits: Tensor, d_head: int, scale: bool) -> Tensor:
    return logits * (1.0 / math.sqrt(d_head)) if scale else logits


def _edge_weights(a_proj: Tensor, e_proj: Tensor, scale: bool) -> Tensor:
    """Target-edge weights beta: softmax over <Wa h_a, We e_i>."""
    return _softmax(_scaled(e_proj @ a_proj, a_proj.shape[0], scale))


def _node_weights(a_proj: Tensor, n_proj: Tensor, beta: Tensor, scale: bool):
    """Target-node weights omega: softmax of beta_i * <Wa h_a, Wi h_i>.

    beta multiplies the logit, it never masks: a zero beta_i leaves logit 0,
    which still receives softmax mass. Returns (<Wa h_a, Wi h_i>, omega).
    """
    dots = n_proj @ a_proj
    return dots, _softmax(_scaled(beta * dots, a_proj.shape[0], scale))


def dual_attention_var(h_a: Var, Wa: Var, e_proj: Var, n_proj: Var, composed: Var,
                       scale: bool = False):
    """The attention of a dual-level head as one tape node: the aspect
    projection a = h_a Wa, beta from the edges, omega from the nodes and
    beta, and the omega-weighted sum of the composed rows. Returns
    (output Var[d_head], beta, omega); the weights are plain arrays.

    The VJP runs the chain rule back through both softmaxes by hand:
    d/d composed = omega g^T; d/d a collects both logits' terms, and
    d/d h_a = Wa d_a, d/d Wa = h_a d_a^T.
    """
    h, W, Ep, Np, C = h_a.value, Wa.value, e_proj.value, n_proj.value, composed.value
    a = h @ W
    c = 1.0 / math.sqrt(a.shape[0]) if scale else 1.0
    beta = _edge_weights(a, Ep, scale)
    dots, omega = _node_weights(a, Np, beta, scale)

    def vjp(g):
        d_omega = C @ g
        d_node = (d_omega - np.dot(d_omega, omega)) * omega * c  # d/d (beta * dots)
        d_beta = d_node * dots
        d_dots = d_node * beta
        d_edge = (d_beta - np.dot(d_beta, beta)) * beta * c  # d/d (Ep @ a)
        d_a = Ep.T @ d_edge + Np.T @ d_dots
        return (W @ d_a, h[:, None] * d_a, d_edge[:, None] * a, d_dots[:, None] * a,
                omega[:, None] * g)

    out = Var(omega @ C, (h_a, Wa, e_proj, n_proj, composed), vjp)
    return out, beta, omega


def dual_head_var(h_a: Var, H_N: Var, E: Var, p: DualHeadParams,
                  scale: bool = False):
    """One dual-level head: omega-weighted sum of corr(Wi h_i, We e_i) rows.

    Four tape nodes: the edge and node projections, each computed once,
    their row-wise circular correlation, and `dual_attention_var`, which
    also projects the aspect.
    Returns (head output Var[d_head], beta array[m], omega array[m]).
    """
    e_proj = ad.matmul(E, p.We)
    n_proj = ad.matmul(H_N, p.Wi)
    composed = ad.circ_corr(n_proj, e_proj)  # m x d_head, row-wise
    return dual_attention_var(as_var(h_a), as_var(p.Wa), e_proj, n_proj, composed, scale)


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
    and Wv. E and H_N sum their heads' terms.
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
                np.matmul(Hv.T, d_values), np.matmul(Ev.T, d_pre), d_pre.sum(axis=1),
                np.matmul(hidden.transpose(0, 2, 1), d_logits[:, :, None]))

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
    for hp in params.dual:
        out, beta, omega = dual_head_var(h_a, H_N, E, hp, scale)
        outs.append(out)
        trace["beta"].append(beta)
        trace["omega"].append(omega)
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
