"""Global encoder: dual-level attention over the aspect-word graph.

Each layer runs two families of heads over the aspect's star graph. A
dual-level head first scores edges against the aspect (target-edge), then
reuses those weights inside the node scores (target-node), and aggregates
neighbors through circular correlation of projected node and edge features.
A relational head scores neighbors purely from edge embeddings via a small
MLP. The layer output concatenates all heads; edges are reprojected between
layers while context-word features stay at their layer-0 values.

Every function here builds tape nodes (`autodiff.Var`); each head's
attention, with the projection only that head reads (the aspect's in a
dual head, the values' in a relational head), is one node with a
hand-derived VJP over the plain-array kernels `_edge_weights` and
`_node_weights`. A layer over an empty graph returns a zero vector and
flags it in its trace.
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
class RelHeadParams:
    Wv: Tensor  # value projection, d_model x d_head
    W1: Tensor  # edge-scoring MLP, d_edge x d_head
    b1: Tensor
    W2: Tensor  # d_head x 1
    b2: Tensor  # 1


@dataclass
class DgatLayerParams:
    dual: list[DualHeadParams]
    rel: list[RelHeadParams]
    Wr: Tensor  # relation update, d_edge x d_edge_out

    @property
    def num_heads(self) -> int:
        return len(self.dual) + len(self.rel)


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


def relational_attention_var(E: Var, W1: Var, b1: Var, W2: Var, b2: Var,
                             H_N: Var, Wv: Var):
    """A relational head as one tape node: rho = softmax(relu(E W1 + b1) W2
    + b2) and the rho-weighted sum of the value rows H_N Wv. Returns
    (output Var[d_head], rho array[m]).

    The VJP goes by hand through the softmax and the relu MLP to E and the
    four MLP tensors, and through the values (d/d values = rho g^T) to H_N
    and Wv.
    """
    Ev, W1v, W2v, Hv, Wvv = E.value, W1.value, W2.value, H_N.value, Wv.value
    pre = Ev @ W1v + b1.value
    hidden = np.maximum(pre, 0.0)
    rho = _softmax((hidden @ W2v).reshape(-1) + b2.value)
    V = Hv @ Wvv

    def vjp(g):
        d_rho = V @ g
        d_logits = (d_rho - np.dot(d_rho, rho)) * rho
        d_pre = d_logits[:, None] * W2v[:, 0] * (pre > 0.0)
        d_values = rho[:, None] * g
        return (d_pre @ W1v.T, Ev.T @ d_pre, d_pre.sum(axis=0),
                hidden.T @ d_logits[:, None], d_logits.sum(keepdims=True),
                d_values @ Wvv.T, Hv.T @ d_values)

    return Var(rho @ V, (E, W1, b1, W2, b2, H_N, Wv), vjp), rho


def relational_head_var(H_N: Var, E: Var, p: RelHeadParams):
    """One relational head: neighbor weights from an edge-only MLP.

    rho_i = softmax(relu(e_i W1 + b1) W2 + b2); output = sum_i rho_i (Wv h_i).
    One tape node, `relational_attention_var`, which also projects the values.
    Returns (head output Var[d_head], rho array[m]).
    """
    return relational_attention_var(as_var(E), as_var(p.W1), as_var(p.b1), as_var(p.W2),
                                    as_var(p.b2), as_var(H_N), as_var(p.Wv))


def relation_update_var(E: Var, Wr) -> Var:
    """Project edge embeddings into the next layer's edge space."""
    return ad.matmul(E, as_var(Wr))


def dgat_layer_var(h_a: Var, H_N: Var, E: Var, params: DgatLayerParams,
                   d_head: int, scale: bool = False):
    """One layer's heads: (concat(U dual heads, V relational heads), trace).

    The trace holds each head's attention weights as arrays. An empty graph
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
    for rp in params.rel:
        out, rho = relational_head_var(H_N, E, rp)
        outs.append(out)
        trace["rho"].append(rho)
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
