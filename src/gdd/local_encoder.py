"""Local feature extraction around an aspect span.

A small MLP reads the pooled sentence representation and emits the standard
deviation of a zero-mean Gaussian; sampling its density at equal intervals
away from the aspect yields a multiplicative mask that shrinks far-away
tokens. The masked representation then goes through self-attention whose
queries are mean-centered first ("covariance" attention; the paper centers
the keys too, a per-row score shift that the softmax cancels, so not here),
which spreads the score distribution; the plain variant is for ablations.

The encoder runs on the tape: `gaussian_mask_var` (sigma, mask and the
masked rows, over the plain-array kernels `_mask_width` and
`_gaussian_mask`) and `attention_var` (all heads) are one tape node each
with a hand-derived VJP, and `local_forward_var` chains them and averages
the aspect rows in a third node.

The module also hosts a numerical diagnostic for the claim motivating the
centering: the score-contrast objective O(theta, phi) is stationary exactly
at the sample means of Q and K. That check never touches the training path.
Each computation here has one implementation; the elementary references the
tests compare against (the scalar Gaussian density, the quadruple-sum form of
O) live in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Var, as_var
from .numeric import Rng, Tensor, _softmax, as_tensor, finite_diff_grad

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _mask_width(H: Tensor, W1: Tensor, b1: Tensor, W2: Tensor, b2: Tensor):
    """softplus(W2 . relu(W1 . mean(H) + b1) + b2) and its intermediates:
    (pooled row, W1 pre-activation, hidden, W2 logit, sigma as a (1,) array)."""
    pooled = H.sum(axis=0) * (1.0 / H.shape[0])
    pre = pooled @ W1 + b1
    hidden = np.maximum(pre, 0.0)
    z = hidden @ W2 + b2
    return pooled, pre, hidden, z, np.logaddexp(0.0, z)


def span_distances(n: int, span: tuple[int, int]) -> np.ndarray:
    """Token distance to the nearest span endpoint; zero inside the span."""
    s, e = span
    if not (0 <= s <= e < n):
        raise ValueError(f"invalid span [{s}, {e}] for length {n}")
    j = np.arange(n)
    return np.maximum(np.maximum(s - j, j - e), 0).astype(np.float64)


def _gaussian_mask(n: int, span: tuple[int, int], sigma: Tensor, interval: float,
                   normalize: bool):
    """The mask at sampled distances x for a (1,) sigma: returns (x, bell, mask),
    bell = exp(-x^2 / (2 sigma^2)) and mask = bell / (sigma sqrt(2 pi)), or
    mask = bell with `normalize` (peak forced to 1)."""
    x = span_distances(n, span) * interval
    bell = np.exp((-0.5 * x * x) / (sigma * sigma))
    return x, bell, bell if normalize else bell / (sigma * SQRT_2PI)


def gaussian_mask_var(H: Var, W1: Var, b1: Var, W2: Var, b2: Var, span: tuple[int, int],
                      interval: float, normalize: bool = False):
    """The Gaussian mask layer as one tape node: sigma from the mean-pooled
    rows through the relu MLP and softplus, the mask from sigma, and the
    masked rows mask[:, None] * H. Returns (H_G Var[n, d], sigma array[1],
    mask array[n]).

    The VJP goes back by hand through the row scaling, the density
    (dmask/dsigma = mask (x^2/sigma^3 - 1/sigma), or bell x^2/sigma^3 with
    `normalize`), softplus' = sigmoid and the MLP; the pooled row's gradient
    is spread over all n rows with weight 1/n. W1 and W2 get their outer
    products as factors (see autodiff).
    """
    Hv, W1v, W2v = H.value, W1.value, W2.value
    n = Hv.shape[0]
    pooled, pre, hidden, z, sigma = _mask_width(Hv, W1v, b1.value, W2v, b2.value)
    x, bell, mask = _gaussian_mask(n, span, sigma, interval, normalize)

    def vjp(g):
        d_mask = (g * Hv).sum(axis=1)
        x2_s3 = x * x / (sigma * sigma * sigma)
        dmask_dsigma = bell * x2_s3 if normalize else mask * (x2_s3 - 1.0 / sigma)
        d_z = np.dot(d_mask, dmask_dsigma) * (0.5 * (1.0 + np.tanh(0.5 * z)))
        d_pre = W2v[:, 0] * d_z * (pre > 0.0)
        d_pooled = W1v @ d_pre
        return (mask[:, None] * g + d_pooled * (1.0 / n),
                (pooled[:, None], d_pre[None, :]), d_pre, (hidden[:, None], d_z[None, :]), d_z)

    H_G = Var(mask[:, None] * Hv, (H, W1, b1, W2, b2), vjp)
    return H_G, sigma, mask


def attention_var(H_G: Var, Wq, Wk, Wv, variant: str = "covariance",
                  heads: int = 1) -> tuple[Var, Tensor]:
    """Self-attention over masked token rows as one tape node; returns
    (output Var[n, d_k], probs array[n, n]).

    variant "covariance" subtracts the token-mean from Q before the score
    product (centering K too, as the paper does, adds -Qc_i . mean(K) to row
    i, which the row-wise softmax cancels); "original" scores raw
    projections. Both scale by sqrt(d_head) and softmax row-wise. The
    projection columns split into `heads` equal groups that run as one
    (heads, n, width) stack, and the outputs concatenate back to d_k; probs
    is a copy of the first head's matrix, so a trace that keeps it keeps no
    other head's.

    The VJP runs the stacked softmax and score products back by hand, then
    Q's centering (its VJP is centering: dQ = dQc - mean(dQc); dK's columns
    sum to 0 already, as each row of the softmax VJP does) and the three
    projections; Wq, Wk and Wv get their gradients as the factors
    (H_G^T, dQ), (H_G^T, dK) and (H_G^T, dV) (see autodiff).
    """
    if variant not in ("covariance", "original"):
        raise ValueError(f"unknown attention variant: {variant}")
    H_G, Wq, Wk, Wv = as_var(H_G), as_var(Wq), as_var(Wk), as_var(Wv)
    X = H_G.value
    Q, K, V = X @ Wq.value, X @ Wk.value, X @ Wv.value
    n, d_k = Q.shape
    if heads < 1 or d_k % heads != 0:
        raise ValueError(f"attention heads ({heads}) must divide d_k ({d_k})")
    width = d_k // heads
    c = 1.0 / math.sqrt(width)
    center = variant == "covariance"
    if center:
        Q = Q - Q.sum(axis=0, keepdims=True) * (1.0 / n)
    Qh, Kh, Vh = (M.reshape(n, heads, width).transpose(1, 0, 2) for M in (Q, K, V))
    P = _softmax((Qh @ Kh.transpose(0, 2, 1)) * c, 2)

    def vjp(g):
        gh = g.reshape(n, heads, width).transpose(1, 0, 2)
        dP = gh @ Vh.transpose(0, 2, 1)
        dS = (dP - (dP * P).sum(2, keepdims=True)) * P * c
        dQ, dK, dV = (D.transpose(1, 0, 2).reshape(n, d_k)
                      for D in (dS @ Kh, dS.transpose(0, 2, 1) @ Qh, P.transpose(0, 2, 1) @ gh))
        if center:
            dQ -= dQ.sum(axis=0, keepdims=True) * (1.0 / n)
        return (dQ @ Wq.value.T + dK @ Wk.value.T + dV @ Wv.value.T,
                (X.T, dQ), (X.T, dK), (X.T, dV))

    out = (P @ Vh).transpose(1, 0, 2).reshape(n, d_k)
    return Var(out, (H_G, Wq, Wk, Wv), vjp), P[0].copy()


def local_forward_var(H: Var, span: tuple[int, int], mask_params, attn_params,
                      interval: float, variant: str = "covariance",
                      normalize_mask: bool = False, use_mask: bool = True,
                      heads: int = 1):
    """Full local path: sigma -> mask -> attention -> mean over aspect rows.

    mask_params / attn_params are (W1, b1, W2, b2) and (Wq, Wk, Wv) tuples of
    Var or ndarray. Three tape nodes (two without the mask): the mask layer,
    the attention, and the mean of the aspect rows. Returns
    (h_local Var[d_k], trace dict); the trace holds sigma as a float and the
    mask and the (first head's) attention matrix as arrays.
    """
    s, e = span
    trace = {}
    if use_mask:
        H_G, sigma, mask = gaussian_mask_var(H, *(as_var(w) for w in mask_params), span,
                                             interval, normalize=normalize_mask)
        trace["sigma"] = float(sigma[0])
        trace["mask"] = mask
    else:
        H_G = H
        trace["sigma"] = None
        trace["mask"] = None
    out, probs = attention_var(H_G, *attn_params, variant=variant, heads=heads)
    trace["local_attention"] = probs
    h_local = ad.sum_rows(out, s, e + 1, scale=1.0 / (e + 1 - s))
    return h_local, trace


# ---------------------------------------------------------------------------
# Score-contrast objective diagnostics (not on the training path).
# ---------------------------------------------------------------------------

def _contrast_half(X: Tensor, center: Tensor, M: Tensor) -> float:
    """sum_j (x_j - c)^T M (x_j - c) / sum_j (x_j - c)^T (x_j - c)."""
    D = X - center
    denom = float(np.sum(D * D))
    if denom == 0.0:
        raise ValueError("degenerate objective: all rows equal the centering vector")
    return float(np.einsum("jd,de,je->", D, M, D)) / denom


def _pairwise_scatter(X: Tensor) -> Tensor:
    """sum over pairs (x_a - x_b)(x_a - x_b)^T, normalized by the paired trace."""
    diffs = X[:, None, :] - X[None, :, :]
    denom = float(np.sum(diffs * diffs))
    if denom == 0.0:
        raise ValueError("degenerate objective: all rows identical")
    flat = diffs.reshape(-1, X.shape[1])
    return (flat.T @ flat) / denom


def eval_objective(theta, phi, Q, K) -> float:
    """Score-contrast objective O(theta, phi) in its Rayleigh-quotient form.

    The first addend measures how much the centered queries spread along the
    key-difference directions, the second swaps the roles. Degenerate inputs
    (all queries equal or all keys equal) raise.
    """
    theta, phi = as_tensor(theta), as_tensor(phi)
    Q, K = as_tensor(Q), as_tensor(K)
    if Q.ndim != 2 or K.ndim != 2 or Q.shape != K.shape:
        raise ValueError(f"eval_objective expects matching N x d matrices, got {Q.shape}, {K.shape}")
    if Q.shape[0] < 2:
        raise ValueError("eval_objective needs at least two rows")
    Phi = _pairwise_scatter(K)
    Omega = _pairwise_scatter(Q)
    return _contrast_half(Q, theta, Phi) + _contrast_half(K, phi, Omega)


@dataclass
class StationarityReport:
    grad_norm_at_mean: float
    median_random_grad_norm: float
    is_stationary: bool


def check_stationarity(Q, K, rng: Rng) -> StationarityReport:
    """Finite-difference test that O is stationary at (mean Q, mean K).

    Compares the gradient norm at the sample means against the median
    gradient norm at 100 points perturbed by rng (each coordinate moved by
    up to 1); stationary means the ratio falls below 1e-5. The differences
    use finite_diff_grad's default step, 1e-6.
    """
    Q, K = as_tensor(Q), as_tensor(K)
    d = Q.shape[1]

    def packed(v: Tensor) -> float:
        return eval_objective(v[:d], v[d:], Q, K)

    center = np.concatenate([Q.mean(axis=0), K.mean(axis=0)])
    g_mean = float(np.linalg.norm(finite_diff_grad(packed, center)))
    norms = []
    for _ in range(100):
        point = center + rng.uniform((2 * d,), -1.0, 1.0)
        norms.append(float(np.linalg.norm(finite_diff_grad(packed, point))))
    med = float(np.median(norms))
    return StationarityReport(
        grad_norm_at_mean=g_mean,
        median_random_grad_norm=med,
        is_stationary=g_mean < 1e-5 * med,
    )
