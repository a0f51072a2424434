"""Local feature extraction around an aspect span.

A small MLP reads the pooled sentence representation and emits the standard
deviation of a zero-mean Gaussian; sampling its density at equal intervals
away from the aspect yields a multiplicative mask that shrinks far-away
tokens. The masked representation then goes through self-attention whose
query/key matrices are mean-centered first ("covariance" attention), which
spreads the score distribution; the plain variant is kept for ablations.

The encoder runs on the tape: `gaussian_mask_var` (sigma, mask and the
masked rows, over the plain-array kernels `_mask_width` and
`_gaussian_mask`) and `attention_var` (all heads) are one tape node each
with a hand-derived VJP, and `local_forward_var` chains them and averages
the aspect rows in a third node.

The module also hosts a numerical diagnostic for the claim motivating the
centering: the score-contrast objective O(theta, phi) is stationary exactly
at the sample means of Q and K. That check never touches the training path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Var, as_var
from .numeric import Tensor, _softmax, as_tensor, finite_diff_grad

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _mask_width(H: Tensor, W1: Tensor, b1: Tensor, W2: Tensor, b2: Tensor):
    """softplus(W2 . relu(W1 . mean(H) + b1) + b2) and its intermediates:
    (pooled row, W1 pre-activation, hidden, W2 logit, sigma as a (1,) array)."""
    pooled = H.sum(axis=0) * (1.0 / H.shape[0])
    pre = pooled @ W1 + b1
    hidden = np.maximum(pre, 0.0)
    z = hidden @ W2 + b2
    return pooled, pre, hidden, z, np.logaddexp(0.0, z)


def gaussian_pdf(x: float, sigma: float) -> float:
    """Zero-mean Gaussian density at x."""
    if sigma <= 0:
        raise ValueError(f"gaussian_pdf: sigma must be positive, got {sigma}")
    return math.exp(-0.5 * (x / sigma) ** 2) / (sigma * SQRT_2PI)


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

    variant "covariance" subtracts the token-mean from Q and K before the
    score product; "original" scores raw projections. Both scale by
    sqrt(d_head) and softmax row-wise. With heads > 1 the projection columns
    split into equal head groups and outputs concatenate back to d_k; probs
    is then the first head's matrix (the trace keeps one n x n view).

    The VJP runs each head's softmax and score product back by hand, then
    the centering (its VJP is centering: dQ = dQc - mean(dQc)) and the three
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
        K = K - K.sum(axis=0, keepdims=True) * (1.0 / n)
    cols = [slice(h * width, (h + 1) * width) for h in range(heads)]
    probs = [_softmax((Q[:, sl] @ K[:, sl].T) * c, 1) for sl in cols]
    outs = [P @ V[:, sl] for sl, P in zip(cols, probs)]

    def vjp(g):
        dQ, dK, dV = np.empty((n, d_k)), np.empty((n, d_k)), np.empty((n, d_k))
        for sl, P in zip(cols, probs):
            gh = g[:, sl]
            dP = gh @ V[:, sl].T
            dS = (dP - (dP * P).sum(1, keepdims=True)) * P * c
            dQ[:, sl] = dS @ K[:, sl]
            dK[:, sl] = dS.T @ Q[:, sl]
            dV[:, sl] = P.T @ gh
        if center:
            dQ -= dQ.sum(axis=0, keepdims=True) * (1.0 / n)
            dK -= dK.sum(axis=0, keepdims=True) * (1.0 / n)
        return (dQ @ Wq.value.T + dK @ Wk.value.T + dV @ Wv.value.T,
                (X.T, dQ), (X.T, dK), (X.T, dV))

    out = outs[0] if heads == 1 else np.concatenate(outs, axis=1)
    return Var(out, (H_G, Wq, Wk, Wv), vjp), probs[0]


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


@dataclass
class StationarityReport:
    grad_norm_at_mean: float
    median_random_grad_norm: float
    is_stationary: bool


def check_stationarity(Q, K, eps: float = 1e-6, num_random: int = 100,
                       tol_ratio: float = 1e-5, rng=None) -> StationarityReport:
    """Finite-difference test that O is stationary at (mean Q, mean K).

    Compares the gradient norm at the sample means against the median
    gradient norm at `num_random` perturbed (theta, phi) points; stationary
    means the ratio falls below tol_ratio.
    """
    Q, K = as_tensor(Q), as_tensor(K)
    d = Q.shape[1]

    def packed(v: Tensor) -> float:
        return eval_objective(v[:d], v[d:], Q, K)

    center = np.concatenate([Q.mean(axis=0), K.mean(axis=0)])
    g_mean = float(np.linalg.norm(finite_diff_grad(packed, center, eps)))

    if rng is None:
        from .numeric import Rng
        rng = Rng(0)
    norms = []
    for _ in range(num_random):
        point = center + rng.uniform((2 * d,), -1.0, 1.0)
        norms.append(float(np.linalg.norm(finite_diff_grad(packed, point, eps))))
    med = float(np.median(norms))
    return StationarityReport(
        grad_norm_at_mean=g_mean,
        median_random_grad_norm=med,
        is_stationary=g_mean < tol_ratio * med,
    )
