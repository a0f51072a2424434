import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdd import autodiff as ad
from gdd.autodiff import Var
from gdd.local_encoder import (
    attention_var,
    check_stationarity,
    eval_objective,
    gaussian_mask_var,
    local_forward_var,
    span_distances,
)
from gdd.numeric import Rng, finite_diff_grad

from oracles import (div, eval_objective_direct, exp, gaussian_pdf, mean, relu, reshape,
                     softmax, softplus, sub, transpose)

SQRT_2PI = math.sqrt(2.0 * math.pi)


# Reference local encoder built from one small tape op per step, each with its
# own VJP. The mask and attention nodes of gdd.local_encoder must reproduce it in
# value, trace and gradient.

def sigma_oracle(H, W1, b1, W2, b2):
    pooled = mean(H, axis=0)
    hidden = relu(ad.matmul(pooled, W1) + b1)
    return softplus(ad.matmul(hidden, W2) + b2)


def mask_oracle(n, span, sigma, interval, normalize=False):
    x = span_distances(n, span) * interval
    quad = div(Var(-0.5 * x * x), ad.mul(sigma, sigma))
    bell = exp(quad)
    if normalize:
        return bell
    return div(bell, ad.mul(sigma, SQRT_2PI))


def _slice_cols_oracle(a, cols):
    if cols == slice(0, a.value.shape[1]):
        return a
    return transpose(ad.gather_rows(transpose(a), range(cols.start, cols.stop)))


def attention_oracle(H_G, Wq, Wk, Wv, variant="covariance", heads=1):
    Q, K, V = ad.matmul(H_G, Wq), ad.matmul(H_G, Wk), ad.matmul(H_G, Wv)
    width = Q.value.shape[1] // heads
    outs, probs0 = [], None
    for h in range(heads):
        cols = slice(h * width, (h + 1) * width)
        Qh, Kh, Vh = (_slice_cols_oracle(a, cols) for a in (Q, K, V))
        if variant == "covariance":
            Qh = sub(Qh, mean(Qh, axis=0, keepdims=True))
            Kh = sub(Kh, mean(Kh, axis=0, keepdims=True))
        scores = ad.mul(ad.matmul(Qh, transpose(Kh)), 1.0 / math.sqrt(width))
        P = softmax(scores, axis=1)
        if probs0 is None:
            probs0 = P
        outs.append(ad.matmul(P, Vh))
    out = outs[0] if heads == 1 else ad.concat(outs, axis=1)
    return out, probs0


def local_forward_oracle(H, span, mask_params, attn_params, interval, variant,
                         normalize_mask, use_mask, heads):
    n = H.value.shape[0]
    s, e = span
    trace = {"sigma": None, "mask": None}
    H_G = H
    if use_mask:
        sigma = sigma_oracle(H, *mask_params)
        mask = mask_oracle(n, span, sigma, interval, normalize=normalize_mask)
        H_G = ad.mul(reshape(mask, (n, 1)), H)
        trace["sigma"] = float(sigma.value[0])
        trace["mask"] = mask.value
    out, probs = attention_oracle(H_G, *attn_params, variant=variant, heads=heads)
    trace["local_attention"] = probs.value
    return mean(ad.gather_rows(out, range(s, e + 1)), axis=0), trace


def make_mask_params(d_model=6, d_hid=4, rng=None, zero=False):
    """(W1, b1, W2, b2) of the mask MLP."""
    if zero:
        return np.zeros((d_model, d_hid)), np.zeros(d_hid), np.zeros((d_hid, 1)), np.zeros(1)
    rng = rng or Rng(0)
    return (rng.uniform((d_model, d_hid), -0.5, 0.5), rng.uniform((d_hid,), -0.5, 0.5),
            rng.uniform((d_hid, 1), -0.5, 0.5), rng.uniform((1,), -0.5, 0.5))


def make_attn_params(d_model=6, d_k=4, rng=None):
    """(Wq, Wk, Wv) of the attention."""
    rng = rng or Rng(1)
    return tuple(rng.uniform((d_model, d_k), -0.5, 0.5) for _ in range(3))


def mask_layer(H, span, mask_params, interval=0.2, normalize=False):
    """gaussian_mask_var as arrays: (masked rows, sigma, mask)."""
    H_G, sigma, mask = gaussian_mask_var(Var(H), *(Var(w) for w in mask_params), span,
                                         interval, normalize)
    return H_G.value, float(sigma[0]), mask


def sigma_of(H, mask_params):
    return mask_layer(H, (0, 0), mask_params)[1]


def fixed_sigma_params(sigma, d_model=6, d_hid=4):
    """Mask MLP weights whose sigma is `sigma` for every input: zero weights
    leave softplus(b2), and b2 = log(expm1(sigma)) inverts the softplus."""
    W1, b1, W2, _ = make_mask_params(d_model, d_hid, zero=True)
    return W1, b1, W2, np.array([math.log(math.expm1(sigma))])


def build_mask(n, span, sigma, interval, normalize=False):
    """The mask of gaussian_mask_var at a fixed sigma; returns (mask, sigma used)."""
    _, used, mask = mask_layer(np.ones((n, 6)), span, fixed_sigma_params(sigma), interval,
                               normalize)
    return mask, used


def attend(H, attn_params, variant):
    return attention_var(Var(H), *attn_params, variant=variant)[0].value


class TestSigma:
    def test_all_zero_params(self):
        H = Rng(2).uniform((5, 6), -1, 1)
        sigma = sigma_of(H, make_mask_params(zero=True))
        assert abs(sigma - math.log(2.0)) < 1e-12

    def test_strictly_positive_sweep(self):
        rng = Rng(3)
        for i in range(1000):
            H = rng.uniform((1 + i % 7, 6), -3, 3)
            params = make_mask_params(rng=Rng(i))
            assert sigma_of(H, params) > 0.0

    def test_softplus_asymptote_b2(self):
        W1, b1, W2, _ = make_mask_params(zero=True)
        sigma = sigma_of(Rng(4).uniform((3, 6)), (W1, b1, W2, np.array([10.0])))
        assert abs(sigma - 10.0) < 1e-3

    def test_fixed_sigma_weights(self):
        for sigma in (0.05, 0.7, 1.0, 5.05):
            used = sigma_of(Rng(4).uniform((3, 6)), fixed_sigma_params(sigma))
            assert abs(used - sigma) <= 1e-14 * sigma


class TestGaussianPdf:
    def test_peak_sigma_one(self):
        assert abs(gaussian_pdf(0.0, 1.0) - 1.0 / math.sqrt(2 * math.pi)) < 1e-12

    def test_peak_sigma_two(self):
        assert abs(gaussian_pdf(0.0, 2.0) - 0.199471) < 1e-6

    def test_symmetry(self):
        for x in (0.3, 1.7, 4.0):
            assert gaussian_pdf(x, 1.3) == gaussian_pdf(-x, 1.3)

    def test_nonpositive_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            gaussian_pdf(1.0, 0.0)


class TestMask:
    def test_derived_five_token_case(self):
        mask, _ = build_mask(5, (2, 2), sigma=1.0, interval=0.2)
        expected = [0.368270, 0.391043, 0.398942, 0.391043, 0.368270]
        assert np.max(np.abs(mask - expected)) < 1e-6

    def test_whole_sentence_span(self):
        mask, _ = build_mask(4, (0, 3), sigma=1.5, interval=0.2)
        assert np.allclose(mask, gaussian_pdf(0.0, 1.5))

    def test_monotone_decay(self):
        mask, _ = build_mask(9, (4, 4), sigma=0.7, interval=0.3)
        left, right = mask[:5], mask[4:]
        assert np.all(np.diff(left) >= 0)
        assert np.all(np.diff(right) <= 0)

    def test_normalized_peak_one(self):
        mask, _ = build_mask(5, (2, 2), sigma=0.5, interval=0.2, normalize=True)
        assert mask[2] == 1.0
        assert np.all(mask <= 1.0)

    def test_invalid_span(self):
        with pytest.raises(ValueError, match="span"):
            build_mask(5, (3, 1), sigma=1.0, interval=0.2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.data(), st.floats(0.1, 5.0))
    def test_aspect_max_property(self, n, data, sigma):
        s = data.draw(st.integers(0, n - 1))
        e = data.draw(st.integers(s, n - 1))
        mask, used = build_mask(n, (s, e), sigma=sigma, interval=0.2)
        peak = gaussian_pdf(0.0, used)
        assert np.allclose(mask[s:e + 1], peak)
        assert np.all(mask <= peak + 1e-15)


class TestMaskedRows:
    """The mask layer's output scales row j of H by mask[j]."""

    def test_identity(self):
        # a whole-sentence span puts every token at distance 0: a normalized
        # mask of ones
        H = Rng(5).uniform((4, 3))
        H_G, _, mask = mask_layer(H, (0, 3), make_mask_params(3), normalize=True)
        assert np.array_equal(mask, np.ones(4))
        assert np.array_equal(H_G, H)

    def test_zeros(self):
        # a tiny sigma underflows the normalized mask to 0 off the span
        H = Rng(5).uniform((4, 3))
        H_G, _, mask = mask_layer(H, (0, 0), fixed_sigma_params(1e-3, d_model=3),
                                  normalize=True)
        assert np.array_equal(mask[1:], np.zeros(3))
        assert np.array_equal(H_G[1:], np.zeros((3, 3)))
        assert np.array_equal(H_G[0], H[0])

    def test_single_row_scaled(self):
        H = np.ones((3, 2))
        out, _, mask = mask_layer(H, (0, 0), fixed_sigma_params(0.5, d_model=2),
                                  normalize=True)
        assert 0.0 < mask[1] < 1.0
        assert np.array_equal(out[1], [mask[1], mask[1]])
        assert np.array_equal(out[0], [1.0, 1.0])


class TestAttention:
    def test_single_token(self):
        H = Rng(6).uniform((1, 6))
        p = make_attn_params()
        out = attend(H, p, "original")
        assert out.shape == (1, 4)
        assert np.allclose(out[0], H @ p[2])

    def test_rows_sum_to_one(self):
        H = Rng(7).uniform((5, 6))
        _, probs = attention_var(Var(H), *make_attn_params(), variant="original")
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12

    def test_two_token_hand_example(self):
        H = np.array([[1.0, 0.0], [0.0, 2.0]])
        p = (np.array([[1.0, 0.0], [0.0, 1.0]]),  # Wq
             np.array([[0.5, 0.0], [0.0, 0.5]]),  # Wk
             np.array([[2.0, 0.0], [0.0, 2.0]]))  # Wv
        # manual: Q = H, K = 0.5 H, V = 2 H, scores = Q K^T / sqrt(2)
        scores = (H @ (0.5 * H).T) / math.sqrt(2.0)
        ex = np.exp(scores - scores.max(axis=1, keepdims=True))
        P = ex / ex.sum(axis=1, keepdims=True)
        assert np.allclose(attend(H, p, "original"), P @ (2.0 * H), atol=1e-12)

    def test_covariance_equals_original_when_zero_mean(self):
        rng = Rng(8)
        H = rng.uniform((6, 6), -1, 1)
        H -= H.mean(axis=0)  # zero-mean rows make every projection zero-mean
        p = make_attn_params()
        assert np.max(np.abs((H @ p[0]).mean(axis=0))) < 1e-14
        cov = attend(H, p, "covariance")
        orig = attend(H, p, "original")
        assert np.max(np.abs(cov - orig)) < 1e-12

    def test_identical_tokens_give_uniform_rows(self):
        H = np.tile(Rng(9).uniform((1, 6)), (4, 1))
        _, probs = attention_var(Var(H), *make_attn_params(), variant="covariance")
        assert np.array_equal(probs, np.full((4, 4), 0.25))

    def test_covariance_matches_two_step_oracle(self):
        rng = Rng(10)
        H = rng.uniform((4, 6), -1, 1)
        p = make_attn_params(rng=Rng(11))
        # independent two-step oracle: center, then plain scaled-dot attention
        Q, K, V = (H @ W for W in p)
        Qc = Q - Q.mean(axis=0)
        Kc = K - K.mean(axis=0)
        scores = Qc @ Kc.T / math.sqrt(Q.shape[1])
        ex = np.exp(scores - scores.max(axis=1, keepdims=True))
        expected = (ex / ex.sum(axis=1, keepdims=True)) @ V
        assert np.max(np.abs(attend(H, p, "covariance") - expected)) < 1e-12

    def test_multihead_shapes_and_rows(self):
        H = Rng(12).uniform((5, 6))
        p = make_attn_params()
        out, probs = attention_var(Var(H), *p, variant="covariance", heads=2)
        assert out.value.shape == (5, 4)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12

    def test_multihead_probs_are_the_first_heads_own_array(self):
        """probs owns its memory (a view would keep every head's matrix alive)
        and holds head 0's attention: that of one head over the first quarter
        of the projection columns."""
        H = Rng(13).uniform((5, 6))
        Wq, Wk, Wv = (Rng(14 + i).uniform((6, 8), -1, 1) for i in range(3))
        for variant in ("covariance", "original"):
            _, probs = attention_var(Var(H), Wq, Wk, Wv, variant=variant, heads=4)
            _, head0 = attention_var(Var(H), Wq[:, :2], Wk[:, :2], Wv[:, :2], variant=variant)
            assert probs.base is None and probs.shape == (5, 5)
            assert np.allclose(probs, head0, rtol=1e-15, atol=0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            attention_var(Var(np.ones((2, 6))), *make_attn_params(), variant="fancy")


def local_out(H, span, mask_params, attn_params):
    return local_forward_var(Var(H), span, mask_params, attn_params, interval=0.2)[0].value


class TestLocalForward:
    def test_deterministic_and_shape(self):
        H = Rng(13).uniform((7, 6))
        mp, ap = make_mask_params(), make_attn_params()
        a = local_out(H, (2, 3), mp, ap)
        b = local_out(H, (2, 3), mp, ap)
        assert np.array_equal(a, b)
        assert a.shape == (4,)

    def test_output_width_independent_of_n(self):
        mp, ap = make_mask_params(), make_attn_params()
        for n in (1, 3, 9):
            out = local_out(Rng(n).uniform((n, 6)), (0, 0), mp, ap)
            assert out.shape == (4,)

    def test_gradients_match_finite_differences(self):
        rng = Rng(14)
        H = rng.uniform((5, 6), -1, 1)
        names = ["W1", "b1", "W2", "b2", "Wq", "Wk", "Wv"]
        shapes = [(6, 4), (4,), (4, 1), (1,), (6, 4), (6, 4), (6, 4)]
        values = [rng.uniform(s, -0.5, 0.5) for s in shapes]
        probe = rng.uniform((4,), -1, 1)

        def run(vals):
            leaves = [Var(v) for v in vals]
            h, _ = local_forward_var(Var(H), (1, 2), tuple(leaves[:4]),
                                     tuple(leaves[4:]), interval=0.2)
            return ad.matmul(h, Var(probe)), leaves

        out, leaves = run(values)
        ad.backward(out)
        for i, name in enumerate(names):
            def f(x):
                trial = [x if j == i else values[j] for j in range(len(values))]
                return float(run(trial)[0].value)

            numeric = finite_diff_grad(f, values[i])
            analytic = leaves[i].grad
            scale = max(np.max(np.abs(numeric)), np.max(np.abs(analytic)), 1e-6)
            rel = np.max(np.abs(analytic - numeric)) / scale
            assert rel < 1e-4, f"{name}: {rel}"


def _close(got, want, tol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    return np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))


def _run_local(local, H, span, values, probe, **kwargs):
    """Output, trace and the gradient of H and of every parameter of
    probe . local(H, span, ...)."""
    leaves = [Var(H)] + [Var(v) for v in values]
    h, trace = local(leaves[0], span, tuple(leaves[1:5]), tuple(leaves[5:]), **kwargs)
    ad.backward(ad.matmul(h, Var(probe)))
    grads = [np.zeros_like(v.value) if v.grad is None else v.grad for v in leaves]
    return h.value, trace, grads


class TestFusedNodesAgainstOracle:
    @pytest.mark.parametrize("n, span", [(1, (0, 0)), (6, (0, 1)), (6, (5, 5)), (7, (2, 4))])
    @pytest.mark.parametrize("variant", ["covariance", "original"])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("normalize_mask, use_mask",
                             [(False, True), (True, True), (False, False)])
    def test_value_trace_and_every_gradient(self, n, span, variant, heads, normalize_mask,
                                            use_mask):
        rng = Rng(60 + n)
        H = rng.uniform((n, 6), -1, 1)
        shapes = [(6, 4), (4,), (4, 1), (1,), (6, 4), (6, 4), (6, 4)]
        values = [rng.uniform(s, -1, 1) for s in shapes]
        probe = rng.uniform((4,), -1, 1)
        kwargs = dict(interval=0.3, variant=variant, normalize_mask=normalize_mask,
                      use_mask=use_mask, heads=heads)
        got, want = (_run_local(local, H, span, values, probe, **kwargs)
                     for local in (local_forward_var, local_forward_oracle))
        assert _close(got[0], want[0])
        assert got[1].keys() == want[1].keys()
        for key in want[1]:
            assert type(got[1][key]) is type(want[1][key]), key  # None, float or array
            if want[1][key] is not None:
                assert _close(got[1][key], want[1][key]), key
        names = ["H", "W1", "b1", "W2", "b2", "Wq", "Wk", "Wv"]
        for name, g, w in zip(names, got[2], want[2], strict=True):
            assert _close(g, w), name


class TestObjective:
    def test_matches_quadruple_sum_oracle(self):
        rng = Rng(15)
        Q = rng.uniform((4, 3), -2, 2)
        K = rng.uniform((4, 3), -2, 2)
        theta = rng.uniform((3,), -1, 1)
        phi = rng.uniform((3,), -1, 1)
        fast = eval_objective(theta, phi, Q, K)
        direct = eval_objective_direct(theta, phi, Q, K)
        assert abs(fast - direct) < 1e-9 * max(1.0, abs(direct))

    def test_translation_invariance(self):
        rng = Rng(16)
        Q = rng.uniform((5, 3), -2, 2)
        K = rng.uniform((5, 3), -2, 2)
        theta = rng.uniform((3,), -1, 1)
        phi = rng.uniform((3,), -1, 1)
        c = rng.uniform((3,), -5, 5)
        base = eval_objective(theta, phi, Q, K)
        shifted = eval_objective(theta + c, phi, Q + c, K)
        assert abs(base - shifted) < 1e-9

    def test_role_swap_symmetry(self):
        rng = Rng(17)
        Q = rng.uniform((5, 3), -2, 2)
        K = rng.uniform((5, 3), -2, 2)
        theta = rng.uniform((3,), -1, 1)
        phi = rng.uniform((3,), -1, 1)
        assert abs(eval_objective(theta, phi, Q, K)
                   - eval_objective(phi, theta, K, Q)) < 1e-12

    def test_degenerate_rows_rejected(self):
        Q = np.ones((4, 3))
        K = Rng(18).uniform((4, 3))
        with pytest.raises(ValueError, match="degenerate"):
            eval_objective(np.zeros(3), np.zeros(3), Q, K)


class TestStationarity:
    def test_antipodal_pair(self):
        q = np.array([1.0, -2.0, 0.5])
        k = np.array([0.3, 1.1, -0.7])
        Q = np.stack([q, -q])
        K = np.stack([k, -k])
        report = check_stationarity(Q, K, rng=Rng(19))
        assert report.is_stationary
        assert report.grad_norm_at_mean < 1e-5 * report.median_random_grad_norm

    def test_random_instances(self):
        rng = Rng(20)
        for trial in range(5):
            Q = rng.normal((6, 4))
            K = rng.normal((6, 4))
            report = check_stationarity(Q, K, rng=Rng(100 + trial))
            assert report.is_stationary, trial

    def test_perturbation_changes_objective(self):
        rng = Rng(21)
        Q = rng.normal((6, 4))
        K = rng.normal((6, 4))
        theta = Q.mean(axis=0)
        phi = K.mean(axis=0)
        base = eval_objective(theta, phi, Q, K)
        bumped = eval_objective(theta + 0.5, phi, Q, K)
        assert abs(base - bumped) > 1e-8
