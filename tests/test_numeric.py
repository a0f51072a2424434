import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdd import autodiff as ad
from gdd.numeric import (
    Rng,
    _softmax,
    circ_corr_fft,
    circ_corr_naive,
    finite_diff_grad,
    init_uniform,
    softmax,
)

from oracles import relu, softplus

finite_row = st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=8)


def tape_matmul(a, b):
    return ad.matmul(a, b).value


def tape_softplus(x):
    return softplus(x).value


def tape_relu(x):
    return relu(x).value


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(tape_matmul(np.eye(2), a), a)

    def test_hand_arithmetic(self):
        out = tape_matmul([[1.0, 2.0]], [[3.0], [4.0]])
        assert out.shape == (1, 1)
        assert out[0, 0] == 11.0

    def test_triple_loop_oracle(self):
        rng = Rng(11)
        a = rng.uniform((5, 7), -2, 2)
        b = rng.uniform((7, 3), -2, 2)
        expected = np.zeros((5, 3))
        for i in range(5):
            for j in range(3):
                for k in range(7):
                    expected[i, j] += a[i, k] * b[k, j]
        assert np.max(np.abs(tape_matmul(a, b) - expected)) < 1e-12

    def test_associativity(self):
        rng = Rng(5)
        for _ in range(10):
            a = rng.uniform((4, 5), -1, 1)
            b = rng.uniform((5, 6), -1, 1)
            c = rng.uniform((6, 3), -1, 1)
            left = tape_matmul(tape_matmul(a, b), c)
            right = tape_matmul(a, tape_matmul(b, c))
            assert np.max(np.abs(left - right)) < 1e-9 * max(1.0, np.max(np.abs(left)))


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_overflow_safety(self):
        assert np.allclose(softmax([1000.0, 1000.0]), [0.5, 0.5], atol=1e-15)

    def test_closed_form(self):
        out = softmax([math.log(2.0), 0.0])
        assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_empty_axis(self):
        with pytest.raises(ValueError, match="empty axis"):
            softmax(np.zeros((3, 0)), axis=1)

    @given(finite_row)
    def test_sums_to_one(self, row):
        out = softmax(np.array(row))
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out >= 0)

    @given(finite_row, st.floats(-30, 30, allow_nan=False))
    def test_shift_invariance(self, row, c):
        base = softmax(np.array(row))
        shifted = softmax(np.array(row) + c)
        assert np.max(np.abs(base - shifted)) < 1e-12

    @pytest.mark.parametrize("shape, axis", [((7,), -1), ((4, 5), 1), ((4, 5), 0)])
    def test_kernel_is_bit_identical_to_the_np_reductions(self, shape, axis):
        x = Rng(3).uniform(shape, -40, 40)
        e = np.exp(x - np.max(x, axis=axis, keepdims=True))
        assert np.array_equal(_softmax(x, axis), e / np.sum(e, axis=axis, keepdims=True))
        assert np.array_equal(softmax(x, axis=axis), _softmax(x, axis))

    def test_2d_axis(self):
        x = np.array([[0.0, math.log(3.0)], [1.0, 1.0]])
        out = softmax(x, axis=1)
        assert np.allclose(out[0], [0.25, 0.75])
        assert np.allclose(out[1], [0.5, 0.5])


class TestElementwise:
    def test_softplus_zero(self):
        assert abs(float(tape_softplus(0.0)) - math.log(2.0)) < 1e-12

    def test_softplus_asymptote(self):
        assert abs(float(tape_softplus(50.0)) - 50.0) < 1e-12

    def test_softplus_large_negative_positive(self):
        assert float(tape_softplus(-100.0)) > 0.0

    def test_relu(self):
        assert float(tape_relu(-3.0)) == 0.0
        assert float(tape_relu(3.0)) == 3.0


class TestCircCorr:
    def test_impulse_identity(self):
        b = np.array([4.0, -1.0, 2.5, 0.5])
        delta = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(circ_corr_naive(delta, b), b, atol=1e-15)
        assert np.allclose(circ_corr_fft(delta, b), b, atol=1e-12)

    def test_hand_evaluation_d2(self):
        assert np.allclose(circ_corr_naive([1.0, 1.0], [2.0, 3.0]), [5.0, 5.0])

    def test_hand_expansion_d3(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([4.0, 5.0, 6.0])
        # out[k] = sum_i a[i] * b[(i+k) % 3], expanded by hand
        expected = [1 * 4 + 2 * 5 + 3 * 6, 1 * 5 + 2 * 6 + 3 * 4, 1 * 6 + 2 * 4 + 3 * 5]
        assert np.allclose(circ_corr_naive(a, b), expected)
        assert np.allclose(circ_corr_fft(a, b), expected, atol=1e-12)

    def test_zero_case(self):
        b = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert np.allclose(circ_corr_fft(np.zeros(5), b), np.zeros(5), atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            circ_corr_fft(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError, match="length mismatch"):
            circ_corr_naive(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 17, 64])
    def test_fft_matches_naive(self, d):
        rng = Rng(100 + d)
        for _ in range(25):
            a = rng.uniform((d,), -3, 3)
            b = rng.uniform((d,), -3, 3)
            assert np.max(np.abs(circ_corr_fft(a, b) - circ_corr_naive(a, b))) < 1e-10


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda x: float(x[0] * x[0]), np.array([3.0]))
        assert abs(grad[0] - 6.0) < 1e-6

    def test_softplus_at_zero(self):
        grad = finite_diff_grad(lambda x: float(tape_softplus(x).sum()), np.zeros(4))
        assert np.max(np.abs(grad - 0.5)) < 1e-6

    def test_nonfinite_objective(self):
        with pytest.raises(ValueError, match="non-finite"):
            finite_diff_grad(lambda x: float("nan"), np.zeros(2))

    def test_bad_eps(self):
        with pytest.raises(ValueError, match="eps"):
            finite_diff_grad(lambda x: 0.0, np.zeros(2), eps=0.0)


class TestInitUniform:
    def test_determinism(self):
        a = init_uniform(Rng(42), (6, 7))
        b = init_uniform(Rng(42), (6, 7))
        assert np.array_equal(a, b)

    def test_bias_shape_zeros(self):
        assert np.array_equal(init_uniform(Rng(0), (9,)), np.zeros(9))

    def test_default_bound_is_glorot(self):
        w = init_uniform(Rng(3), (40, 60))
        bound = math.sqrt(6.0 / 100.0)
        assert np.max(np.abs(w)) <= bound

    def test_empirical_mean(self):
        bound = 0.3
        w = init_uniform(Rng(17), (100, 100), bound=bound)
        assert abs(w.mean()) < 0.05 * bound

    def test_invalid_bound(self):
        with pytest.raises(ValueError, match="bound"):
            init_uniform(Rng(0), (2, 2), bound=-1.0)


class TestRng:
    def test_reproducible_stream(self):
        r1, r2 = Rng(123), Rng(123)
        assert np.array_equal(r1.uniform((5,)), r2.uniform((5,)))
        assert np.array_equal(r1.permutation(10), r2.permutation(10))

    def test_seeds_differ(self):
        assert not np.array_equal(Rng(1).uniform((5,)), Rng(2).uniform((5,)))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            Rng(-1)
