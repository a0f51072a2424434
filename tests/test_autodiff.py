"""Each tape op's gradient against the finite-difference oracle."""

import weakref

import numpy as np
import pytest

from gdd import autodiff as ad
from gdd.autodiff import Var, backward
from gdd.dgat import RelHeads, dual_attention_var, relational_head_var
from gdd.local_encoder import attention_var, gaussian_mask_var, local_forward_var
from gdd.numeric import Rng, finite_diff_grad

from oracles import (circ_corr_naive, div, exp, logsumexp, mean, pick, relu, reshape, softmax,
                     softplus, sub, sum_, transpose)


def inputs(*shapes, seed=0):
    """The operand values that check_grad draws for `shapes`."""
    rng = Rng(seed)
    return [rng.uniform(s, -1.5, 1.5) for s in shapes]


def check_grad(build, *shapes, seed=0, tol=1e-7):
    """build(*vars) -> scalar Var; compares tape gradients to central differences."""
    values = inputs(*shapes, seed=seed)
    leaves = [Var(v) for v in values]
    out = build(*leaves)
    backward(out)
    for i, leaf in enumerate(leaves):
        def f(x):
            trial = [Var(x) if j == i else Var(values[j]) for j in range(len(values))]
            return float(build(*trial).value)

        numeric = finite_diff_grad(f, values[i])
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(values[i])
        scale = max(np.max(np.abs(numeric)), np.max(np.abs(analytic)), 1.0)
        assert np.max(np.abs(analytic - numeric)) / scale < tol, f"operand {i}"


def test_add_broadcast():
    check_grad(lambda a, b: sum_(ad.mul(a + b, a + b)), (3, 4), (4,))


def test_sub_mul_div():
    check_grad(lambda a, b: sum_(div(ad.mul(a, b), b + 3.0)), (5,), (5,))


@pytest.mark.parametrize("const", [np.array([2.0, -1.0, 0.5]), 3.0], ids=["array", "scalar"])
def test_mul_by_a_constant_records_only_the_var(const):
    check_grad(lambda a: sum_(ad.mul(a, const) + ad.mul(const, a)), (2, 3))
    x = Var(np.arange(6.0).reshape(2, 3))
    for y in (ad.mul(x, const), ad.mul(const, x)):
        assert y._parents == (x,)
    backward(sum_(ad.mul(x, const)))
    assert np.array_equal(x.grad, np.broadcast_to(np.asarray(const, dtype=float), (2, 3)))


def test_matmul_2d_2d():
    check_grad(lambda a, b: sum_(ad.matmul(a, b)), (3, 4), (4, 2))


def test_matmul_1d_2d():
    check_grad(lambda a, b: sum_(ad.matmul(a, b)), (4,), (4, 3))


def test_matmul_2d_1d():
    check_grad(lambda a, b: sum_(ad.matmul(a, b)), (3, 4), (4,))


def test_matmul_1d_1d():
    check_grad(lambda a, b: ad.matmul(a, b), (6,), (6,))


def test_transpose_reshape():
    check_grad(lambda a: sum_(ad.mul(transpose(a), transpose(a))), (3, 5))
    check_grad(lambda a: sum_(ad.mul(reshape(a, (6,)), 2.0)), (2, 3))


def test_concat_axis0_and_axis1():
    check_grad(lambda a, b: sum_(ad.mul(ad.concat([a, b]), 3.0)), (3,), (4,))
    check_grad(lambda a, b: sum_(ad.mul(ad.concat([a, b], axis=1),
                                           ad.concat([a, b], axis=1))), (2, 3), (2, 2))


def test_sum_mean_axes():
    check_grad(lambda a: sum_(ad.mul(sum_(a, axis=0), sum_(a, axis=0))), (4, 3))
    check_grad(lambda a: sum_(ad.mul(mean(a, axis=1, keepdims=True), a)), (4, 3))


def test_gather_rows_repeated_indices():
    check_grad(lambda a: sum_(ad.mul(ad.gather_rows(a, [0, 2, 2, 1]), 1.5)), (4, 3))


def test_gather_rows_from_a_leaf_scatters_only_touched_rows():
    """The Leaf path adds into the preallocated gradient what a dense scatter
    would add; rows not gathered keep their bits."""
    rng = Rng(5)
    table, g, prior = rng.normal((6, 3)), rng.normal((6, 3)), rng.normal((6, 3))
    idx = [0, 3, 3, 1, 0, 5]  # row 0 (PAD) and row 3 repeat
    dense = np.zeros_like(table)
    np.add.at(dense, idx, g)
    leaf = ad.Leaf(table, prior.copy())
    backward(sum_(ad.mul(ad.gather_rows(leaf, idx), Var(g))))
    assert np.max(np.abs(leaf.grad - (prior + dense))) < 1e-15 * np.max(np.abs(prior + dense))
    assert np.array_equal(leaf.grad[[2, 4]], prior[[2, 4]])
    plain = Var(table)
    backward(sum_(ad.mul(ad.gather_rows(plain, idx), Var(g))))
    assert np.array_equal(plain.grad, dense)


def test_leaf_gradient_accumulates_in_place():
    buffer = np.zeros(6)
    a = ad.Leaf(np.arange(6.0).reshape(2, 3), buffer.reshape(2, 3))
    backward(sum_(ad.mul(a, a)) + sum_(a))
    assert np.array_equal(buffer, 2 * np.arange(6.0) + 1)


def hand_over(leaf, contribs):
    """A scalar node whose VJP hands `leaf` the contributions `contribs`, one
    per parent slot, as a minibatch's examples would."""
    return Var(np.asarray(0.0), (leaf,) * len(contribs), lambda g: tuple(contribs))


def small_integers(rng, shape):
    """Floats with small integer values: their products and sums are exact in
    any order, so a reduction is compared bit for bit with the sequence of
    adds it replaces."""
    return np.round(3.0 * rng.normal(shape))


@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_a_leaf_reduces_its_scatters_with_the_bits_of_one_2d_scatter_each(layout):
    """Random rows, rows repeated within and across Scatters, idx of shapes
    (m,) and (m, k): the reduction equals 2-D np.add.at calls made one per
    Scatter, in order, bit for bit. A strided gradient (no flat view) takes
    the other path."""
    rng = Rng(8)
    table, prior = rng.normal((6, 3)), rng.normal((6, 3))
    scatters = [ad.Scatter(np.array([3, 0, 3]), rng.normal((3, 3))),
                ad.Scatter(np.array([[3, 5], [0, 0]]), rng.normal((2, 2, 3))),
                ad.Scatter(np.array([5]), rng.normal((1, 3)))]
    want = prior.copy()
    for s in scatters:
        np.add.at(want, s.idx, s.rows)
    buffer = np.zeros((6, 5))
    grad = buffer[:, 1:4] if layout == "strided" else buffer[:, :3].copy()
    assert grad.flags.c_contiguous == (layout == "contiguous")
    grad[...] = prior
    leaf = ad.Leaf(table, grad)
    backward(hand_over(leaf, scatters))
    assert np.array_equal(leaf.grad, want)


def test_a_stacked_leaf_reduces_head_batched_pairs_and_arrays():
    """A (3, 4, 2) stack, strided as a ModelParams.stack view is, gets pairs
    with one X for all heads at m = 1 and m = 5, and two arrays; a second
    stack gets pairs with one X per head. Each equals its sequence of adds."""
    rng = Rng(9)
    buffer = np.zeros((3, 10))
    grad = buffer[:, 1:9].reshape(3, 4, 2)
    assert np.shares_memory(grad, buffer) and not grad.flags.c_contiguous
    prior = small_integers(rng, (3, 4, 2))
    grad[...] = prior
    shared = [(small_integers(rng, (4, m)), small_integers(rng, (3, m, 2))) for m in (1, 5)]
    arrays = [small_integers(rng, (3, 4, 2)) for _ in range(2)]
    leaf = ad.Leaf(np.zeros((3, 4, 2)), grad)
    backward(hand_over(leaf, [shared[0], arrays[0], shared[1], arrays[1]]))
    want = prior + arrays[0] + arrays[1]
    for Xt, G in shared:
        for u in range(3):
            want[u] += Xt @ G[u]
    assert np.array_equal(buffer[:, 1:9].reshape(3, 4, 2), want)

    per_head = [(small_integers(rng, (3, 4, m)), small_integers(rng, (3, m, 2))) for m in (1, 3)]
    leaf = ad.Leaf(np.zeros((3, 4, 2)), np.zeros((3, 4, 2)))
    backward(hand_over(leaf, per_head))
    assert np.array_equal(leaf.grad, sum(np.stack([Xt[u] @ G[u] for u in range(3)])
                                         for Xt, G in per_head))


def test_a_leaf_reduces_every_kind_at_once():
    """One table gets a Scatter, pairs at m = 1 and m = 3 and two arrays,
    interleaved; the result is the sequence of adds, bit for bit."""
    rng = Rng(10)
    prior = small_integers(rng, (5, 3))
    contribs = [ad.Scatter(np.array([4, 1, 4]), small_integers(rng, (3, 3))),
                (small_integers(rng, (5, 1)), small_integers(rng, (1, 3))),
                small_integers(rng, (5, 3)),
                (small_integers(rng, (5, 3)), small_integers(rng, (3, 3))),
                ad.Scatter(np.array([0]), small_integers(rng, (1, 3))),
                small_integers(rng, (5, 3))]
    want = prior.copy()
    for c in contribs:
        if isinstance(c, ad.Scatter):
            np.add.at(want, c.idx, c.rows)
        elif isinstance(c, tuple):
            want += c[0] @ c[1]
        else:
            want += c
    leaf = ad.Leaf(np.zeros((5, 3)), prior.copy())
    backward(hand_over(leaf, contribs))
    assert np.array_equal(leaf.grad, want)
    plain = Var(np.zeros((5, 3)))
    backward(hand_over(plain, contribs))
    assert np.array_equal(plain.grad, want - prior)


def test_a_leaf_with_one_pair_and_one_array_gets_their_dense_sum():
    """Two edges into a Leaf, a matmul's (X^T, G) pair and a mul's plain
    array, leave a single array to reduce beside the product."""
    rng = Rng(11)
    X, C, prior = (small_integers(rng, shape) for shape in ((4, 3), (3, 2), (3, 2)))
    leaf = ad.Leaf(small_integers(rng, (3, 2)), prior.copy())
    backward(sum_(ad.matmul(X, leaf)) + sum_(ad.mul(leaf, C)))
    assert np.array_equal(leaf.grad, prior + X.T @ np.ones((4, 2)) + C)


def test_sum_squares_over_runs():
    rng = Rng(6)
    w, prior = rng.normal((10,)), rng.normal((10,))
    runs = ((0, 3), (5, 9))
    mask = np.zeros(10)
    mask[0:3] = mask[5:9] = 1.0
    leaf = ad.Leaf(w, prior.copy())
    out = ad.sum_squares(leaf, runs)
    assert abs(float(out.value) - float(np.sum(mask * w * w))) < 1e-14
    backward(ad.mul(out, 0.5))
    assert np.max(np.abs(leaf.grad - (prior + mask * w))) < 1e-15


@pytest.mark.parametrize("block", [1, 3, 4, 1 << 15])
def test_sum_squares_gradient_through_blocks_is_the_whole_range_expression(monkeypatch, block):
    """Ranges that start, end and split inside the scratch blocks: every
    entry gets exactly prior + scale * w, and nothing outside the ranges
    moves."""
    monkeypatch.setattr(ad, "L2_BLOCK", block)
    rng = Rng(7)
    w, prior = rng.normal((23,)), rng.normal((23,))
    runs = ((1, 2), (3, 11), (12, 13), (14, 22))
    leaf = ad.Leaf(w, prior.copy())
    backward(ad.mul(ad.sum_squares(leaf, runs), 0.3))
    want = prior.copy()
    for lo, hi in runs:
        want[lo:hi] += (2.0 * 0.3) * w[lo:hi]
    assert np.array_equal(leaf.grad, want)


def test_gather_rows_untouched_rows_get_zero_grad():
    a = Var(np.arange(12.0).reshape(4, 3))
    out = sum_(ad.gather_rows(a, [1, 1]))
    backward(out)
    assert np.array_equal(a.grad[0], np.zeros(3))
    assert np.array_equal(a.grad[1], np.full(3, 2.0))


def test_pick():
    check_grad(lambda a: ad.mul(pick(a, 2), pick(a, 0)), (5,))


def test_relu_softplus_exp():
    check_grad(lambda a: sum_(relu(a)), (7,), seed=3)
    check_grad(lambda a: sum_(softplus(a)), (7,))
    check_grad(lambda a: sum_(exp(a)), (5,))


def test_softmax_rows():
    check_grad(lambda a: sum_(ad.mul(softmax(a, axis=1),
                                        np.arange(12.0).reshape(3, 4))), (3, 4))


def test_logsumexp():
    check_grad(lambda a: logsumexp(a), (6,))


def test_logsumexp_matches_numpy():
    v = np.array([1.0, 2.0, 3.0])
    out = logsumexp(Var(v))
    assert abs(float(out.value) - np.log(np.sum(np.exp(v)))) < 1e-12


def test_circ_corr_1d_and_rows():
    check_grad(lambda pair: sum_(ad.circ_corr(pair)), (2, 5))
    check_grad(lambda pair: sum_(ad.mul(ad.circ_corr(pair), 0.7)), (2, 3, 4))


@pytest.mark.parametrize("d", [6, 7])
def test_circ_corr_gradient_at_even_and_odd_length(d):
    # An even d has a Nyquist bin, which the inverse DFT weighs once; an odd d has none.
    probe = Var(Rng(12).uniform((4, d), -1.0, 1.0))
    check_grad(lambda pair: sum_(ad.mul(ad.circ_corr(pair), probe)), (2, 4, d), seed=d)


@pytest.mark.parametrize("d", [1, 2, 4, 5, 16, 17, 64])
def test_circ_corr_matches_the_naive_oracle(d):
    rng = Rng(d)
    a, b = rng.normal((d,)), rng.normal((d,))
    out = ad.circ_corr(Var(np.stack((a, b)))).value
    assert out.shape == (d,)
    assert np.max(np.abs(out - circ_corr_naive(a, b))) < 1e-12
    A, B = rng.normal((3, d)), rng.normal((3, d))
    rows = ad.circ_corr(Var(np.stack((A, B)))).value
    assert rows.shape == (3, d)
    for i in range(3):
        assert np.max(np.abs(rows[i] - circ_corr_naive(A[i], B[i]))) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 16, 17])
def test_real_dft_interleaved_layout(d):
    """x @ F viewed as complex128 is rfft(x), and the float64 view of a
    complex spectrum S times Finv is irfft(S, n=d); both matrices are read-only."""
    F, Finv = ad._real_dft(d)
    rng = Rng(d)
    x = rng.uniform((4, d), -1.0, 1.0)
    assert np.max(np.abs((x @ F).view(np.complex128) - np.fft.rfft(x))) < 1e-12
    S = np.fft.rfft(rng.uniform((4, d), -1.0, 1.0))
    S[:, 0] += 0.3j  # an imaginary part that irfft drops, as Finv must too
    assert np.max(np.abs(S.view(np.float64) @ Finv - np.fft.irfft(S, n=d))) < 1e-12
    assert not F.flags.writeable and not Finv.flags.writeable


def test_circ_corr_shape_mismatch():
    """The operand must be one (2, ..., d) pair: a leading axis other than 2,
    or a pair of scalars, is refused."""
    for shape in [(3, 4), (1, 4), (3, 2, 4), (2,)]:
        with pytest.raises(ValueError, match=r"expected a \(2, \.\.\., d\) pair"):
            ad.circ_corr(Var(np.zeros(shape)))


def test_shared_subexpression_accumulates():
    x = Var(np.array([2.0]))
    y = ad.mul(x, x) + ad.mul(x, 3.0)  # x^2 + 3x -> grad 2x + 3 = 7
    backward(sum_(y))
    assert abs(x.grad[0] - 7.0) < 1e-12


def test_backward_requires_scalar():
    with pytest.raises(ValueError, match="scalar"):
        backward(Var(np.zeros(3)))


def test_multi_parent_node_calls_its_vjp_once_per_pass_and_drops_the_results():
    calls, weak = [], []

    def vjp(g):
        calls.append(g)
        contribs = (np.full(2, float(g)), np.full(3, 2.0 * float(g)))
        weak[:] = [weakref.ref(c) for c in contribs]
        return contribs

    a, b = ad.Leaf(np.ones(2), np.zeros(2)), ad.Leaf(np.ones(3), np.zeros(3))
    out = Var(np.asarray(5.0), (a, b), vjp)
    backward(out)
    assert len(calls) == 1
    assert np.array_equal(a.grad, np.ones(2)) and np.array_equal(b.grad, np.full(3, 2.0))
    assert len(weak) == 2 and all(ref() is None for ref in weak)  # freed, tape still alive
    backward(out)
    assert len(calls) == 2


@pytest.mark.parametrize("m", [1, 5])
@pytest.mark.parametrize("scale", [False, True])
def test_fused_dual_attention(m, scale):
    U, a_w, d = 2, 6, 4
    probe = Var(Rng(7).uniform((U * d,), -1.0, 1.0))
    check_grad(lambda h, Wa, *rows: ad.matmul(
                   dual_attention_var(h, Wa, rows[:U], rows[U:], scale)[0], probe),
               (a_w,), (U, a_w, d), *[(2, m, d)] * U, *[(m, d)] * U, seed=m)


@pytest.mark.parametrize("m", [1, 5])
@pytest.mark.parametrize("V", [1, 3])
def test_fused_relational_heads(m, V):
    e_w, d_model, d = 6, 5, 4
    shapes = [(m, d_model), (m, e_w), (V, d_model, d), (V, e_w, d), (V, d), (V, d, 1)]
    _, E, _, W1, b1 = inputs(*shapes, seed=m)[:5]
    assert np.min(np.abs(np.matmul(E, W1) + b1[:, None])) > 1e-3  # off the relu kinks
    probe = Var(Rng(8).uniform((V * d,), -1.0, 1.0))
    check_grad(lambda H, E, *w: ad.matmul(relational_head_var(H, E, RelHeads(*w))[0], probe),
               *shapes, seed=m)


@pytest.mark.parametrize("n, start, stop", [(1, 0, 1), (5, 0, 2), (5, 4, 5), (6, 1, 6)])
def test_sum_rows(n, start, stop):
    probe = Var(Rng(14).uniform((3,), -1.0, 1.0))
    for scale in (1.0, 1.0 / (stop - start)):
        check_grad(lambda a: ad.matmul(ad.sum_rows(a, start, stop, scale), probe), (n, 3),
                   seed=n)
    a = Var(Rng(15).uniform((n, 3), -1.0, 1.0))
    rows = ad.gather_rows(a, range(start, stop))
    assert np.array_equal(ad.sum_rows(a, start, stop).value, sum_(rows, axis=0).value)
    assert np.array_equal(ad.sum_rows(a, start, stop, 1.0 / (stop - start)).value,
                          mean(rows, axis=0).value)


def test_gather_concat():
    slots = np.array([[0, 2], [3, 3], [1, 0]])  # rows repeat within and across edges
    hops = np.array([1, 0, 1])
    probe = Var(Rng(16).uniform((3, 2 * 3 + 2), -1.0, 1.0))
    check_grad(lambda tag, hop: sum_(ad.mul(ad.gather_concat(((tag, slots), (hop, hops))),
                                            probe)), (4, 3), (2, 2))
    tag, hop = inputs((4, 3), (2, 2))
    rows = ad.concat([reshape(ad.gather_rows(Var(tag), slots.reshape(-1)), (3, 6)),
                      ad.gather_rows(Var(hop), hops)], axis=1)
    assert np.array_equal(ad.gather_concat(((tag, slots), (hop, hops))).value, rows.value)


def test_gather_concat_adds_into_leaf_gradients():
    rng = Rng(17)
    tag, hop = rng.normal((4, 3)), rng.normal((2, 2))
    prior_tag, prior_hop = rng.normal((4, 3)), rng.normal((2, 2))
    slots, hops = np.array([[0, 2], [2, 2]]), np.array([1, 1])
    g = rng.normal((2, 8))
    leaves = ad.Leaf(tag, prior_tag.copy()), ad.Leaf(hop, prior_hop.copy())
    out = ad.gather_concat(((leaves[0], slots), (leaves[1], hops)))
    backward(sum_(ad.mul(out, Var(g))))
    dense_tag, dense_hop = np.zeros((4, 3)), np.zeros((2, 2))
    np.add.at(dense_tag, slots.reshape(-1), g[:, :6].reshape(4, 3))
    np.add.at(dense_hop, hops, g[:, 6:])
    assert np.allclose(leaves[0].grad, prior_tag + dense_tag, rtol=0, atol=1e-15)
    assert np.allclose(leaves[1].grad, prior_hop + dense_hop, rtol=0, atol=1e-15)
    assert np.array_equal(leaves[0].grad[[1, 3]], prior_tag[[1, 3]])  # rows not gathered
    assert np.array_equal(leaves[1].grad[0], prior_hop[0])


@pytest.mark.parametrize("gold", [0, 2])
def test_cross_entropy(gold):
    check_grad(lambda z: ad.cross_entropy(z, gold), (3,), seed=gold)
    z = Var(np.array([1.0, -2.0, 0.5]))
    want = sub(logsumexp(z), pick(z, gold))
    assert ad.cross_entropy(z, gold).value == want.value
    with pytest.raises(ValueError, match="1-D"):
        ad.cross_entropy(Var(np.zeros((1, 3))), 0)


@pytest.mark.parametrize("n, span", [(1, (0, 0)), (5, (0, 1)), (5, (4, 4)), (6, (2, 3))])
@pytest.mark.parametrize("normalize", [False, True])
def test_fused_gaussian_mask(n, span, normalize):
    d, d_hid = 6, 4
    shapes = [(n, d), (d, d_hid), (d_hid,), (d_hid, 1), (1,)]
    H, W1, b1 = inputs(*shapes, seed=n)[:3]
    assert np.min(np.abs(H.mean(axis=0) @ W1 + b1)) > 1e-3  # off the relu kinks
    probe = Var(Rng(9).uniform((n, d), -1.0, 1.0))
    check_grad(lambda H, *w: sum_(ad.mul(
        gaussian_mask_var(H, *w, span, interval=0.5, normalize=normalize)[0], probe)),
        *shapes, seed=n)


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("variant", ["covariance", "original"])
def test_fused_local_attention(n, heads, variant):
    d, d_k = 6, 4
    probe = Var(Rng(10).uniform((n, d_k), -1.0, 1.0))
    check_grad(lambda X, *w: sum_(ad.mul(attention_var(X, *w, variant, heads)[0], probe)),
               (n, d), (d, d_k), (d, d_k), (d, d_k), seed=n)


@pytest.mark.parametrize("n, span", [(1, (0, 0)), (5, (0, 1)), (5, (3, 4))])
def test_local_forward_without_the_mask(n, span):
    d, d_k = 6, 4
    probe = Var(Rng(11).uniform((d_k,), -1.0, 1.0))
    check_grad(lambda H, *w: ad.matmul(local_forward_var(
        H, span, (), w, interval=0.2, use_mask=False, heads=2)[0], probe),
        (n, d), (d, d_k), (d, d_k), (d, d_k), seed=n)
