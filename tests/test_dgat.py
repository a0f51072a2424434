import math
from dataclasses import dataclass

import numpy as np
import pytest

from gdd import autodiff as ad
from gdd import dgat as dg
from gdd.autodiff import Leaf, Var
from gdd.data import generate_synthetic
from gdd.dgat import (
    DgatLayerParams,
    DualHeadParams,
    RelHeads,
    _edge_weights,
    _node_weights,
    dgat_layer_var,
    dual_attention_var,
    dual_head_var,
    global_forward_var,
    relation_update_var,
    relational_head_var,
)
from gdd.model import REL_FIELDS, Model, ModelConfig, dgat_layer_params
from gdd.numeric import Rng
from gdd.training import batch_grads

from oracles import array_softmax as softmax
from oracles import circ_corr_fft, relu, reshape, stack
from oracles import softmax as tape_softmax


# Reference heads built from one small tape op per step, each with its own
# VJP. The heads of gdd.dgat must reproduce them in value and gradient.

@dataclass
class DualHead:
    """One dual-level head's own tensors, as the oracles read them. The
    library keeps We and Wi per head (DualHeadParams) and stacks a layer's
    Wa over its heads (DgatLayerParams.Wa)."""
    Wa: np.ndarray  # a_width x d_head
    We: np.ndarray  # d_edge x d_head
    Wi: np.ndarray  # d_model x d_head


def _maybe_scale_oracle(logits, d_head, scale):
    return ad.mul(logits, 1.0 / math.sqrt(d_head)) if scale else logits


def target_edge_attention_oracle(h_a, E, Wa, We, scale=False):
    a_proj = ad.matmul(h_a, Wa)
    e_proj = ad.matmul(E, We)
    logits = ad.matmul(e_proj, a_proj)
    return tape_softmax(_maybe_scale_oracle(logits, a_proj.value.shape[0], scale), axis=-1)


def target_node_attention_oracle(h_a, H_N, beta, Wa, Wi, scale=False):
    a_proj = ad.matmul(h_a, Wa)
    n_proj = ad.matmul(H_N, Wi)
    logits = ad.mul(beta, ad.matmul(n_proj, a_proj))
    return tape_softmax(_maybe_scale_oracle(logits, a_proj.value.shape[0], scale), axis=-1)


def dual_head_oracle(h_a, H_N, E, p, scale=False):
    beta = target_edge_attention_oracle(h_a, E, p.Wa, p.We, scale)
    omega = target_node_attention_oracle(h_a, H_N, beta, p.Wa, p.Wi, scale)
    n_proj = ad.matmul(H_N, p.Wi)
    e_proj = ad.matmul(E, p.We)
    composed = ad.circ_corr(stack([n_proj, e_proj]))
    return ad.matmul(omega, composed), beta, omega


def relational_head_oracle(H_N, E, p, b2):
    """One relational head as the paper writes it, its output bias b2 added
    to every logit; p holds that head's own (unstacked) tensors. The heads
    of gdd.dgat do not read b2, a softmax shift, and must match this."""
    hidden = relu(ad.matmul(E, p.W1) + p.b1)
    logits = reshape(ad.matmul(hidden, p.W2), (-1,)) + b2
    rho = tape_softmax(logits, axis=-1)
    return ad.matmul(rho, ad.matmul(H_N, p.Wv)), rho


def one_head(heads, v):
    """Head v of a RelHeads stack, its fields indexed out of the stack."""
    return RelHeads(*(w[v] for w in vars(heads).values()))


def edge_weights(h_a, E, p, scale=False):
    """beta of the dual attention node's kernel for one head p."""
    return _edge_weights((E @ p.We) @ (h_a @ p.Wa), p.Wa.shape[1], scale)


def node_weights(h_a, H_N, beta, p, scale=False):
    """omega of the dual attention node's kernel for one head p and a given beta."""
    return _node_weights((H_N @ p.Wi) @ (h_a @ p.Wa), beta, p.Wa.shape[1], scale)


def dual_family_var(h_a, H_N, E, Wa, heads, scale=False):
    """A layer's dual heads as the library runs them: dual_head_var per head
    (DualHeadParams), then one dual_attention_var node with the Wa stack."""
    pairs, composeds = zip(*(dual_head_var(H_N, E, p) for p in heads))
    return dual_attention_var(h_a, Wa, pairs, composeds, scale)


def one_dual_head_var(h_a, H_N, E, p, scale=False):
    """One DualHead p through the library, its Wa a stack of one head.
    Returns (output, beta, omega), the weights as arrays of length m."""
    out, beta, omega = dual_family_var(h_a, H_N, E, reshape(p.Wa, (1,) + p.Wa.shape),
                                       [DualHeadParams(p.We, p.Wi)], scale)
    return out, beta[0], omega[0]


def one_dual(layer, u):
    """Dual head u of a DgatLayerParams as a DualHead."""
    return DualHead(layer.Wa[u], layer.dual[u].We, layer.dual[u].Wi)


def dual_head_out(h_a, H_N, E, p):
    return one_dual_head_var(Var(h_a), Var(H_N), Var(E), p)[0].value


def rel_head_out(H_N, E, p):
    return relational_head_var(Var(H_N), Var(E), p)[0].value


def layer_out(h_a, H_N, E, layer):
    """dgat_layer_var's (output value, beta, omega, rho)."""
    h, beta, omega, rho = dgat_layer_var(Var(h_a), Var(H_N), Var(E), layer, d_head=4)
    return h.value, beta, omega, rho


WEIGHTS = ("beta", "omega", "rho")


def make_dual(rng, a_w=6, e_w=8, d_model=6, d_head=4):
    return DualHead(Wa=rng.uniform((a_w, d_head), -0.5, 0.5),
                    We=rng.uniform((e_w, d_head), -0.5, 0.5),
                    Wi=rng.uniform((d_model, d_head), -0.5, 0.5))


def make_rel_with_b2(rng, e_w=8, d_model=6, d_head=4, V=1):
    """V relational heads, drawn head by head and stacked field by field,
    and their output biases b2 (V x 1), which the heads do not read."""
    drawn = [[rng.uniform(s, -0.5, 0.5)
              for s in [(d_model, d_head), (e_w, d_head), (d_head,), (d_head, 1), (1,)]]
             for _ in range(V)]
    *fields, b2 = (np.stack(field) for field in zip(*drawn))
    return RelHeads(*fields), b2


def make_rel(rng, e_w=8, d_model=6, d_head=4, V=1):
    return make_rel_with_b2(rng, e_w, d_model, d_head, V)[0]


def make_layer(rng, a_w=6, e_w=8, d_model=6, d_head=4, U=1, V=1, e_out=6):
    heads = [make_dual(rng, a_w, e_w, d_model, d_head) for _ in range(U)]
    return DgatLayerParams(
        dual=[DualHeadParams(h.We, h.Wi) for h in heads],
        Wa=np.stack([h.Wa for h in heads]) if U else None,
        rel=make_rel(rng, e_w, d_model, d_head, V) if V else None,
        Wr=rng.uniform((e_w, e_out), -0.5, 0.5))


class TestTargetEdgeAttention:
    def test_single_edge(self):
        rng = Rng(0)
        p = make_dual(rng)
        beta = edge_weights(rng.uniform((6,)), rng.uniform((1, 8)), p)
        assert np.allclose(beta, [1.0])

    def test_identical_edges_uniform(self):
        rng = Rng(1)
        p = make_dual(rng)
        E = np.tile(rng.uniform((1, 8)), (2, 1))
        beta = edge_weights(rng.uniform((6,)), E, p)
        assert np.allclose(beta, [0.5, 0.5], atol=1e-15)

    def test_three_edge_hand_example(self):
        rng = Rng(2)
        p = make_dual(rng)
        h_a = rng.uniform((6,), -1, 1)
        E = rng.uniform((3, 8), -1, 1)
        logits = np.array([(h_a @ p.Wa) @ (E[i] @ p.We) for i in range(3)])
        assert np.allclose(edge_weights(h_a, E, p), softmax(logits), atol=1e-12)

    def test_dual_head_returns_the_kernel_weights(self):
        rng = Rng(2)
        p = make_dual(rng)
        h_a, H_N, E = (rng.uniform(s, -1, 1) for s in [(6,), (3, 6), (3, 8)])
        _, beta, omega = one_dual_head_var(Var(h_a), Var(H_N), Var(E), p)
        # the node takes its node logits, then its edge logits, from one
        # product of the stacked projection rows with h_a Wa
        logits = np.concatenate((H_N @ p.Wi, E @ p.We)) @ (h_a @ p.Wa)
        assert np.array_equal(beta, _edge_weights(logits[3:], 4, False))
        assert np.array_equal(omega, _node_weights(logits[:3], beta, 4, False))


class TestTargetNodeAttention:
    def test_uniform_beta_identical_neighbors(self):
        rng = Rng(4)
        p = make_dual(rng)
        H_N = np.tile(rng.uniform((1, 6)), (3, 1))
        omega = node_weights(rng.uniform((6,)), H_N, np.full(3, 1 / 3), p)
        assert np.allclose(omega, np.full(3, 1 / 3), atol=1e-15)

    def test_single_neighbor(self):
        rng = Rng(5)
        p = make_dual(rng)
        omega = node_weights(rng.uniform((6,)), rng.uniform((1, 6)), np.array([1.0]), p)
        assert np.allclose(omega, [1.0])

    def test_beta_multiplies_logits_never_masks(self):
        rng = Rng(6)
        p = make_dual(rng)
        h_a = rng.uniform((6,), -1, 1)
        H_N = rng.uniform((2, 6), -1, 1)
        beta = np.array([1.0, 0.0])
        dots = np.array([(h_a @ p.Wa) @ (H_N[i] @ p.Wi) for i in range(2)])
        # a zero beta leaves logit 0, which still takes softmax mass
        expected = softmax(np.array([dots[0], 0.0]))
        assert np.allclose(node_weights(h_a, H_N, beta, p), expected, atol=1e-12)


class TestDualHead:
    def test_single_neighbor_is_composition(self):
        rng = Rng(7)
        p = make_dual(rng)
        h_a = rng.uniform((6,), -1, 1)
        H_N = rng.uniform((1, 6), -1, 1)
        E = rng.uniform((1, 8), -1, 1)
        out = dual_head_out(h_a, H_N, E, p)
        expected = circ_corr_fft(H_N[0] @ p.Wi, E[0] @ p.We)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_impulse_node_returns_edge_operand(self):
        # corr(delta_0, b) = b: the identity sits on the first (conjugated)
        # operand, which is the node side of the composition
        rng = Rng(8)
        d_head = 4
        p = DualHead(Wa=rng.uniform((6, d_head)), We=rng.uniform((d_head, d_head)),
                     Wi=np.eye(d_head))
        h_a = rng.uniform((6,))
        H_N = np.zeros((1, d_head))
        H_N[0, 0] = 1.0  # projects to the impulse through Wi = I
        E = rng.uniform((1, d_head))
        out = dual_head_out(h_a, H_N, E, p)
        assert np.max(np.abs(out - E[0] @ p.We)) < 1e-12

    def test_impulse_edge_reverses_node_operand(self):
        # with the impulse on the edge side the node operand comes back
        # index-reversed (out[k] = a[(d-k) % d]); operand order matters
        rng = Rng(8)
        d_head = 4
        p = DualHead(Wa=rng.uniform((6, d_head)), We=np.eye(d_head),
                     Wi=rng.uniform((6, d_head)))
        h_a = rng.uniform((6,))
        H_N = rng.uniform((1, 6))
        E = np.zeros((1, d_head))
        E[0, 0] = 1.0
        out = dual_head_out(h_a, H_N, E, p)
        n_proj = H_N[0] @ p.Wi
        reversed_ = n_proj[(-np.arange(d_head)) % d_head]
        assert np.max(np.abs(out - reversed_)) < 1e-12

    def test_three_neighbor_loop_oracle(self):
        rng = Rng(9)
        p = make_dual(rng)
        h_a = rng.uniform((6,), -1, 1)
        H_N = rng.uniform((3, 6), -1, 1)
        E = rng.uniform((3, 8), -1, 1)

        a_proj = h_a @ p.Wa
        beta = softmax(np.array([a_proj @ (E[i] @ p.We) for i in range(3)]))
        omega = softmax(beta * np.array([a_proj @ (H_N[i] @ p.Wi) for i in range(3)]))
        expected = np.zeros(4)
        for i in range(3):
            expected += omega[i] * circ_corr_fft(H_N[i] @ p.Wi, E[i] @ p.We)
        assert np.max(np.abs(dual_head_out(h_a, H_N, E, p) - expected)) < 1e-12


class TestRelationalHead:
    def test_identical_edges_uniform_rho(self):
        rng = Rng(10)
        p = make_rel(rng)
        E = np.tile(rng.uniform((1, 8)), (4, 1))
        H_N = rng.uniform((4, 6), -1, 1)
        out = rel_head_out(H_N, E, p)
        expected = np.mean(H_N @ p.Wv[0], axis=0)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_single_neighbor(self):
        rng = Rng(11)
        p = make_rel(rng)
        H_N = rng.uniform((1, 6))
        out = rel_head_out(H_N, rng.uniform((1, 8)), p)
        assert np.max(np.abs(out - H_N[0] @ p.Wv[0])) < 1e-12

    def test_two_neighbor_hand_example(self):
        rng = Rng(12)
        stack, b2 = make_rel_with_b2(rng)
        p = one_head(stack, 0)
        H_N = rng.uniform((2, 6), -1, 1)
        E = rng.uniform((2, 8), -1, 1)
        logits = np.array([
            float((np.maximum(E[i] @ p.W1 + p.b1, 0.0) @ p.W2 + b2[0])[0])
            for i in range(2)
        ])
        rho = softmax(logits)
        expected = rho[0] * (H_N[0] @ p.Wv) + rho[1] * (H_N[1] @ p.Wv)
        assert np.max(np.abs(rel_head_out(H_N, E, stack) - expected)) < 1e-12


class TestRelationUpdate:
    def test_identity(self):
        E = Rng(13).uniform((3, 4))
        assert np.array_equal(relation_update_var(Var(E), np.eye(4)).value, E)

    def test_zero(self):
        E = Rng(14).uniform((3, 4))
        assert np.array_equal(relation_update_var(Var(E), np.zeros((4, 2))).value,
                              np.zeros((3, 2)))

    def test_matches_matmul_oracle(self):
        rng = Rng(15)
        E = rng.uniform((5, 4), -1, 1)
        Wr = rng.uniform((4, 6), -1, 1)
        assert np.max(np.abs(relation_update_var(Var(E), Wr).value - E @ Wr)) < 1e-15


class TestDgatLayer:
    def test_compositional_oracle_u1_v1_m1(self):
        rng = Rng(16)
        layer = make_layer(rng)
        h_a = rng.uniform((6,), -1, 1)
        H_N = rng.uniform((1, 6), -1, 1)
        E = rng.uniform((1, 8), -1, 1)
        h_next, *weights = layer_out(h_a, H_N, E, layer)
        expected = np.concatenate([
            dual_head_out(h_a, H_N, E, one_dual(layer, 0)),
            rel_head_out(H_N, E, layer.rel),
        ])
        assert np.max(np.abs(h_next - expected)) < 1e-12
        assert [w.shape for w in weights] == [(1, 1)] * 3  # not the empty graph's []

    def test_output_width_any_m(self):
        rng = Rng(17)
        layer = make_layer(rng, U=2, V=1)
        for m in (1, 3, 6):
            h, *_ = layer_out(Rng(0).uniform((6,)), Rng(1).uniform((m, 6)),
                              Rng(2).uniform((m, 8)), layer)
            assert h.shape == (12,)

    def test_empty_graph_zero_vector_flagged(self):
        layer = make_layer(Rng(18))
        h, *weights = layer_out(np.ones(6), np.zeros((0, 6)), np.zeros((0, 8)), layer)
        assert np.array_equal(h, np.zeros(8))
        assert weights == [[], [], []]
        _, trace = global_forward_var(Var(np.ones(6)), Var(np.zeros((0, 6))),
                                      Var(np.zeros((0, 8))), [layer], d_head=4)
        assert trace["empty"] is True

    def test_single_layer_stack_equals_one_layer_call(self):
        rng = Rng(25)
        layer = make_layer(rng)
        h_a = rng.uniform((6,), -1, 1)
        H_N = rng.uniform((3, 6), -1, 1)
        E = rng.uniform((3, 8), -1, 1)
        stacked, trace = global_forward_var(Var(h_a), Var(H_N), Var(E), [layer],
                                            d_head=4)
        single, *weights = layer_out(h_a, H_N, E, layer)
        assert np.array_equal(stacked.value, single)
        for key, w in zip(WEIGHTS, weights, strict=True):
            assert len(trace[key]) == 1
            assert np.array_equal(trace[key][0], w), key
        assert trace["empty"] is False

    def test_two_stacked_layers_plumb(self):
        rng = Rng(19)
        layer0 = make_layer(rng, a_w=6, e_w=8, e_out=6)
        layer1 = make_layer(rng, a_w=8, e_w=6, e_out=6)
        h_a = Var(rng.uniform((6,)))
        H_N = Var(rng.uniform((2, 6)))
        E = Var(rng.uniform((2, 8)))
        h, trace = global_forward_var(h_a, H_N, E, [layer0, layer1], d_head=4)
        assert h.value.shape == (8,)
        assert [len(trace[key]) for key in WEIGHTS] == [2, 2, 2]

    def test_probability_vectors(self):
        rng = Rng(20)
        layer = make_layer(rng, U=2, V=2)
        _, beta, omega, rho = layer_out(rng.uniform((6,)), rng.uniform((5, 6)),
                                        rng.uniform((5, 8)), layer)
        assert beta.shape == omega.shape == rho.shape == (2, 5)
        for coeffs in [*beta, *omega, *rho]:
            assert isinstance(coeffs, np.ndarray) and coeffs.shape == (5,)
            assert np.all(coeffs >= 0)
            assert abs(coeffs.sum() - 1.0) < 1e-12

    def test_neighbor_permutation_invariance(self):
        rng = Rng(21)
        layer = make_layer(rng, U=2, V=2)
        h_a = rng.uniform((6,), -1, 1)
        H_N = rng.uniform((5, 6), -1, 1)
        E = rng.uniform((5, 8), -1, 1)
        base, *_ = layer_out(h_a, H_N, E, layer)
        perm = Rng(22).permutation(5)
        shuffled, *_ = layer_out(h_a, H_N[perm], E[perm], layer)
        assert np.max(np.abs(base - shuffled)) < 1e-12

    def test_scale_logits_changes_attention(self):
        rng = Rng(23)
        p = make_dual(rng)
        h_a = rng.uniform((6,), -1, 1)
        E = rng.uniform((3, 8), -1, 1)
        plain = edge_weights(h_a, E, p, scale=False)
        scaled = edge_weights(h_a, E, p, scale=True)
        logits = np.array([(h_a @ p.Wa) @ (E[i] @ p.We) for i in range(3)])
        assert np.allclose(scaled, softmax(logits / math.sqrt(4)), atol=1e-12)
        assert not np.allclose(plain, scaled)


def global_forward_updating_every_layer(h_a, H_N, E, layers, d_head):
    """The layer stack as it ran when every layer, the last one included,
    updated the edges; nothing reads the last update."""
    trace = {key: [] for key in WEIGHTS}
    for layer in layers:
        h_a, *weights = dgat_layer_var(h_a, H_N, E, layer, d_head)
        if H_N.value.shape[0]:
            E = relation_update_var(E, layer.Wr)
        for key, w in zip(WEIGHTS, weights):
            trace[key].append(w)
    return h_a, trace


def _as_vars(layer):
    return DgatLayerParams(dual=[DualHeadParams(*map(Var, vars(p).values())) for p in layer.dual],
                           Wa=Var(layer.Wa), rel=RelHeads(*map(Var, vars(layer.rel).values())),
                           Wr=Var(layer.Wr))


class TestRelationUpdateBetweenLayersOnly:
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_runs_l_minus_1_times_with_identical_outputs_and_gradients(self, L, monkeypatch):
        rng = Rng(30 + L)
        layers = [make_layer(rng, a_w=6 if l == 0 else 8, e_w=8 if l == 0 else 6)
                  for l in range(L)]
        graph = [rng.uniform(s, -1, 1) for s in [(6,), (4, 6), (4, 8)]]
        probe = rng.uniform((8,), -1, 1)

        def run(forward):
            inputs = [Var(v) for v in graph]
            params = [_as_vars(layer) for layer in layers]
            h, trace = forward(*inputs, params, d_head=4)
            ad.backward(ad.matmul(h, Var(probe)))
            tensors = (inputs + [w for p in params for heads in p.dual + [p.rel]
                                 for w in vars(heads).values()]
                       + [p.Wa for p in params] + [p.Wr for p in params])
            return h.value, trace, [t.grad for t in tensors]

        calls = []
        monkeypatch.setattr(dg, "relation_update_var",
                            lambda E, Wr: calls.append(Wr) or relation_update_var(E, Wr))
        got = run(global_forward_var)
        assert len(calls) == L - 1
        want = run(global_forward_updating_every_layer)
        assert np.array_equal(got[0], want[0])
        for key in WEIGHTS:
            for a, b in zip(got[1][key], want[1][key], strict=True):
                assert np.array_equal(a, b), key
        for g, w in zip(got[2], want[2], strict=True):
            assert (g is None and w is None) or np.array_equal(g, w)
        assert got[2][-1] is None  # the last layer's Wr reaches no output

    def test_no_update_over_an_empty_graph(self, monkeypatch):
        rng = Rng(34)
        layers = [make_layer(rng, a_w=6, e_w=8), make_layer(rng, a_w=8, e_w=6)]
        calls = []
        monkeypatch.setattr(dg, "relation_update_var", lambda *a: calls.append(a))
        h, trace = global_forward_var(Var(np.ones(6)), Var(np.zeros((0, 6))),
                                      Var(np.zeros((0, 8))), layers, d_head=4)
        assert np.array_equal(h.value, np.zeros(8))
        assert trace == {"beta": [[], []], "omega": [[], []], "rho": [[], []], "empty": True}
        assert calls == []


class TestGlobalForwardGradients:
    def test_layer_gradients_match_finite_differences(self):
        from gdd.numeric import finite_diff_grad

        rng = Rng(24)
        h_a_val = rng.uniform((6,), -1, 1)
        H_N_val = rng.uniform((4, 6), -1, 1)
        E_val = rng.uniform((4, 8), -1, 1)
        probe = rng.uniform((8,), -1, 1)

        names = ["Wa", "We", "Wi", "Wv", "W1", "b1", "W2", "Wr"]
        shapes = [(1, 6, 4), (8, 4), (6, 4), (1, 6, 4), (1, 8, 4), (1, 4), (1, 4, 1), (8, 6)]
        values = [rng.uniform(s, -0.5, 0.5) for s in shapes]

        def run(vals):
            leaves = [Var(v) for v in vals]
            layer = DgatLayerParams(
                dual=[DualHeadParams(*leaves[1:3])],
                Wa=leaves[0],
                rel=RelHeads(*leaves[3:7]),
                Wr=leaves[7])
            h, _ = global_forward_var(Var(h_a_val), Var(H_N_val), Var(E_val),
                                      [layer], d_head=4)
            return ad.matmul(h, Var(probe)), leaves

        out, leaves = run(values)
        ad.backward(out)
        for i, name in enumerate(names):
            def f(x):
                return float(run([x if j == i else values[j]
                                  for j in range(len(values))])[0].value)

            numeric = finite_diff_grad(f, values[i])
            analytic = leaves[i].grad
            if analytic is None:
                analytic = np.zeros_like(values[i])
            scale = max(np.max(np.abs(numeric)), np.max(np.abs(analytic)), 1e-6)
            assert np.max(np.abs(analytic - numeric)) / scale < 1e-4, name


def _close(got, want, tol=1e-12):
    return np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))


def _run_head(head, graph, params_cls, param_values, probe):
    """Value, returned weights and the gradient of every input (graph tensors,
    then parameters) of probe . head(*graph, params)."""
    graph_vars = [Var(v) for v in graph]
    param_vars = [Var(v) for v in param_values]
    out, *weights = head(*graph_vars, params_cls(*param_vars))
    ad.backward(ad.matmul(out, Var(probe)))
    grads = [v.grad for v in graph_vars + param_vars]
    return out.value, [getattr(w, "value", w) for w in weights], grads


class TestFusedHeadsAgainstOracle:
    @pytest.mark.parametrize("m", [1, 5])
    @pytest.mark.parametrize("scale", [False, True])
    def test_dual_head_value_and_every_gradient(self, m, scale):
        rng = Rng(40 + m)
        graph = [rng.uniform(s, -1, 1) for s in [(6,), (m, 6), (m, 8)]]
        params = [rng.uniform(s, -1, 1) for s in [(6, 4), (8, 4), (6, 4)]]
        probe = rng.uniform((4,), -1, 1)
        got, want = (_run_head(lambda *a: head(*a, scale=scale), graph, DualHead,
                               params, probe)
                     for head in (one_dual_head_var, dual_head_oracle))
        assert _close(got[0], want[0])
        for g, w in zip(got[1], want[1], strict=True):  # beta, omega
            assert _close(g, w)
        for name, g, w in zip(["h_a", "H_N", "E", "Wa", "We", "Wi"], got[2], want[2], strict=True):
            assert _close(g, w), name

    @pytest.mark.parametrize("m", [1, 5])
    @pytest.mark.parametrize("U", [1, 3])
    @pytest.mark.parametrize("scale", [False, True])
    def test_dual_family_value_every_weight_and_every_gradient(self, scale, U, m):
        """The layer's dual attention node, over its U dual_head_var calls,
        against U per-head oracles: the outputs side by side, each head's
        beta and omega, and every input gradient (h_a, H_N and E sum their
        heads' terms; the Wa stack holds each head's own gradient)."""
        rng = Rng(80 + 10 * U + m)
        graph = [rng.uniform(s, -1, 1) for s in [(6,), (m, 6), (m, 8)]]
        heads = [[rng.uniform(s, -1, 1) for s in [(6, 4), (8, 4), (6, 4)]] for _ in range(U)]
        probe = Var(rng.uniform((U * 4,), -1, 1))
        inputs, Wa = [Var(x) for x in graph], Var(np.stack([h[0] for h in heads]))
        own = [DualHeadParams(Var(We), Var(Wi)) for _, We, Wi in heads]
        out, beta, omega = dual_family_var(*inputs, Wa, own, scale)
        ad.backward(ad.matmul(out, probe))
        o_inputs, o_heads = [Var(x) for x in graph], [DualHead(*map(Var, h)) for h in heads]
        o_outs, o_betas, o_omegas = zip(*(dual_head_oracle(*o_inputs, p, scale) for p in o_heads))
        o_out = ad.concat(o_outs)
        ad.backward(ad.matmul(o_out, probe))
        assert _close(out.value, o_out.value)
        assert beta.shape == omega.shape == (U, m)
        for u in range(U):
            assert _close(beta[u], o_betas[u].value) and _close(omega[u], o_omegas[u].value), u
        for name, x, o in zip(["h_a", "H_N", "E"], inputs, o_inputs, strict=True):
            assert _close(x.grad, o.grad), name
        assert _close(Wa.grad, np.stack([p.Wa.grad for p in o_heads])), "Wa"
        for u, (p, o) in enumerate(zip(own, o_heads, strict=True)):
            assert _close(p.We.grad, o.We.grad) and _close(p.Wi.grad, o.Wi.grad), u

    @pytest.mark.parametrize("m", [1, 5])
    @pytest.mark.parametrize("V", [1, 2, 3])
    def test_relational_family_value_every_rho_and_every_gradient(self, m, V):
        """The family node against V per-head oracles: the outputs side by
        side, each head's rho, and every input gradient (H_N and E sum their
        heads' terms; a weight stack holds each head's own gradient). The
        oracles add their b2; the family does not read it, and matching
        shows that the shift changes nothing."""
        rng = Rng(50 + 10 * V + m)
        graph = [rng.uniform(s, -1, 1) for s in [(m, 6), (m, 8)]]
        *stacks, b2 = [rng.uniform((V,) + s, -1, 1) for s in [(6, 4), (8, 4), (4,), (4, 1), (1,)]]
        probe = Var(rng.uniform((V * 4,), -1, 1))
        inputs, weights = [Var(x) for x in graph], [Var(w) for w in stacks]
        out, rho = relational_head_var(*inputs, RelHeads(*weights))
        ad.backward(ad.matmul(out, probe))
        o_inputs = [Var(x) for x in graph]
        o_weights = [[Var(w[v]) for w in stacks] for v in range(V)]
        o_b2 = [Var(b2[v]) for v in range(V)]
        o_outs, o_rhos = zip(*(relational_head_oracle(*o_inputs, RelHeads(*o_weights[v]), o_b2[v])
                               for v in range(V)))
        o_out = ad.concat(o_outs)
        ad.backward(ad.matmul(o_out, probe))
        assert _close(out.value, o_out.value)
        assert rho.shape == (V, m)
        for v in range(V):
            assert _close(rho[v], o_rhos[v].value), v
        for name, x, o in zip(["H_N", "E"], inputs, o_inputs, strict=True):
            assert _close(x.grad, o.grad), name
        for i, name in enumerate(REL_FIELDS):
            want = np.stack([o_weights[v][i].grad for v in range(V)])
            assert _close(weights[i].grad, want), name
        for v in range(V):  # the oracle's own b2 gradient is rounding noise around 0
            assert np.max(np.abs(o_b2[v].grad)) <= 1e-12, v


class TestRelHeadStacks:
    """The model's relational heads are Leafs over strided views of
    params.flat and params.grad: head v's slice is that head's own tensor,
    and a gradient through it lands in that head's span of params.grad and
    nowhere else."""

    CONFIG = ModelConfig(d_model=8, d_tag=4, d_hid=4, d_head=4, U=1, V=3, L=2)

    def test_head_views_and_gradient_spans(self):
        config, d = self.CONFIG, self.CONFIG.d_head
        model = Model.build_for_examples(config, generate_synthetic(seed=0, count=2))
        params = model.params
        for l, heads in enumerate(layer.rel for layer in dgat_layer_params(params, config)):
            rng = Rng(60 + l)
            graph = [rng.uniform(s, -1, 1) for s in [(4, config.d_model),
                                                      (4, config.edge_width(l))]]
            for v in range(config.V):
                names = [f"dgat.l{l}.rel{v}.{w}" for w in REL_FIELDS]
                for leaf, name in zip(vars(heads).values(), names, strict=True):
                    assert isinstance(leaf, Leaf)
                    assert np.shares_memory(leaf.value, params.flat)
                    assert np.shares_memory(leaf.grad, params.grad)
                    assert np.array_equal(leaf.value[v], params.get(name)), name
                probe = np.zeros(config.V * d)
                probe[v * d:(v + 1) * d] = rng.uniform((d,), -1, 1)
                params.grad.fill(0.0)
                out, _ = relational_head_var(*(Var(x) for x in graph), heads)
                ad.backward(ad.matmul(out, Var(probe)))
                inside = np.zeros(params.total_size(), dtype=bool)
                for name in names:
                    lo, hi = params.span(name)
                    inside[lo:hi] = True
                assert params.grad[inside].any()
                assert not params.grad[~inside].any(), (l, v)
                oracle = [Var(params.get(name).copy()) for name in names]
                b2 = Var(params.get(f"dgat.l{l}.rel{v}.b2").copy())
                o_out, _ = relational_head_oracle(*(Var(x) for x in graph), RelHeads(*oracle), b2)
                ad.backward(ad.matmul(o_out, Var(probe[v * d:(v + 1) * d])))
                for name, w in zip(names, oracle, strict=True):
                    lo, hi = params.span(name)
                    assert _close(params.grad[lo:hi].reshape(w.value.shape), w.grad), name

    def test_unequal_tensors_do_not_stack(self):
        params = Model.build_for_examples(
            self.CONFIG, generate_synthetic(seed=0, count=2)).params
        with pytest.raises(ValueError, match="cannot stack"):
            params.stack(["dgat.l0.rel0.Wv", "dgat.l0.rel0.W1"])
        with pytest.raises(ValueError, match="cannot stack"):
            params.stack(["dgat.l0.rel0.Wv", "dgat.l0.rel1.Wv", "dgat.l1.rel0.Wv"])


class TestUnreadOutputBias:
    """dgat.l*.rel*.b2 only shifts every logit of a softmax. The model stores
    it and never reads it, so no loss, gradient or prediction depends on it,
    and its own gradient is exactly zero."""

    def _run(self, model, preps):
        loss, grads = batch_grads(model, preps)
        probs = [model.predict_prepared(prep).probs for prep in preps]
        return loss, {name: g.copy() for name, g in grads.items()}, probs

    def _setup(self):
        config = ModelConfig()
        examples = generate_synthetic(seed=7, count=4)
        model = Model.build_for_examples(config, examples)
        names = [f"dgat.l{l}.rel{v}.b2" for l in range(config.L) for v in range(config.V)]
        return model, [model.prepare(ex) for ex in examples], names

    def test_random_values_change_no_loss_gradient_or_prediction(self):
        model, preps, names = self._setup()
        loss, grads, probs = self._run(model, preps)
        rng = Rng(70)
        for name in names:
            model.params.set(name, rng.uniform((1,), -5.0, 5.0))
        loss_b, grads_b, probs_b = self._run(model, preps)
        assert loss_b == loss
        for name, g in grads.items():
            assert np.array_equal(grads_b[name], g), name
        for p, q in zip(probs, probs_b, strict=True):
            assert np.array_equal(p, q)

    def test_gradient_span_is_exactly_zero(self):
        model, preps, names = self._setup()
        batch_grads(model, preps)
        params = model.params
        for name in names:
            lo, hi = params.span(name)
            assert not params.grad[lo:hi].any(), name
        assert np.count_nonzero(params.grad) > params.total_size() // 2
