import math

import numpy as np
import pytest

import gdd.autodiff as ad
from gdd.data import Example, generate_synthetic
from gdd.embeddings import TagVocab, Vocab
from gdd.metrics import evaluate, metrics_from_predictions
from gdd.model import Model, ModelConfig, ModelParams, NonFiniteForward
from gdd import training
from gdd.numeric import Rng
from gdd.training import AdamState, adam_step, batch_grads, gradcheck_model, train

from oracles import sub, sum_

TOY = dict(d_model=8, d_tag=4, d_head=4, d_hid=4, U=1, V=1, L=1)


@pytest.fixture
def toy_model():
    examples = generate_synthetic(seed=0, count=6)
    return Model.build_for_examples(ModelConfig(**TOY), examples), examples


def whole_sentence_example():
    return Example(tokens=["food", "good"], aspect_start=0, aspect_end=2,
                   label="positive", dep_heads=[2, 0], dep_rels=["nsubj", "root"])


class TestForward:
    def test_zero_output_layer_gives_uniform(self, toy_model):
        model, examples = toy_model
        model.params.set("out.W", np.zeros_like(model.params.get("out.W")))
        model.params.set("out.b", np.zeros(3))
        pred = model.predict(examples[0])
        assert np.allclose(pred.probs, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_probs_form_distribution(self, toy_model):
        model, examples = toy_model
        for ex in examples:
            p = model.predict(ex).probs
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) < 1e-12

    def test_deterministic(self, toy_model):
        model, examples = toy_model
        a = model.predict(examples[2])
        b = model.predict(examples[2])
        assert np.array_equal(a.probs, b.probs)

    def test_same_seed_same_params(self):
        examples = generate_synthetic(seed=0, count=4)
        m1 = Model.build_for_examples(ModelConfig(**TOY), examples)
        m2 = Model.build_for_examples(ModelConfig(**TOY), examples)
        for name in m1.params.names():
            assert np.array_equal(m1.params.get(name), m2.params.get(name))

    def test_empty_graph_flagged_not_crashed(self):
        ex = whole_sentence_example()
        model = Model.build_for_examples(ModelConfig(**TOY), [ex])
        pred, trace = model.predict(ex, with_trace=True)
        assert trace["dgat"]["empty"] is True
        assert abs(pred.probs.sum() - 1.0) < 1e-12

    def test_frozen_embeddings_used(self, toy_model):
        model, examples = toy_model
        ex = examples[0]
        H = Rng(99).uniform((len(ex.tokens), model.config.d_model), -1, 1)
        model.frozen_embeddings = {tuple(ex.tokens): H}
        pred = model.predict(ex)
        assert abs(pred.probs.sum() - 1.0) < 1e-12
        with pytest.raises(ValueError, match="no frozen embedding"):
            model.predict(examples[1])

    def test_frozen_embeddings_wrong_width(self, toy_model):
        model, examples = toy_model
        ex = examples[0]
        model.frozen_embeddings = {tuple(ex.tokens): np.zeros((len(ex.tokens), 5))}
        with pytest.raises(ValueError, match="shape"):
            model.predict(ex)

    @pytest.mark.parametrize("tensor, value, quantity", [
        ("local.mask.b2", -800.0, "sigma (0.0)"),  # softplus(-800) is 0.0: the mask is 0/0
        ("local.attn.Wq", np.inf, "local attention"),
        ("dgat.l0.dual0.Wa", np.nan, "DGAT layer 0 beta"),
        ("dgat.l0.rel0.W2", np.nan, "DGAT layer 0 rho"),
        ("out.b", np.inf, "logits"),
    ])
    def test_a_non_finite_forward_names_its_first_non_finite_quantity(self, toy_model, tensor,
                                                                      value, quantity):
        model, examples = toy_model
        model.params.get(tensor)[...] = value
        with np.errstate(all="ignore"), pytest.raises(NonFiniteForward) as err:
            model.predict(examples[0])
        assert err.value.quantity == quantity
        assert err.value.example is examples[0]


class TestConfig:
    @pytest.mark.parametrize("key, value", [
        ("lr", 0.0), ("lr", -0.01), ("lr", math.nan), ("lr", math.inf),
        ("l2", -1.0), ("l2", math.nan), ("l2", math.inf),
        ("sample_interval", 0.0), ("sample_interval", math.nan), ("sample_interval", math.inf),
    ])
    def test_rates_and_interval_must_be_finite_and_in_range(self, key, value):
        with pytest.raises(ValueError, match=f"config: {key} must be"):
            ModelConfig(**{key: value})

    def test_edges_of_the_valid_ranges(self):
        config = ModelConfig(lr=1e-300, l2=0.0, sample_interval=1e-300)
        assert (config.lr, config.l2, config.sample_interval) == (1e-300, 0.0, 1e-300)


def example_loss(logits, gold, params, l2):
    """One example's term of Model.batch_loss_var: cross_entropy(z, gold) =
    logsumexp(z) - z[gold], plus l2 times Model.regularizer_var over `params`."""
    z = ad.Var(np.asarray(logits, dtype=np.float64))
    total = ad.cross_entropy(z, gold)
    if l2 > 0.0:
        model = Model(ModelConfig(), Vocab(), TagVocab(), params)
        total = total + ad.mul(model.regularizer_var(), l2)
    return float(total.value)


class TestLoss:
    def test_uniform_probs_ln3(self):
        assert abs(example_loss(np.zeros(3), 0, ModelParams(), l2=0.0) - math.log(3.0)) < 1e-12

    def test_perfect_prediction_zero(self):
        assert example_loss([1000.0, 0.0, 0.0], 0, ModelParams(), l2=0.0) == 0.0

    def test_l2_single_weight_tensor(self):
        params = ModelParams([("w", (1, 2))])
        params.set("w", np.array([[1.0, 2.0]]))
        assert abs(example_loss([1000.0, 0.0, 0.0], 0, params, l2=1.0) - 5.0) < 1e-12

    def test_biases_excluded_from_l2(self):
        params = ModelParams([("b", (2,))])
        params.set("b", np.array([7.0, 7.0]))
        assert example_loss([1000.0, 0.0, 0.0], 0, params, l2=1.0) == 0.0

    def test_zero_prob_gold_stays_finite(self):
        value = example_loss([-2000.0, 0.0, 0.0], 0, ModelParams(), l2=0.0)
        assert math.isfinite(value)
        assert value > 1000

    def test_pad_rows_excluded(self, toy_model):
        model, _ = toy_model
        token = model.params.get("embed.token").copy()
        token[0] = 1e3  # PAD row must not contribute
        model.params.set("embed.token", token)
        reg = float(model.regularizer_var().value)
        manual = 0.0
        for name, t in model.params.items():
            if t.ndim != 2:
                continue
            rows = t[1:] if name in ("embed.token", "embed.tag") else t
            manual += float(np.sum(rows * rows))
        assert abs(reg - manual) < 1e-9 * max(1.0, manual)

    def test_one_node_l2_matches_the_taped_sum(self, toy_model):
        """Value and gradient of the flat-buffer l2 node against the per-tensor
        taped sum it replaced, within test_pad_rows_excluded's tolerance."""
        model, _ = toy_model
        plain = {name: ad.Var(t.copy()) for name, t in model.params.items()}
        taped = None
        for name, leaf in plain.items():
            if leaf.value.ndim != 2:
                continue
            sq = sum_(ad.mul(leaf, leaf))
            if name in ("embed.token", "embed.tag"):
                row0 = ad.gather_rows(leaf, [0])
                sq = sub(sq, sum_(ad.mul(row0, row0)))
            taped = sq if taped is None else taped + sq
        ad.backward(taped)
        leaves = model.params.leaves()
        model.params.grad.fill(0.0)
        node = model.regularizer_var()
        ad.backward(node)
        want = float(taped.value)
        assert abs(float(node.value) - want) < 1e-9 * max(1.0, want)
        scale = max(float(np.max(np.abs(model.params.grad))), 1.0)
        for name, leaf in leaves.items():
            ref = plain[name].grad if plain[name].grad is not None else 0.0
            assert np.max(np.abs(leaf.grad - ref)) < 1e-9 * scale, name

    def test_batch_loss_additivity(self, toy_model):
        model, examples = toy_model
        preps = [model.prepare(ex) for ex in examples[:3]]
        total = float(model.batch_loss_var(preps).value)
        ces = []
        for prep in preps:
            logits, _ = model.forward_var(prep, model.params.leaves())
            z = logits.value
            ces.append(float(np.log(np.sum(np.exp(z - z.max()))) + z.max() - z[prep.gold]))
        reg = float(model.regularizer_var().value)
        expected = sum(ces) + model.config.l2 * reg
        assert abs(total - expected) < 1e-9


class TestAdam:
    def test_zero_gradients_no_motion(self):
        params = ModelParams([("w", (1, 2))])
        params.set("w", np.array([[1.0, -2.0]]))
        state = AdamState.for_params(params)
        adam_step(params, state, lr=0.1)
        assert np.array_equal(params.get("w"), np.array([[1.0, -2.0]]))

    def test_first_step_closed_form(self):
        params = ModelParams([("w", (3,))])
        params.set("w", np.array([1.0, 1.0, 1.0]))
        g = np.array([0.3, -0.02, 5.0])
        params.grad[:] = g
        state = AdamState.for_params(params)
        lr, eps = 0.1, 1e-8
        adam_step(params, state, lr=lr, eps=eps)
        # bias-corrected single step: delta = -lr * g / (|g| + eps)
        expected = 1.0 - lr * g / (np.abs(g) + eps)
        assert np.max(np.abs(params.get("w") - expected)) < 1e-12
        assert np.max(np.abs(params.get("w") - (1.0 - lr * np.sign(g)))) < 1e-6

    def test_deterministic_given_state(self):
        def run():
            params = ModelParams([("w", (1,))])
            params.set("w", np.array([2.0]))
            state = AdamState.for_params(params)
            for g in ([0.5], [-0.25], [0.1]):
                params.grad[:] = g
                adam_step(params, state, lr=0.05)
            return params.get("w")

        assert np.array_equal(run(), run())

    def test_whole_buffer_step_equals_the_per_tensor_update(self, toy_model, monkeypatch):
        """Same arithmetic in the same order as a loop over tensors: equal bits,
        also across block boundaries. The reference is the folded update:
        theta -= step * m / (sqrt(v) + eps_hat), step = lr sqrt(c2) / c1,
        eps_hat = eps sqrt(c2)."""
        monkeypatch.setattr(training, "ADAM_BLOCK", 100)
        model, _ = toy_model
        rng = Rng(8)
        names = model.params.names()
        ref = {name: model.params.get(name).copy() for name in names}
        m = {name: np.zeros_like(t) for name, t in ref.items()}
        v = {name: np.zeros_like(t) for name, t in ref.items()}
        state = AdamState.for_params(model.params)
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        for t in range(1, 4):
            grads = {name: rng.normal(ref[name].shape) for name in names}
            for name, g in grads.items():
                model.params.grad[slice(*model.params.span(name))] = g.ravel()
            adam_step(model.params, state, lr=lr)
            for name, g in grads.items():
                m[name] = b1 * m[name] + (1 - b1) * g
                v[name] = b2 * v[name] + (1 - b2) * g * g
                c1, c2 = 1 - b1 ** t, 1 - b2 ** t
                step, eps_hat = lr * math.sqrt(c2) / c1, eps * math.sqrt(c2)
                ref[name] = ref[name] - step * m[name] / (np.sqrt(v[name]) + eps_hat)
        for name in names:
            assert np.array_equal(model.params.get(name), ref[name]), name

    def test_folded_steps_match_the_textbook_update(self):
        """Ten steps against m_hat / (sqrt(v_hat) + eps) of Kingma & Ba's
        Algorithm 1: the folding changes only rounding."""
        rng = Rng(9)
        params = ModelParams([("w", (40,))])
        params.set("w", rng.normal((40,)))
        theta = params.get("w").copy()
        m, v = np.zeros(40), np.zeros(40)
        state = AdamState.for_params(params)
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        for t in range(1, 11):
            g = rng.normal((40,)) * 10.0 ** rng.uniform((40,), -9, 1)
            params.grad[:] = g
            adam_step(params, state, lr=lr)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat, v_hat = m / (1 - b1 ** t), v / (1 - b2 ** t)
            theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert np.max(np.abs(params.get("w") - theta) / np.abs(theta)) <= 1e-13

    def test_batch_grads_are_views_of_the_gradient_buffer(self, toy_model):
        model, examples = toy_model
        _, grads = batch_grads(model, [model.prepare(examples[0])], train=False)
        assert list(grads) == model.params.names()
        for name, g in grads.items():
            lo, hi = model.params.span(name)
            assert np.shares_memory(g, model.params.grad[lo:hi]), name
            assert np.array_equal(g.ravel(), model.params.grad[lo:hi]), name


class TestMetrics:
    def test_all_correct(self):
        m = metrics_from_predictions([0, 1, 2, 0], [0, 1, 2, 0])
        assert m.accuracy == 1.0
        assert m.macro_f1 == 1.0

    def test_single_class_predictor_on_balanced_set(self):
        golds = [0, 1, 2] * 4
        preds = [0] * 12
        m = metrics_from_predictions(golds, preds)
        assert abs(m.accuracy - 1 / 3) < 1e-12
        assert abs(m.per_class["positive"].f1 - 0.5) < 1e-12
        assert m.per_class["neutral"].f1 == 0.0
        assert abs(m.macro_f1 - 1 / 6) < 1e-12

    def test_confusion_matrix_oracle(self):
        rng = Rng(33)
        for _ in range(50):
            n = 5 + rng.integers(0, 40)
            golds = [rng.integers(0, 3) for _ in range(n)]
            preds = [rng.integers(0, 3) for _ in range(n)]
            m = metrics_from_predictions(golds, preds)

            cm = np.zeros((3, 3), dtype=int)
            for g, p in zip(golds, preds):
                cm[g, p] += 1
            acc = np.trace(cm) / cm.sum()
            f1s = []
            for c in range(3):
                tp = cm[c, c]
                prec = tp / cm[:, c].sum() if cm[:, c].sum() else 0.0
                rec = tp / cm[c, :].sum() if cm[c, :].sum() else 0.0
                f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
            assert abs(m.accuracy - acc) < 1e-12
            assert abs(m.macro_f1 - np.mean(f1s)) < 1e-12

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            metrics_from_predictions([], [])

    def test_evaluate_runs_model(self, toy_model):
        model, examples = toy_model
        m = evaluate(model, examples)
        assert 0.0 <= m.accuracy <= 1.0
        assert 0.0 <= m.macro_f1 <= 1.0


class TestGradcheck:
    def test_toy_model_all_tensors_pass(self, toy_model):
        model, examples = toy_model
        report = gradcheck_model(model, examples[1])
        assert set(report.per_tensor) == set(model.params.names())
        assert report.ok, report.worst()

    def test_toy_model_with_scaled_logits_passes(self):
        # the golden fixture records unscaled DGAT logits only
        examples = generate_synthetic(seed=0, count=6)
        model = Model.build_for_examples(ModelConfig(scale_logits=True, **TOY), examples)
        report = gradcheck_model(model, examples[1])
        assert report.ok, report.worst()

    # nor any local setting but the defaults: one covariance head, a mask, unnormalized
    @pytest.mark.parametrize("settings", [
        dict(attention="original", local_heads=2, normalize_mask=True),
        dict(use_mask=False),
    ], ids=["original-2heads-normalized", "no-mask"])
    def test_toy_model_with_non_default_local_settings_passes(self, settings):
        examples = generate_synthetic(seed=0, count=6)
        model = Model.build_for_examples(ModelConfig(**settings, **TOY), examples)
        report = gradcheck_model(model, examples[1])
        assert set(report.per_tensor) == set(model.params.names())
        assert report.ok, report.worst()

    # a single head family (U = 0 or V = 0), at two layers
    @pytest.mark.parametrize("heads", [dict(U=0, V=2), dict(U=2, V=0)],
                             ids=["relational-only", "dual-only"])
    def test_toy_model_with_one_head_family_passes(self, heads):
        examples = generate_synthetic(seed=0, count=6)
        model = Model.build_for_examples(ModelConfig(**{**TOY, **heads, "L": 2}), examples)
        report = gradcheck_model(model, examples[1])
        assert set(report.per_tensor) == set(model.params.names())
        assert report.ok, report.worst()

    def test_untouched_embedding_rows_zero_grad(self, toy_model):
        model, examples = toy_model
        prep = model.prepare(examples[0])
        leaves = model.params.leaves()
        model.params.grad.fill(0.0)
        loss_var = model.batch_loss_var([prep])
        ad.backward(loss_var)
        grad = leaves["embed.token"].grad
        used = set(prep.token_ids.tolist())
        model_cfg_l2 = model.config.l2
        for row in range(grad.shape[0]):
            if row in used or row == 0:
                continue
            # only the l2 term touches unused non-PAD rows
            expected = 2 * model_cfg_l2 * model.params.get("embed.token")[row]
            assert np.max(np.abs(grad[row] - expected)) < 1e-15

    def test_untouched_rows_exactly_zero_without_l2(self):
        examples = generate_synthetic(seed=0, count=6)
        model = Model.build_for_examples(ModelConfig(l2=0.0, **TOY), examples)
        prep = model.prepare(examples[0])
        leaves = model.params.leaves()
        model.params.grad.fill(0.0)
        ad.backward(model.batch_loss_var([prep]))
        grad = leaves["embed.token"].grad
        used = set(prep.token_ids.tolist())
        for row in range(grad.shape[0]):
            if row not in used:
                assert np.array_equal(grad[row], np.zeros(model.config.d_model))

    def test_epsilon_sweep_is_smooth(self, toy_model):
        model, examples = toy_model
        r1 = gradcheck_model(model, examples[1], eps=1e-6)
        r2 = gradcheck_model(model, examples[1], eps=1e-5)
        assert r1.ok and r2.ok
        for name in r1.per_tensor:
            assert abs(r1.per_tensor[name] - r2.per_tensor[name]) < 1e-3


class TestTraining:
    def test_loss_decreases_first_ten_steps(self):
        examples = generate_synthetic(seed=1, count=4)
        model = Model.build_for_examples(ModelConfig(lr=0.01, seed=5, **TOY), examples)
        preps = [model.prepare(ex) for ex in examples]
        state = AdamState.for_params(model.params)
        losses = []
        for _ in range(10):
            value, _ = batch_grads(model, preps, train=False)
            losses.append(value)
            adam_step(model.params, state, lr=model.config.lr)
        assert all(b < a for a, b in zip(losses, losses[1:])), losses

    def test_train_is_deterministic(self):
        def run():
            examples = generate_synthetic(seed=2, count=8)
            model = Model.build_for_examples(ModelConfig(lr=0.01, **TOY), examples)
            history = train(model, examples, epochs=3)
            return [h.train_loss for h in history]

        assert run() == run()

    def test_dropout_training_runs(self):
        examples = generate_synthetic(seed=2, count=6)
        model = Model.build_for_examples(
            ModelConfig(lr=0.01, dropout=0.5, **TOY), examples)
        history = train(model, examples, epochs=2)
        assert len(history) == 2
        assert all(math.isfinite(h.train_loss) for h in history)

    def test_batch_accumulation(self):
        examples = generate_synthetic(seed=2, count=8)
        model = Model.build_for_examples(
            ModelConfig(lr=0.01, batch_size=4, **TOY), examples)
        history = train(model, examples, epochs=2)
        assert len(history) == 2
