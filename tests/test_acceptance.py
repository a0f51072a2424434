"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one [PASS]/[FAIL] line (run with -s to see them inline).

Headline corpus accuracies are out of reach at this scale by design; the
criteria below are property-based, with one conditional check against
officially converted data when the user supplies it (GDD_SEMEVAL_DIR).
"""

import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from gdd.autodiff import Var
from gdd.cli import main
from gdd.data import generate_synthetic, load_dataset
from gdd.dep_graph import build_awig
from gdd.local_encoder import attention_var, check_stationarity
from gdd.metrics import evaluate, metrics_from_predictions
from gdd.model import Model, ModelConfig
from gdd.numeric import Rng
from gdd.training import gradcheck_model, train

from oracles import circ_corr_fft, circ_corr_naive, gaussian_pdf
from test_dep_graph import contracted_shortest_paths, random_tree, replay_reachable
from test_local_encoder import build_mask

TOY = dict(d_model=8, d_tag=4, d_head=4, d_hid=4, U=1, V=1, L=1)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def test_fft_circular_correlation_oracle_equivalence():
    with criterion("FFT circular correlation matches the naive oracle"):
        start = time.monotonic()
        worst = 0.0
        for d in (1, 2, 3, 5, 8, 17, 64):
            rng = Rng(9000 + d)
            for _ in range(100):
                a = rng.uniform((d,), -5, 5)
                b = rng.uniform((d,), -5, 5)
                diff = np.max(np.abs(circ_corr_fft(a, b) - circ_corr_naive(a, b)))
                worst = max(worst, float(diff))
        elapsed = time.monotonic() - start
        assert worst < 1e-10, f"max |fft - naive| = {worst:.3e}"
        assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"


def test_covariance_attention_identity():
    with criterion("covariance attention == center-then-attend oracle"):
        for trial in range(50):
            rng = Rng(7000 + trial)
            n = 2 + trial % 7
            H = rng.uniform((n, 6), -2, 2)
            params = [rng.uniform((6, 4), -1, 1) for _ in range(3)]  # Wq, Wk, Wv
            Q, K, V = (H @ W for W in params)
            Qc, Kc = Q - Q.mean(axis=0), K - K.mean(axis=0)
            scores = Qc @ Kc.T / math.sqrt(4)
            ex = np.exp(scores - scores.max(axis=1, keepdims=True))
            expected = (ex / ex.sum(axis=1, keepdims=True)) @ V
            actual = attention_var(Var(H), *params, variant="covariance")[0].value
            assert np.max(np.abs(actual - expected)) < 1e-12, trial

        # degenerate case: identical tokens force exactly uniform rows
        H = np.tile(Rng(1).uniform((1, 6)), (5, 1))
        params = [Rng(seed).uniform((6, 4)) for seed in (2, 3, 4)]  # Wq, Wk, Wv
        _, probs = attention_var(Var(H), *params, variant="covariance")
        assert np.array_equal(probs, np.full((5, 5), 1.0 / 5.0))


def test_proposition_stationarity():
    with criterion("objective is stationary at the sample means (20 instances)"):
        start = time.monotonic()
        rng = Rng(123)
        for trial in range(20):
            Q = rng.normal((6, 4))
            K = rng.normal((6, 4))
            report = check_stationarity(Q, K, rng=Rng(500 + trial))
            assert report.is_stationary, (
                f"trial {trial}: |grad| at mean {report.grad_norm_at_mean:.3e} vs "
                f"median random {report.median_random_grad_norm:.3e}")
        assert main(["verify-proposition"]) == 0
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


def test_gaussian_mask_correctness():
    with criterion("Gaussian mask closed-form values and decay properties"):
        mask, _ = build_mask(5, (2, 2), sigma=1.0, interval=0.2)
        expected = np.array([0.368270, 0.391043, 0.398942, 0.391043, 0.368270])
        assert np.max(np.abs(mask - expected)) < 1e-6

        rng = Rng(321)
        for _ in range(1000):
            n = 1 + rng.integers(0, 14)
            s = rng.integers(0, n)
            e = min(n - 1, s + rng.integers(0, 3))
            sigma = 0.05 + 5.0 * float(rng.uniform(()))
            m, used = build_mask(n, (s, e), sigma=sigma, interval=0.2)
            peak = gaussian_pdf(0.0, used)
            assert np.allclose(m[s:e + 1], peak), "aspect positions must share GK(0)"
            assert np.all(m <= peak + 1e-15)
            assert np.all(np.diff(m[:s + 1]) >= -1e-15), "must rise toward the span"
            assert np.all(np.diff(m[e:]) <= 1e-15), "must decay away from the span"


def test_awig_fidelity_against_all_pairs_oracle():
    with criterion("AWIG hops/paths agree with shortest-path and replay oracles"):
        rng = Rng(654)
        violations = 0
        for trial in range(200):
            n = 2 + rng.integers(0, 11)  # n <= 12
            tree = random_tree(Rng(3000 + trial), n)
            s = rng.integers(0, n)
            e = min(n - 1, s + rng.integers(0, 2))
            kappa_max = 1 + rng.integers(0, 4)
            aspect = set(range(s, e + 1))
            awig = build_awig(tree, (s, e), kappa_max)
            oracle = contracted_shortest_paths(tree, aspect)

            hops = {tok: len(path) for tok, path in zip(awig.words, awig.paths)}
            for tok, dist in oracle.items():
                if dist <= kappa_max:
                    if hops.get(tok) != dist:
                        violations += 1
                elif tok in hops:
                    violations += 1
            for tok, path in zip(awig.words, awig.paths):
                if tok not in replay_reachable(tree, aspect, path):
                    violations += 1
        assert violations == 0, f"{violations} oracle violations"


def test_whole_model_gradient_check():
    with criterion("whole-model analytic gradients match central differences"):
        start = time.monotonic()
        examples = generate_synthetic(seed=0, count=6)
        model = Model.build_for_examples(ModelConfig(**TOY), examples)
        report = gradcheck_model(model, examples[1], eps=1e-6, tolerance=1e-4)
        elapsed = time.monotonic() - start
        assert set(report.per_tensor) == set(model.params.names())
        assert report.ok, f"worst tensor: {report.worst()}"
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


def test_overfit_sanity_with_ablations():
    with criterion("32-example overfit reaches 100% within 200 epochs (all switches)"):
        start = time.monotonic()
        examples = generate_synthetic(seed=3, count=32)
        for variant in (dict(), dict(attention="original"), dict(use_mask=False)):
            config = ModelConfig(lr=0.01, seed=7, **TOY, **variant)
            model = Model.build_for_examples(config, examples)
            accuracies = []

            def all_right(log):
                accuracies.append(evaluate(model, examples).accuracy)
                return accuracies[-1] == 1.0

            history = train(model, examples, epochs=200, on_epoch=all_right)
            final = history[-1]
            assert accuracies[-1] == 1.0, (
                f"{variant or 'default'}: stuck at {accuracies[-1]} "
                f"after {final.epoch} epochs")
            assert final.epoch <= 200
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


def test_metrics_against_confusion_matrix_oracle():
    with criterion("accuracy/macro-F1 match the confusion-matrix oracle"):
        rng = Rng(987)
        for _ in range(50):
            n = 3 + rng.integers(0, 60)
            golds = [rng.integers(0, 3) for _ in range(n)]
            preds = [rng.integers(0, 3) for _ in range(n)]
            m = metrics_from_predictions(golds, preds)

            cm = np.zeros((3, 3))
            for g, p in zip(golds, preds):
                cm[g, p] += 1
            acc = np.trace(cm) / cm.sum()
            f1s = []
            for c in range(3):
                tp, col, row = cm[c, c], cm[:, c].sum(), cm[c, :].sum()
                prec = tp / col if col else 0.0
                rec = tp / row if row else 0.0
                f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
            assert abs(m.accuracy - acc) < 1e-12
            assert abs(m.macro_f1 - float(np.mean(f1s))) < 1e-12

        degenerate = metrics_from_predictions([0, 1, 2] * 10, [1] * 30)
        assert abs(degenerate.macro_f1 - 1.0 / 6.0) < 1e-12


SEMEVAL_DIR = os.environ.get("GDD_SEMEVAL_DIR", "")
EXPECTED_COUNTS = {
    "restaurant_train.jsonl": {"positive": 2164, "neutral": 807, "negative": 637},
    "laptop_train.jsonl": {"positive": 994, "neutral": 870, "negative": 464},
    "twitter_train.jsonl": {"positive": 1561, "neutral": 3127, "negative": 1560},
}


@pytest.mark.skipif(not SEMEVAL_DIR, reason="GDD_SEMEVAL_DIR not set; "
                    "conditional data-ingestion check skipped")
def test_semeval_class_counts():
    with criterion("converted SemEval/Twitter class counts match the published statistics"):
        from gdd.data import class_counts

        for filename, expected in EXPECTED_COUNTS.items():
            path = Path(SEMEVAL_DIR) / filename
            assert path.exists(), f"missing {path}"
            counts = class_counts(load_dataset(path))
            assert counts == expected, f"{filename}: {counts} != {expected}"
