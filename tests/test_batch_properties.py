"""Metamorphic properties of a batch's loss and gradient.

backward() reduces each parameter's contributions across the examples of a
batch (one product, one scatter per tensor). These properties need no
oracle: the order of a batch's examples must not matter, and with no l2
term a batch's gradient is the sum of its examples' own gradients, as the
per-example accumulation computed it. Both hold within rounding, taken as
1e-12 of the largest entry of each compared array.
"""

import numpy as np
import pytest

from gdd.data import Example, generate_synthetic
from gdd.model import Model, ModelConfig
from gdd.training import batch_grads

RTOL = 1e-12
CONFIGS = {"default": {}, "U=0": dict(U=0), "V=0": dict(V=0), "L=3": dict(L=3)}


def _examples():
    """Five synthetic examples, one whose aspect spans its sentence (so its
    graph is empty) and a one-token sentence."""
    return generate_synthetic(seed=5, count=5) + [
        Example(tokens=["food", "good"], aspect_start=0, aspect_end=2, label="positive",
                dep_heads=[2, 0], dep_rels=["nsubj", "root"]),
        Example(tokens=["service"], aspect_start=0, aspect_end=1, label="neutral",
                dep_heads=[0], dep_rels=["root"]),
    ]


def _grads(model, preps):
    loss, grads = batch_grads(model, preps, train=False)
    return loss, {name: g.copy() for name, g in grads.items()}


def _assert_close(got, want, what):
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) <= RTOL * scale, what


def _model_and_preps(config_name, **overrides):
    examples = _examples()
    model = Model.build_for_examples(ModelConfig(**CONFIGS[config_name], **overrides), examples)
    preps = [model.prepare(ex) for ex in examples]
    assert [p.awig.num_words == 0 for p in preps][-2:] == [True, True]
    return model, preps


@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_permuting_a_batch_changes_neither_its_loss_nor_any_gradient(config_name):
    model, preps = _model_and_preps(config_name)
    loss, grads = _grads(model, preps)
    for seed in (1, 2):
        order = np.random.default_rng(seed).permutation(len(preps))
        p_loss, p_grads = _grads(model, [preps[i] for i in order])
        _assert_close(np.array(p_loss), np.array(loss), "loss")
        for name, g in grads.items():
            _assert_close(p_grads[name], g, name)


@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_without_l2_a_batch_gradient_is_the_sum_of_its_examples_gradients(config_name):
    model, preps = _model_and_preps(config_name, l2=0.0)
    loss, grads = _grads(model, preps)
    singles = [_grads(model, [prep]) for prep in preps]
    _assert_close(np.array(loss), np.array(sum(s_loss for s_loss, _ in singles)), "loss")
    for name, g in grads.items():
        _assert_close(g, sum(s_grads[name] for _, s_grads in singles), name)
