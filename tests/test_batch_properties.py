"""Metamorphic properties of the model: relations between two runs that
must hold without an oracle for either.

backward() reduces each parameter's contributions across the examples of a
batch (one product, one scatter per tensor): the order of a batch's
examples must not matter, and with no l2 term a batch's gradient is the sum
of its examples' own gradients, as the per-example accumulation computed
it. The DGAT is a set function over an aspect's graph words, so permuting
them permutes its attention weights and leaves the logits alone. The
covariance attention centers its queries, and its row-wise softmax cancels
the shift that keys share, so a shift shared by every token embedding
cannot move it (the original attention moves). And the tensors that no
forward reads (every relational head's b2, the last layer's Wr) cannot
move a logit. Rounding is taken as 1e-12 of the largest entry of each
compared array.
"""

import dataclasses

import numpy as np
import pytest

from gdd.data import Example, generate_synthetic
from gdd.model import Model, ModelConfig
from gdd.training import batch_grads

RTOL = 1e-12
TOY = dict(d_model=8, d_tag=4, d_head=4, d_hid=4, U=1, V=1, L=1)
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
    loss, grads = batch_grads(model, preps)
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


def _forward(model, prep):
    logits, trace = model.forward_var(prep, model.params.leaves())
    return logits.value, trace


@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_permuting_the_graph_words_permutes_every_layers_weights(config_name):
    model, preps = _model_and_preps(config_name)
    checked = 0
    for i, prep in enumerate(preps):
        m = len(prep.word_token_idx)
        if m < 2:
            continue
        perm = np.random.default_rng(i).permutation(m)
        if np.array_equal(perm, np.arange(m)):
            perm = perm[::-1]
        permuted = dataclasses.replace(
            prep, word_token_idx=prep.word_token_idx[perm], edge_tag_ids=prep.edge_tag_ids[perm])
        logits, trace = _forward(model, prep)
        p_logits, p_trace = _forward(model, permuted)
        _assert_close(p_logits, logits, "logits")
        for key in ("beta", "omega", "rho"):
            for l, (weights, p_weights) in enumerate(zip(trace["dgat"][key], p_trace["dgat"][key])):
                assert len(p_weights) == len(weights)
                for h, (w, p_w) in enumerate(zip(weights, p_weights)):
                    _assert_close(p_w, w[perm], f"layer {l} {key}[{h}]")
        checked += 1
    assert checked >= 3


@pytest.mark.parametrize("attention, moves", [("covariance", False), ("original", True)])
def test_a_shift_of_every_token_embedding_moves_only_the_original_attention(attention, moves):
    model, preps = _model_and_preps("default", use_mask=False, attention=attention)
    before = [_forward(model, prep)[1]["local_attention"] for prep in preps]
    table = model.params.get("embed.token")
    table += np.random.default_rng(0).normal(size=table.shape[1])
    after = [_forward(model, prep)[1]["local_attention"] for prep in preps]
    change = max(float(np.max(np.abs(a - b))) for a, b in zip(after, before))
    if moves:
        assert change > 1e-6
    else:
        assert change <= RTOL


def _dead_tensors(config):
    last = config.L - 1
    return [f"dgat.l{l}.rel{v}.b2" for l in range(config.L) for v in range(config.V)] + [
        f"dgat.l{last}.Wr"]


@pytest.mark.parametrize("config", [ModelConfig(), ModelConfig(**TOY)], ids=["default", "toy"])
def test_the_tensors_no_forward_reads_move_no_logit(config):
    examples = _examples()
    model = Model.build_for_examples(config, examples)
    preps = [model.prepare(ex) for ex in examples]
    logits = [model.predict_prepared(prep).logits for prep in preps]
    rng = np.random.default_rng(1)
    for name in _dead_tensors(config):
        t = model.params.get(name)
        t[...] = rng.normal(size=t.shape) * 10.0
    assert all(np.array_equal(model.predict_prepared(prep).logits, want)
               for prep, want in zip(preps, logits))
