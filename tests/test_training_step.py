"""One training step: its tape-node budget and its pause of cyclic GC."""

import gc

import pytest

import gdd.autodiff as ad
import gdd.dgat as dg
from gdd import training
from gdd.data import generate_synthetic
from gdd.model import Model, ModelConfig
from gdd.training import AdamState, adam_step, batch_grads, train

TOY = dict(d_model=8, d_tag=4, d_hid=4, d_head=4, U=1, V=1, L=1)

# Var constructions in one default-config step, leaves included (166 when
# this budget was set), and inside one dual-level head.
MAX_NODES_PER_STEP = 170
MAX_NODES_PER_DUAL_HEAD = 5


def test_default_config_step_stays_within_the_node_budget(monkeypatch):
    examples = generate_synthetic(seed=0, count=4)
    model = Model.build_for_examples(ModelConfig(), examples)
    prep = model.prepare(examples[0])
    assert prep.awig.num_words > 1  # the DGAT heads run
    counts = {"nodes": 0, "dual_calls": 0, "dual_nodes": 0}
    init, dual_head_var = ad.Var.__init__, dg.dual_head_var

    def counting_init(var, *args, **kwargs):
        counts["nodes"] += 1
        init(var, *args, **kwargs)

    def counting_dual_head(*args, **kwargs):
        before = counts["nodes"]
        result = dual_head_var(*args, **kwargs)
        counts["dual_calls"] += 1
        counts["dual_nodes"] += counts["nodes"] - before
        return result

    monkeypatch.setattr(ad.Var, "__init__", counting_init)
    monkeypatch.setattr(dg, "dual_head_var", counting_dual_head)
    _, grads = batch_grads(model, [prep])
    adam_step(model.params, grads, AdamState.for_params(model.params), 1e-3)
    assert counts["dual_calls"] == model.config.U * model.config.L
    assert counts["nodes"] <= MAX_NODES_PER_STEP
    assert counts["dual_nodes"] <= MAX_NODES_PER_DUAL_HEAD * counts["dual_calls"]


@pytest.mark.parametrize("overrides", [TOY, {}], ids=["toy", "default"])
def test_a_step_leaves_no_cyclic_garbage(overrides):
    examples = generate_synthetic(seed=0, count=2)
    model = Model.build_for_examples(ModelConfig(dropout=0.2, **overrides), examples)
    gc.collect()
    train(model, examples[:1], epochs=1)
    assert gc.collect() == 0


def _step_observing_gc(monkeypatch, fail=False):
    """Train one step; returns whether cyclic GC was on inside each step call."""
    seen = []
    real_batch_grads, real_adam_step = training.batch_grads, training.adam_step

    def batch_grads_(*args, **kwargs):
        seen.append(gc.isenabled())
        if fail:
            raise RuntimeError("step failed")
        return real_batch_grads(*args, **kwargs)

    def adam_step_(*args, **kwargs):
        seen.append(gc.isenabled())
        return real_adam_step(*args, **kwargs)

    monkeypatch.setattr(training, "batch_grads", batch_grads_)
    monkeypatch.setattr(training, "adam_step", adam_step_)
    examples = generate_synthetic(seed=0, count=1)
    train(Model.build_for_examples(ModelConfig(**TOY), examples), examples, epochs=1)
    return seen


def test_gc_paused_during_the_step_and_restored_after(monkeypatch):
    assert gc.isenabled()
    assert _step_observing_gc(monkeypatch) == [False, False]
    assert gc.isenabled()


def test_gc_restored_after_a_step_that_raises(monkeypatch):
    with pytest.raises(RuntimeError, match="step failed"):
        _step_observing_gc(monkeypatch, fail=True)
    assert gc.isenabled()


def test_a_callers_disabled_gc_stays_disabled(monkeypatch):
    gc.disable()
    try:
        _step_observing_gc(monkeypatch)
        assert not gc.isenabled()
    finally:
        gc.enable()
