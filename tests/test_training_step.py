"""One training step: its tape-node budget, the leaves it reuses, its pause
of cyclic GC, its check for divergence, its independence of the BLAS
thread count, the one preparation of each set that train makes, and the
stop that on_epoch asks for; and the training leaves that predict reads."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gdd.autodiff as ad
import gdd.dgat as dg
import gdd.local_encoder as le
import gdd.model as md
from gdd import training
from gdd.checkpoint import load_checkpoint, save_checkpoint
from gdd.data import generate_synthetic
from gdd.metrics import evaluate
from gdd.model import Model, ModelConfig
from gdd.numeric import Rng
from gdd.training import AdamState, TrainingDiverged, adam_step, batch_grads, train

TOY = dict(d_model=8, d_tag=4, d_hid=4, d_head=4, U=1, V=1, L=1)

# Var constructions in a model's first default-config step, which builds its
# leaves (106 when this budget was set: 62 tensors, 8 relational-head and 2
# Wa stacks, the flat buffer and 33 op nodes), with a margin of 4; inside one dual-level head
# (its projection pair and their correlation), inside one call for a
# layer's relational heads, and inside one call of the local encoder.
MAX_NODES_PER_STEP = 110
MAX_NODES_PER_DUAL_HEAD = 2
MAX_NODES_PER_REL_HEADS = 1
MAX_NODES_PER_LOCAL_FORWARD = 3
# Var constructions in a later default-config step, which reuses the leaves
# the first one built (33 when this budget was set), with the margin above.
MAX_NODES_PER_STEADY_STEP = 37
# Var constructions in a later default-config predict, which reads the same
# leaves (29 when this budget was set), with the margin above.
MAX_NODES_PER_STEADY_PREDICT = 33


def _counting_constructions(monkeypatch, cls):
    """A dict whose "n" counts the calls of cls.__init__ (subclasses included)."""
    counts = {"n": 0}
    init = cls.__init__

    def counting_init(obj, *args, **kwargs):
        counts["n"] += 1
        init(obj, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting_init)
    return counts


def test_default_config_step_stays_within_the_node_budget(monkeypatch):
    examples = generate_synthetic(seed=0, count=4)
    model = Model.build_for_examples(ModelConfig(), examples)
    prep = model.prepare(examples[0])
    assert prep.awig.num_words > 1  # the DGAT heads run
    counts = _counting_constructions(monkeypatch, ad.Var)

    def counting(owner, attr):
        counts[attr] = counts[f"{attr}_nodes"] = 0
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            before = counts["n"]
            result = fn(*args, **kwargs)
            counts[attr] += 1
            counts[f"{attr}_nodes"] += counts["n"] - before
            return result

        monkeypatch.setattr(owner, attr, wrapper)

    counting(dg, "dual_head_var")
    counting(dg, "relational_head_var")
    counting(le, "local_forward_var")
    batch_grads(model, [prep])
    adam_step(model.params, AdamState.for_params(model.params), 1e-3)
    assert counts["dual_head_var"] == model.config.U * model.config.L
    assert counts["relational_head_var"] == model.config.L  # one call per layer's heads
    assert counts["local_forward_var"] == 1
    assert counts["n"] <= MAX_NODES_PER_STEP
    assert counts["dual_head_var_nodes"] <= MAX_NODES_PER_DUAL_HEAD * counts["dual_head_var"]
    assert (counts["relational_head_var_nodes"]
            <= MAX_NODES_PER_REL_HEADS * counts["relational_head_var"])
    assert (counts["local_forward_var_nodes"]
            <= MAX_NODES_PER_LOCAL_FORWARD * counts["local_forward_var"])


def test_leaves_are_built_once():
    examples = generate_synthetic(seed=0, count=2)
    params = Model.build_for_examples(ModelConfig(**TOY), examples).params
    first = params.leaves()
    objects = dict(first)
    again = params.leaves()
    assert again is first
    assert list(again) == params.names()
    assert all(again[name] is leaf for name, leaf in objects.items())
    assert params.flat_leaf() is params.flat_leaf()


def test_a_later_step_builds_no_leaf_and_stays_within_the_steady_budget(monkeypatch):
    examples = generate_synthetic(seed=0, count=4)
    model = Model.build_for_examples(ModelConfig(), examples)
    prep = model.prepare(examples[0])
    first_loss, _ = batch_grads(model, [prep])
    first_grad = model.params.grad.copy()
    model.params.grad[:] = 1.0  # batch_grads zeroes what the last step left
    leaves = _counting_constructions(monkeypatch, ad.Leaf)
    nodes = _counting_constructions(monkeypatch, ad.Var)
    loss, _ = batch_grads(model, [prep])
    assert leaves["n"] == 0
    assert nodes["n"] <= MAX_NODES_PER_STEADY_STEP
    assert loss == first_loss
    assert np.array_equal(model.params.grad, first_grad)


def test_constant_inputs_get_no_gradient(monkeypatch):
    """The dropout keep masks and the l2 factor are multiplied in as constants."""
    examples = generate_synthetic(seed=0, count=4)
    model = Model.build_for_examples(ModelConfig(dropout=0.2), examples)
    prep = model.prepare(examples[0])
    batch_grads(model, [prep], dropout_rng=Rng(1))
    made = []
    init = ad.Var.__init__

    def recording_init(var, *args, **kwargs):
        made.append(var)
        init(var, *args, **kwargs)

    monkeypatch.setattr(ad.Var, "__init__", recording_init)
    batch_grads(model, [prep], dropout_rng=Rng(1))
    inputs = [v for v in made if v._vjp is None and not isinstance(v, ad.Leaf)]
    assert [v for v in inputs if v.grad is not None] == []


def test_predict_leaves_the_gradient_buffer_as_it_was(tmp_path):
    """Predict reads the Leafs that backward() adds into, but runs no
    backward(): params.grad keeps its bytes, on a trained model (the last
    step's gradient) and on a loaded one (zeros)."""
    examples = generate_synthetic(seed=0, count=4)
    trained = Model.build_for_examples(ModelConfig(**TOY), examples)
    train(trained, examples, epochs=1)
    path = tmp_path / "m.gdd"
    save_checkpoint(path, trained)
    for model in (trained, load_checkpoint(path)):
        before = model.params.grad.tobytes()
        for example in examples:
            model.predict(example)
        assert model.params.grad.tobytes() == before
    assert trained.params.grad.any()


def test_a_fresh_gradient_reads_zero_and_an_empty_layout_builds():
    params = md.ModelParams([("a", (300, 7)), ("b", (5,))])
    assert params.grad.shape == (2105,) and not params.grad.any()
    params.leaves()["b"].grad[...] = 1.0
    assert params.grad[-5:].tolist() == [1.0] * 5 and params.grad.sum() == 5.0
    for layout in ((), [("z", (0, 4))]):
        empty = md.ModelParams(layout)
        assert empty.total_size() == 0 and empty.grad.shape == (0,)


def test_predict_reads_the_training_leaves(monkeypatch):
    """A model's first predict builds one Leaf per parameter tensor outside
    the forward pass, params.leaves() itself, and later predicts build none
    there; a later predict stays within its node budget."""
    examples = generate_synthetic(seed=0, count=2)
    model = Model.build_for_examples(ModelConfig(), examples)
    nodes = _counting_constructions(monkeypatch, ad.Var)
    inside = {"n": 0}
    passed = []
    forward_var = Model.forward_var

    def counting_forward_var(self, prep, leaves, *args, **kwargs):
        passed.append(leaves)
        before = nodes["n"]
        try:
            return forward_var(self, prep, leaves, *args, **kwargs)
        finally:
            inside["n"] += nodes["n"] - before

    monkeypatch.setattr(Model, "forward_var", counting_forward_var)
    outside, total = [], []
    for example in (examples[0], examples[1], examples[0]):
        nodes["n"] = inside["n"] = 0
        model.predict(example)
        assert inside["n"] > 0
        outside.append(nodes["n"] - inside["n"])
        total.append(nodes["n"])
    assert outside == [len(model.params.names()), 0, 0]
    assert all(leaves is model.params.leaves() for leaves in passed)
    assert max(total[1:]) <= MAX_NODES_PER_STEADY_PREDICT


def test_a_predict_after_an_update_reads_the_new_weights():
    examples = generate_synthetic(seed=0, count=4)
    model = Model.build_for_examples(ModelConfig(), examples)
    before = model.predict(examples[1]).probs  # builds the cached parameter nodes
    batch_grads(model, [model.prepare(ex) for ex in examples])
    adam_step(model.params, AdamState.for_params(model.params), lr=0.01)
    after = model.predict(examples[1]).probs
    copy = md.ModelParams(md.param_layout(model.config, len(model.vocab), len(model.tag_vocab)))
    copy.flat[...] = model.params.flat
    fresh = Model(model.config, model.vocab, model.tag_vocab, copy).predict(examples[1]).probs
    assert np.array_equal(after, fresh)
    assert not np.array_equal(after, before)


_STEPS = """
import sys
from gdd.data import generate_synthetic
from gdd.model import Model, ModelConfig
from gdd.training import train
examples = generate_synthetic(seed=5, count=6)
model = Model.build_for_examples(ModelConfig(), examples)
train(model, examples, epochs=1)
open(sys.argv[1], "wb").write(model.params.flat.tobytes())
"""


def test_training_is_bit_identical_across_blas_thread_counts(tmp_path):
    """A few default-config steps end in the same parameter bytes with one
    and with two OpenBLAS threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    flat = {}
    for threads in ("1", "2"):
        out = tmp_path / f"flat-{threads}.bin"
        subprocess.run([sys.executable, "-c", _STEPS, str(out)], check=True, timeout=300,
                       env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads})
        flat[threads] = out.read_bytes()
    assert len(flat["1"]) > 0
    assert flat["1"] == flat["2"]


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


def test_divergence_is_named_at_its_step_before_the_update():
    examples = generate_synthetic(seed=0, count=20)
    model = Model.build_for_examples(ModelConfig(lr=1e6), examples)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as info:
        train(model, examples, epochs=2)
    err = info.value
    assert (err.epoch, err.step, err.tensor) == (1, 2, "embed.token")
    assert "training diverged at epoch 1, step 2" in str(err)
    assert "first non-finite gradient: embed.token" in str(err)
    assert np.all(np.isfinite(model.params.flat))  # Adam never saw the bad gradient


def test_train_prepares_each_set_once_and_scores_as_evaluate_does(monkeypatch):
    examples = generate_synthetic(seed=2, count=9)
    train_set, dev_set = examples[:6], examples[6:]
    model = Model.build_for_examples(ModelConfig(**TOY), examples)
    calls = {"n": 0}
    build_awig = md.build_awig

    def counting_build_awig(*args, **kwargs):
        calls["n"] += 1
        return build_awig(*args, **kwargs)

    monkeypatch.setattr(md, "build_awig", counting_build_awig)
    history = train(model, train_set, dev_set, epochs=3)
    assert len(history) == 3
    assert calls["n"] == len(train_set) + len(dev_set)
    dev = evaluate(model, dev_set)
    assert history[-1].dev_accuracy == dev.accuracy
    assert history[-1].dev_macro_f1 == dev.macro_f1


@pytest.mark.parametrize("stop_after, expected", [(2, [1, 2]), (None, [1, 2, 3, 4, 5])])
def test_a_true_on_epoch_return_ends_training_after_that_epoch(stop_after, expected):
    """A callback that returns True after epoch 2 of 5 leaves two EpochLogs;
    one that returns None, as the CLI's does, runs every epoch."""
    examples = generate_synthetic(seed=4, count=3)
    model = Model.build_for_examples(ModelConfig(**TOY), examples)
    seen = []

    def on_epoch(log):
        seen.append(log.epoch)
        return True if log.epoch == stop_after else None

    history = train(model, examples, epochs=5, on_epoch=on_epoch)
    assert [log.epoch for log in history] == seen == expected
