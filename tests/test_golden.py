"""Golden fixture: losses, gradients, predictions and short training runs.

The arrays in golden/training.npz and the checkpoint golden/toy.gdd were
recorded with the code at the commit that added them. Every refactor of the
tape, the parameter storage or the optimizer must reproduce them: numbers
to 1e-10 relative, checkpoint bytes exactly.

The relative error of a record (the loss, the probabilities, all gradients,
or all parameters after a training run) is its largest absolute difference
over its largest recorded entry. It is taken over the whole record, not per
tensor: the relation heads' output biases (dgat.l*.rel*.b2) shift every
logit of a softmax, so their true gradient is zero. The recorded gradients
and trained values of b2 are rounding noise of ~1e-16 from when the heads
added it; the heads no longer read b2, so they now compute exactly 0 and
leave b2 at its initial value, within that noise of the record.

Regenerate (only when a change of results is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import numpy as np
import pytest

from gdd.checkpoint import load_checkpoint, save_checkpoint
from gdd.data import generate_synthetic
from gdd.model import Model, ModelConfig
from gdd.training import batch_grads, train

GOLDEN_DIR = Path(__file__).parent / "golden"
ARRAYS = GOLDEN_DIR / "training.npz"
TOY_CHECKPOINT = GOLDEN_DIR / "toy.gdd"
RTOL = 1e-10

TOY = dict(d_model=8, d_tag=4, d_head=4, d_hid=4, U=1, V=1, L=1)
CONFIGS = {"default": {}, "toy": TOY}
# Five Adam steps each: one epoch of 5 examples at batch 1, of 15 at batch 3.
TRAIN_RUNS = {"batch1": (dict(batch_size=1), 5),
              "batch3-dropout": (dict(batch_size=3, dropout=0.2), 15)}


def _examples():
    return generate_synthetic(seed=0, count=15)


def record(config_name: str) -> dict[str, np.ndarray]:
    """Everything the fixture holds for one configuration, from the current code."""
    overrides = CONFIGS[config_name]
    examples = _examples()
    model = Model.build_for_examples(ModelConfig(**overrides), examples)
    out = {}
    loss, grads = batch_grads(model, [model.prepare(ex) for ex in examples])
    out[f"{config_name}/loss"] = np.array(loss)
    for name, g in grads.items():
        out[f"{config_name}/grad/{name}"] = g.copy()
    out[f"{config_name}/probs"] = np.stack([model.predict(ex).probs for ex in examples])
    for run, (extra, count) in TRAIN_RUNS.items():
        model = Model.build_for_examples(ModelConfig(**overrides, **extra), examples)
        train(model, examples[:count], epochs=1)
        for name, t in model.params.items():
            out[f"{config_name}/{run}/{name}"] = t.copy()
    return out


@pytest.fixture(scope="module")
def golden():
    with np.load(ARRAYS) as npz:
        return {key: npz[key] for key in npz.files}


@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_numbers_match_the_recorded_fixture(config_name, golden):
    got = record(config_name)
    want = {k: v for k, v in golden.items() if k.startswith(config_name + "/")}
    assert got.keys() == want.keys()
    diff, scale = {}, {}
    for key, w in want.items():
        assert got[key].shape == w.shape, key
        rec = key.rsplit("/", 1)[0] if key.count("/") == 2 else key
        diff[rec] = max(diff.get(rec, 0.0), float(np.max(np.abs(got[key] - w))))
        scale[rec] = max(scale.get(rec, 0.0), float(np.max(np.abs(w))))
    errors = {rec: diff[rec] / scale[rec] for rec in diff}
    assert len(errors) == 3 + len(TRAIN_RUNS)  # loss, grad, probs and the runs
    bad = {rec: e for rec, e in errors.items() if not e <= RTOL}
    assert not bad, bad


def test_checkpoint_bytes_unchanged_by_a_load_and_save(tmp_path):
    again = tmp_path / "again.gdd"
    save_checkpoint(again, load_checkpoint(TOY_CHECKPOINT))
    assert again.read_bytes() == TOY_CHECKPOINT.read_bytes()


def _write_fixture() -> None:
    arrays = {}
    for config_name in CONFIGS:
        arrays.update(record(config_name))
    np.savez_compressed(ARRAYS, **arrays)
    examples = _examples()
    model = Model.build_for_examples(ModelConfig(**TOY), examples)
    train(model, examples[:5], epochs=1)
    save_checkpoint(TOY_CHECKPOINT, model)


if __name__ == "__main__":
    _write_fixture()
