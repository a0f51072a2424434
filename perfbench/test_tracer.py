"""The tracer changes no number, nests its spans, and puts every attribute back."""

import contextlib
import json
from pathlib import Path

import numpy as np
import pytest

import gdd.training as tr
from gdd.data import generate_synthetic
from gdd.model import Model, ModelConfig
from gdd.training import train

import bench
import run
from tracer import TARGETS, Tracer

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _train_recording(config, trace: bool):
    """Short train-synth run; returns (loss and gradients of every step, final params)."""
    examples = generate_synthetic(seed=3, count=8)
    model = Model.build_for_examples(config, examples)
    steps = []
    batch_grads = tr.batch_grads

    def recorder(*args, **kwargs):
        loss, grads = batch_grads(*args, **kwargs)
        steps.append((loss, {name: g.copy() for name, g in grads.items()}))
        return loss, grads

    tr.batch_grads = recorder
    try:
        with Tracer().active() if trace else contextlib.nullcontext():
            train(model, examples, epochs=2)
    finally:
        tr.batch_grads = batch_grads
    return steps, dict(model.params.items())


@pytest.mark.parametrize("config", [ModelConfig(), ModelConfig(batch_size=3, dropout=0.2)],
                         ids=["batch1", "batch3-dropout"])
def test_loss_and_gradients_bit_identical_with_tracing(config):
    plain, plain_params = _train_recording(config, trace=False)
    traced, traced_params = _train_recording(config, trace=True)
    assert [loss for loss, _ in traced] == [loss for loss, _ in plain]
    for (_, g_traced), (_, g_plain) in zip(traced, plain, strict=True):
        assert g_traced.keys() == g_plain.keys()
        for name in g_plain:
            assert np.array_equal(g_traced[name], g_plain[name]), name
    for name, value in plain_params.items():
        assert np.array_equal(traced_params[name], value), name


def _bound_attributes():
    import gdd.autodiff as ad
    return {(owner, attr): owner.__dict__[attr] for owner, attr, _ in TARGETS} | {
        (ad.Var, "__init__"): ad.Var.__dict__["__init__"]}


def test_every_attribute_restored_even_after_an_error():
    before = _bound_attributes()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.active():
            assert all(_bound_attributes()[key] is not fn for key, fn in before.items())
            raise RuntimeError("boom")
    assert all(_bound_attributes()[key] is fn for key, fn in before.items())
    assert not tracer.installed


def test_predict_spans_nest_and_count_nodes():
    examples = generate_synthetic(seed=4, count=2)
    config = ModelConfig()
    model = Model.build_for_examples(config, examples)
    tracer = Tracer()
    with tracer.active():
        model.predict(examples[0])
    st = tracer.stats
    assert st["model.predict"].calls == st["model.forward"].calls == 1
    assert st["autodiff.circ_corr"].calls == config.U * config.L
    assert st["dgat.dual_head"].calls == config.U * config.L
    nested = ("model.prepare", "model.forward")
    assert st["model.predict"].child_s == pytest.approx(sum(st[n].total_s for n in nested))
    assert st["dgat.dual_head"].nodes > st["autodiff.circ_corr"].nodes > 0
    # predict builds one leaf per parameter tensor, everything else inside the forward pass
    assert st["model.forward"].nodes == tracer.nodes - len(model.params.names())
    assert tracer.graph_words == [model.prepare(examples[0]).awig.num_words]


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_of_benchmark_json(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("workload, traced_setups", [("train-synth", 13), ("train-semeval", 13)])
def test_traced_run_traces_the_set_up_repeats(workload, traced_setups, tmp_path):
    """The first set-up and every repeat that falls in an odd round are traced."""
    run_ = bench.Run(bench.WORKLOADS[workload], seed=3, seconds=1, trace=True, work=tmp_path)
    run_.execute()
    assert run_.tracer.get("model.build").calls == traced_setups
    assert run_.tracer.get("data.load_dataset").calls == traced_setups


def test_untraced_run_times_every_step_and_restores_training(tmp_path):
    before = (tr.batch_grads, tr.adam_step)
    run_ = bench.Run(bench.WORKLOADS["train-semeval"], seed=3, seconds=1, trace=False,
                     work=tmp_path)
    run_.execute()
    assert (tr.batch_grads, tr.adam_step) == before
    steps = run_.summary["epoch_examples"] // 16
    epochs = (bench.ROUNDS - 1) * run_.wl.epochs_per_round
    assert [len(epoch) for epoch in run_.timed_steps] == [steps] * epochs
