"""The benchmark's tracer still finds what it traces.

perfbench/tracer.py looks up every (owner, attribute) of its TARGETS when a
Tracer is built, and every benchmark run builds one, traced or not. A
renamed or deleted target would make every run exit 1, and a target that
nothing calls any more would leave its span empty. These tests read that
file and change nothing in it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from gdd.data import generate_synthetic
from gdd.metrics import evaluate
from gdd.model import Model, ModelConfig
from gdd.training import train

TRACER_PY = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
# L = 2, so that the relation update between layers runs.
SMALL = dict(d_model=8, d_tag=4, d_head=4, d_hid=4, U=1, V=2, L=2)


@pytest.fixture(scope="module")
def tracer_module():
    name = "_perfbench_tracer"
    spec = importlib.util.spec_from_file_location(name, TRACER_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclass resolves annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def test_every_target_resolves(tracer_module):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracer_module.TARGETS
               if not callable(vars(owner).get(attr))]
    assert missing == []
    tracer_module.Tracer()  # what every benchmark run does first


def test_every_target_is_called_by_train_predict_and_evaluate(tracer_module):
    examples = generate_synthetic(seed=3, count=6)
    model = Model.build_for_examples(ModelConfig(**SMALL), examples)
    tracer = tracer_module.Tracer()
    with tracer.active():
        train(model, examples[:4], dev_examples=examples[4:], epochs=1)
        model.predict(examples[0])
        evaluate(model, examples)
    idle = sorted({span for _, _, span in tracer_module.TARGETS if not tracer.get(span).calls})
    assert idle == []


def test_a_predict_runs_every_dual_head_and_its_correlation(tracer_module):
    """Mirrors perfbench/test_tracer.py::test_predict_spans_nest_and_count_nodes,
    which tier-1 does not collect: a default-config predict calls
    dgat.dual_head_var and autodiff.circ_corr U * L times each, more nodes
    are built under dual_head_var than under circ_corr, which builds some,
    and every node but the per-tensor leaves is built inside forward_var."""
    examples = generate_synthetic(seed=4, count=2)
    config = ModelConfig()
    model = Model.build_for_examples(config, examples)
    span = {attr: name for _, attr, name in tracer_module.TARGETS}
    tracer = tracer_module.Tracer()
    with tracer.active():
        model.predict(examples[0])
    dual, corr = tracer.get(span["dual_head_var"]), tracer.get(span["circ_corr"])
    assert dual.calls == corr.calls == config.U * config.L
    assert dual.nodes > corr.nodes > 0
    assert tracer.get(span["forward_var"]).nodes == tracer.nodes - len(model.params.names())
