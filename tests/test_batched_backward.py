"""The batched backward: each Batched kernel over a group equals its
batch-of-one calls, and a minibatch step runs one kernel call per group.

A kernel may hand a contribution that its group shares (a weight's
gradient, or the sum of several heads' gradients to one input) once, on one
node, so the comparison is per parent: the sum of the contributions that a
parent receives from one kernel call over the group against the sum of
those it receives from each node's own call.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdd import autodiff as ad
from gdd import data
from gdd import dgat as dg
from gdd.autodiff import Var
from gdd.model import Model, ModelConfig
from gdd.numeric import Rng
from gdd.training import batch_grads

CORPUS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
D_MODEL, D_EDGE, D_HEAD, A_WIDTH = 6, 5, 4, 7


def _dense(contrib):
    return ad._product(*contrib) if type(contrib) is tuple else np.asarray(contrib)


def _per_parent(nodes, results):
    """{id(parent): (parent, summed contribution)} over every node's results."""
    total = {}
    for node, contribs in zip(nodes, results):
        for parent, c in zip(node._parents, contribs):
            if c is None:
                continue
            key = id(parent)
            if key in total:
                total[key] = (parent, total[key][1] + _dense(c))
            else:
                total[key] = (parent, _dense(c))
    return total


def _assert_group_equals_singles(nodes, grads):
    """One kernel call over the nodes gives each parent what the nodes' own
    batch-of-one calls give it, within 1e-14 relative."""
    batches = [n._vjp.__self__ for n in nodes]  # ((kernel, key), saved) each, see ad.batched
    (kernel, _), _ = batches[0]
    assert all(group == batches[0][0] for group, _ in batches)
    grouped = _per_parent(nodes, kernel([saved for _, saved in batches], grads))
    single = _per_parent(nodes, [n._vjp(g) for n, g in zip(nodes, grads)])
    assert grouped.keys() == single.keys()
    for key, (_, want) in single.items():
        got = grouped[key][1]
        assert got.shape == want.shape
        scale = max(np.max(np.abs(want)), 1e-300)
        assert np.max(np.abs(got - want)) <= 1e-14 * scale


def _grads(nodes, rng):
    return [rng.uniform(n.value.shape, -1.0, 1.0) for n in nodes]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(counts=st.lists(st.integers(1, 7), min_size=1, max_size=5),
       U=st.sampled_from([1, 3]), V=st.sampled_from([1, 3]), scale=st.booleans(),
       seed=st.integers(0, 2**16))
def test_dgat_kernels_over_a_group_equal_their_batch_of_one_calls(counts, U, V, scale, seed):
    rng = Rng(seed)
    heads = [dg.DualHeadParams(Var(rng.uniform((D_EDGE, D_HEAD), -1, 1)),
                               Var(rng.uniform((D_MODEL, D_HEAD), -1, 1))) for _ in range(U)]
    Wa = Var(rng.uniform((U, A_WIDTH, D_HEAD), -1, 1))
    rel = dg.RelHeads(*(Var(rng.uniform(shape, -1, 1)) for shape in (
        (V, D_MODEL, D_HEAD), (V, D_EDGE, D_HEAD), (V, D_HEAD), (V, D_HEAD, 1))))
    pairs, composeds, duals, rels = [], [], [], []
    for m in counts:
        H_N, E = Var(rng.uniform((m, D_MODEL), -1, 1)), Var(rng.uniform((m, D_EDGE), -1, 1))
        p, c = zip(*(dg.dual_head_var(H_N, E, hp) for hp in heads))
        duals.append(dg.dual_attention_var(Var(rng.uniform((A_WIDTH,), -1, 1)), Wa, p, c,
                                           scale)[0])
        rels.append(dg.relational_head_var(H_N, E, rel)[0])
        pairs += p
        composeds += c
    for nodes in (pairs, composeds, duals, rels):
        _assert_group_equals_singles(nodes, _grads(nodes, rng))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(counts=st.lists(st.integers(1, 7), min_size=1, max_size=5),
       d=st.sampled_from([4, 5, 16]), seed=st.integers(0, 2**16))
def test_circ_corr_kernel_over_a_group_equals_its_batch_of_one_calls(counts, d, seed):
    rng = Rng(seed)
    nodes = [ad.circ_corr(Var(rng.uniform((2, m, d), -1, 1))) for m in counts]
    _assert_group_equals_singles(nodes, _grads(nodes, rng))


def _load_corpus():
    spec = importlib.util.spec_from_file_location("_perfbench_corpus", CORPUS_PY)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


@pytest.mark.parametrize("config", [{}, {"L": 3, "scale_logits": True}],
                         ids=["default", "three-layers-scaled"])
def test_a_minibatch_step_runs_one_kernel_call_per_group(monkeypatch, config):
    """At batch 16 on SemEval-shaped records, every Batched group runs as one
    kernel call: all of a step's correlations (one width), all of its pair
    projections (one shape at the default widths), and one dual and one
    relational call per layer."""
    records = _load_corpus().semeval_records(5, 16)
    examples = [data.example_from_dict(r) for r in records]
    model = Model.build_for_examples(ModelConfig(batch_size=16, **config), examples)
    preps = [model.prepare(ex) for ex in examples]
    assert all(prep.awig.num_words > 0 for prep in preps)
    calls = []

    def counting(kernel):
        def wrapper(saved, grads):
            calls.append((wrapper, len(saved)))
            return kernel(saved, grads)
        return wrapper

    kernels = {(ad, "_circ_corr_kernel"): 0, (dg, "_pair_kernel"): 0,
               (dg, "_dual_attention_kernel"): 0, (dg, "_relational_kernel"): 0}
    for owner, name in kernels:
        monkeypatch.setattr(owner, name, counting(getattr(owner, name)))
    batch_grads(model, preps)
    L, U = model.config.L, model.config.U
    for (owner, name), wrapper in ((k, getattr(*k)) for k in kernels):
        counts = [n for w, n in calls if w is wrapper]
        if name == "_circ_corr_kernel":
            assert counts == [16 * U * L]
        elif name == "_pair_kernel":  # layers past the first share the first's shapes here
            assert counts == [16 * U * L]
        else:
            assert counts == [16] * L


def test_batch_grads_runs_the_agenda_only_for_a_minibatch(monkeypatch):
    """At batch 1 backward() replays its sort, each Batched node alone; at
    batch 3 it runs the agenda."""
    examples = data.generate_synthetic(seed=2, count=3)
    model = Model.build_for_examples(ModelConfig(), examples)
    preps = [model.prepare(ex) for ex in examples]
    calls = []
    agenda = ad._agenda
    monkeypatch.setattr(ad, "_agenda", lambda *args: calls.append(args) or agenda(*args))
    for batch, want in (([preps[0]], 0), (preps, 1)):
        calls.clear()
        batch_grads(model, batch)
        assert len(calls) == want


@pytest.mark.parametrize("config", [{}, {"U": 1, "V": 0, "scale_logits": True}],
                         ids=["default", "one-dual-head-scaled"])
def test_the_sort_and_the_agenda_give_the_same_gradient(config):
    """One minibatch's loss, taped twice: backward() without and with groups
    gives every tensor the same gradient within 1e-14 relative."""
    examples = data.generate_synthetic(seed=3, count=4)
    model = Model.build_for_examples(ModelConfig(batch_size=4, **config), examples)
    preps = [model.prepare(ex) for ex in examples]
    grads = []
    for grouped in (False, True):
        model.params.grad.fill(0.0)
        ad.backward(model.batch_loss_var(preps), grouped=grouped)
        grads.append({name: leaf.grad.copy() for name, leaf in model.params.leaves().items()})
    assert any(np.any(g) for g in grads[0].values())
    for name, want in grads[0].items():
        scale = np.max(np.abs(want), initial=0.0)
        assert np.max(np.abs(grads[1][name] - want), initial=0.0) <= 1e-14 * scale, name
