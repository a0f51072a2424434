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


def _scale_kernel(saved, grads):
    """A toy Batched kind, out = w * x, saved (name, w, log): each call logs
    the names of the nodes it runs, as one list."""
    if type(saved) is tuple:  # one node, as its own VJP
        (_, (name, w, log)), g = saved, grads
        log.append([name])
        return (g * w,)
    saved[0][2].append([name for name, _, _ in saved])
    return [(g * w,) for (_, w, _), g in zip(saved, grads)]


def _scaled(x, name, w, log):
    return Var(x.value * w, (x,), ad.batched(_scale_kernel, "scale", (name, w, log)))


def _plain(x, name, w, log):
    """out = w * x with a plain VJP that logs its name."""
    return Var(x.value * w, (x,), lambda g: log.append(name) or (g * w,))


def _total(vs, log):
    """The sum of every entry of vs, one plain node logged as "out"."""
    return Var(sum(v.value.sum() for v in vs), tuple(vs),
               lambda g: log.append("out") or tuple(g * np.ones(v.shape) for v in vs))


def _chains(xs, log):
    """Per input, a Batched node, a plain node and a Batched node of the
    same key in a chain: the first ones on level 1, the last ones on 2."""
    return _total([_scaled(_plain(_scaled(x, f"b1{i}", 2.0 + i, log), f"c{i}", 3.0, log),
                           f"b2{i}", 5.0 - i, log) for i, x in enumerate(xs)], log)


def _siblings(xs, log):
    """Three Batched nodes that read the one input."""
    return _total([_scaled(xs[0], f"s{i}", 2.0 + i, log) for i in range(3)], log)


def _plain_consumer(xs, log):
    """Two sibling Batched nodes on level 1, one of them read by a plain
    node on level 1 too."""
    b, other = _scaled(xs[0], "b", 2.0, log), _scaled(xs[0], "b'", 3.0, log)
    return _total([_plain(b, "p", 7.0, log), other], log)


@pytest.mark.parametrize("tape, want", [
    (_chains, ["out", ["b20", "b21"], "c0", "c1", ["b10", "b11"]]),
    (_siblings, ["out", ["s0", "s1", "s2"]]),
    (_plain_consumer, ["out", "p", ["b", "b'"]]),
], ids=["chained-batched-nodes-on-two-levels", "siblings-share-a-call",
        "plain-consumer-runs-first"])
def test_the_levels_run_the_rule_on_a_hand_built_tape(tape, want):
    """Levels run from the top; on each, the plain nodes in reverse
    post-order, then one kernel call per group. Two Batched nodes of one key
    with a plain node between them run in two calls, siblings share one, and
    a plain node that consumes a Batched node of its level runs before it.
    The gradients equal the sort's within 1e-14 relative."""
    rng = Rng(4)
    values = [rng.uniform((2, 3), -1.0, 1.0) for _ in range(2)]
    logs, grads = [], []
    for grouped in (False, True):
        xs = [ad.Leaf(v, np.zeros_like(v)) for v in values]
        log = []
        ad.backward(tape(xs, log), grouped=grouped)
        logs.append([sorted(entry) if type(entry) is list else entry for entry in log])
        grads.append([x.grad for x in xs])
    assert logs[1] == want
    assert all(len(entry) == 1 for entry in logs[0] if type(entry) is list)  # the sort: alone
    for got, ref in zip(grads[1], grads[0]):
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref), initial=0.0)


def _load_corpus():
    spec = importlib.util.spec_from_file_location("_perfbench_corpus", CORPUS_PY)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


@pytest.mark.parametrize("config, empty", [
    ({}, 0), ({"L": 3, "scale_logits": True}, 0), ({"dropout": 0.2}, 1),
], ids=["default", "three-layers-scaled", "mixed-dropout"])
def test_a_minibatch_step_runs_one_kernel_call_per_group(monkeypatch, config, empty):
    """At batch 16 on SemEval-shaped records, every Batched group runs as one
    kernel call: all of a step's correlations (one width), all of its pair
    projections (one shape at the default widths), and one dual and one
    relational call per layer. In the mixed minibatch, one example's aspect
    spans its sentence, so its graph is empty and it runs no DGAT node, and
    dropout is on: the calls cover the other 15."""
    records = _load_corpus().semeval_records(5, 16)
    if empty:
        records[7] = dict(records[7], aspect_start=0, aspect_end=len(records[7]["tokens"]))
    examples = [data.example_from_dict(r) for r in records]
    model = Model.build_for_examples(ModelConfig(batch_size=16, **config), examples)
    preps = [model.prepare(ex) for ex in examples]
    assert sum(prep.awig.num_words == 0 for prep in preps) == empty
    full = 16 - empty
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
    batch_grads(model, preps, Rng(11) if model.config.dropout else None)
    L, U = model.config.L, model.config.U
    for (owner, name), wrapper in ((k, getattr(*k)) for k in kernels):
        counts = [n for w, n in calls if w is wrapper]
        if name == "_circ_corr_kernel":
            assert counts == [full * U * L]
        elif name == "_pair_kernel":  # layers past the first share the first's shapes here
            assert counts == [full * U * L]
        else:
            assert counts == [full] * L


def test_batch_grads_levels_the_tape_only_for_a_minibatch(monkeypatch):
    """At batch 1 backward() replays its sort, each Batched node alone; at
    batch 3 it levels the tape once."""
    examples = data.generate_synthetic(seed=2, count=3)
    model = Model.build_for_examples(ModelConfig(), examples)
    preps = [model.prepare(ex) for ex in examples]
    sorts, levels = [], []
    sort, levelled = ad._sorted, ad._levelled
    monkeypatch.setattr(ad, "_sorted", lambda out: sorts.append(out) or sort(out))
    monkeypatch.setattr(ad, "_levelled", lambda out: levels.append(out) or levelled(out))
    for batch, want in (([preps[0]], 0), (preps, 1)):
        sorts.clear()
        levels.clear()
        batch_grads(model, batch)
        assert (len(sorts), len(levels)) == (1, want)


@pytest.mark.parametrize("config", [{}, {"U": 1, "V": 0, "scale_logits": True}],
                         ids=["default", "one-dual-head-scaled"])
def test_the_sort_and_the_levels_give_the_same_gradient(config):
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
