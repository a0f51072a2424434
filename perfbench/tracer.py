"""Spans and tape-node counts at gdd's layer boundaries, taken from outside.

The tracer rebinds the module and class attributes that `gdd.model`,
`gdd.dgat`, `gdd.training` and `gdd.metrics` look up at call time, so the
program itself is unchanged. Each wrapper records a span: its duration, its
self time (duration minus the time of the spans nested in it) and the
number of `autodiff.Var` nodes built inside it. `uninstall` puts every
original attribute back.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass

import gdd.autodiff as ad
import gdd.dgat as dg
import gdd.local_encoder as le
import gdd.metrics as mt
import gdd.model as md
import gdd.training as tr


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0
    nodes: int = 0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


# (owner, attribute, span name). Both embedding-lookup methods share a span.
TARGETS = (
    (md, "build_awig", "dep_graph.build_awig"),
    (le, "local_forward_var", "local_encoder.forward"),
    (dg, "global_forward_var", "dgat.forward"),
    (dg, "dual_head_var", "dgat.dual_head"),
    (dg, "relational_head_var", "dgat.rel_head"),
    (dg, "relation_update_var", "dgat.relation_update"),
    (ad, "circ_corr", "autodiff.circ_corr"),
    (ad, "backward", "autodiff.backward"),
    (tr, "batch_grads", "training.step"),
    (tr, "adam_step", "training.adam"),
    (mt, "metrics_from_predictions", "metrics.score"),
    (md.Model, "predict", "model.predict"),
    (md.Model, "prepare", "model.prepare"),
    (md.Model, "forward_var", "model.forward"),
    (md.Model, "regularizer_var", "model.regularizer"),
    (md.Model, "_sentence_matrix", "embeddings.lookup"),
    (md.Model, "_edge_matrix", "embeddings.lookup"),
)


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.nodes = 0
        self.graph_words: list[int] = []
        self._stack: list[list] = []  # [name, start, nodes at start, child seconds]
        self._originals = {(owner, attr): owner.__dict__[attr] for owner, attr, _ in TARGETS}
        self._originals[(ad.Var, "__init__")] = ad.Var.__init__
        self._wrappers = {(owner, attr): self._wrap(self._originals[(owner, attr)], name)
                          for owner, attr, name in TARGETS}
        self._wrappers[(ad.Var, "__init__")] = self._count_nodes(ad.Var.__init__)
        self.installed = False

    def install(self) -> None:
        for (owner, attr), wrapper in self._wrappers.items():
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        for (owner, attr), original in self._originals.items():
            setattr(owner, attr, original)
        self.installed = False

    @contextlib.contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def span(self, name: str):
        """A span around a call the benchmark makes itself; inert when uninstalled."""
        return self._span(name) if self.installed else contextlib.nullcontext()

    @contextlib.contextmanager
    def _span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), self.nodes, 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, nodes0, child = self._stack.pop()
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.total_s += dur
        st.child_s += child
        st.nodes += self.nodes - nodes0
        if self._stack:
            self._stack[-1][3] += dur

    def _wrap(self, fn, name: str):
        enter, exit_ = self._enter, self._exit
        observe = self._observe_graph if name == "dep_graph.build_awig" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _count_nodes(self, init):
        tracer = self

        @functools.wraps(init)
        def counting_init(var, *args, **kwargs):
            tracer.nodes += 1
            init(var, *args, **kwargs)

        return counting_init

    def _observe_graph(self, awig) -> None:
        self.graph_words.append(awig.num_words)
