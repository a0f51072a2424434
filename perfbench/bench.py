"""Workloads, rounds, checks and metrics of the gdd benchmark; see README.md.

One run is one closed loop in one process. Every call goes through the
public gdd API and every output is checked; a failed check counts into
`failed` and fails the run.
"""

from __future__ import annotations

import contextlib
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gdd.training as tr
from gdd import checkpoint, data, metrics
from gdd.model import Model, ModelConfig

import corpus
import hostspeed
from tracer import Tracer

ROUNDS = 25           # one epoch each; the first warms up, the others are timed
TRAIN_SHARE = 0.6     # of a round, spent in its training epoch
PREDICT_SHARE = 0.3   # of a round, spent in its predict calls
CKPT_REPEATS = 8      # save/load pairs per round


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str                # "synth" or "semeval"
    batch_size: int
    lr: float
    train_rate: float          # ex/s and predictions/s on a 2-core x86 box; they size
    predict_rate: float        # a round's epoch and predict calls from --seconds
    setup_repeats: int         # 1 before training, the rest spread over the rounds
    train_file_count: int = 0  # 0: the training file holds exactly one epoch
    epochs_per_round: int = 1  # more, shorter epochs: more timed repeats of each step

    def config(self) -> ModelConfig:
        return ModelConfig(batch_size=self.batch_size, lr=self.lr)

    def epoch_size(self, seconds: float) -> int:
        per_epoch = (self.train_rate * TRAIN_SHARE * seconds
                     / ((ROUNDS - 1) * self.epochs_per_round))
        n = self.batch_size * max(1, round(per_epoch / self.batch_size))
        return min(n, self.train_file_count) if self.train_file_count else n

    def eval_size(self, seconds: float) -> int:
        """Eval examples; every round predicts each of them with the in-memory and
        the loaded model."""
        per_round = self.predict_rate * PREDICT_SHARE * seconds / (ROUNDS - 1) / 2
        return max(1, round(per_round))

    def setup_rounds(self) -> set[int]:
        """Rounds that repeat the set-up, counted back from the last one. ROUNDS is
        odd, so with an even step every repeat falls in an odd round, which a
        traced run traces; with step 1, every other one does."""
        step = (ROUNDS - 1) // max(self.setup_repeats - 1, 1)
        return {ROUNDS - k * step for k in range(self.setup_repeats - 1)}

    def inputs(self, seed: int, seconds: float):
        """(training records, eval records) for one seed."""
        n_train = self.train_file_count or self.epoch_size(seconds)
        n_eval = self.eval_size(seconds)
        if self.corpus == "synth":
            return ([data.example_to_dict(ex) for ex in data.generate_synthetic(2 * seed, n_train)],
                    [data.example_to_dict(ex) for ex in data.generate_synthetic(2 * seed + 1,
                                                                                n_eval)])
        return (corpus.semeval_records(2 * seed, n_train),
                corpus.semeval_records(2 * seed + 1, n_eval))


# train-semeval's steps take ~70 ms, so 24 repeats of each left its best step
# times (and train_ex_per_s) at the mercy of the host's slow spells; two epochs
# per round give 48. train-synth keeps one: its loss is a mean over the epoch,
# and halving the epoch would widen its spread between seeds.
# train-synth runs at lr 1e-5: after a run's ~4k steps its loss is still falling
# steadily, whereas at the default 5e-5 the 32-type corpus is memorised and the
# last-epoch loss sits near 0, where it differs between seeds by tens of percent.
WORKLOADS = {
    wl.name: wl for wl in (
        Workload("train-synth", corpus="synth", batch_size=1, lr=1e-5,
                 train_rate=140.0, predict_rate=550.0, setup_repeats=25),
        Workload("train-semeval", corpus="semeval", batch_size=16, lr=5e-5,
                 train_rate=125.0, predict_rate=450.0, setup_repeats=13,
                 train_file_count=3000, epochs_per_round=2),
    )
}


class Tally:
    """Operations attempted and failed; the notes say which checks failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.notes) < 20:
                self.notes.append(what)


def _probs_ok(pred) -> bool:
    p = pred.probs
    return bool(np.all(np.isfinite(p))) and abs(float(p.sum()) - 1.0) <= 1e-12


def _same(a, b) -> bool:
    return a.label_id == b.label_id and np.array_equal(a.probs, b.probs)


class Run:
    """One workload run: set-up, then ROUNDS rounds of [training epochs, checkpoint
    save and load, predict calls on both models, sometimes a set-up repeat],
    then a final evaluate check. Interleaving the rounds spreads every metric's
    samples over the whole run.

    The host is shared: for seconds at a time, other tenants make the same code
    run up to ~60% slower, and the share of a run spent in those spells differs
    between runs and between hours. So every timing repeats the same work over
    the whole run and keeps its best repeat, as timeit does: the set-up, each
    checkpoint call, each optimizer step (epochs run unshuffled, so step k of
    every epoch trains the same batch), and each eval example's predict call.
    Latency percentiles are taken over the eval examples' best times, so they
    describe how latency varies with the input. The host's best speed drifts
    too, over tens of minutes, so the best times are then scaled by the host's
    speed in the same run, as measured by hostspeed.Probe."""

    def __init__(self, wl: Workload, seed: int, seconds: float, trace: bool, work: Path):
        self.wl, self.seed, self.seconds, self.trace, self.work = wl, seed, seconds, trace, work
        self.tracer = Tracer()
        self.probe = hostspeed.Probe()
        self.tally = Tally()
        self.e2e: dict[str, tuple[float, str]] = {}
        self.summary: dict = {}
        self.setup_s: list[float] = []
        self.save_s: list[float] = []
        self.load_s: list[float] = []
        self.latencies: dict[int, list[float]] = {}  # eval example -> its timed calls
        self.step_s: list[float] = []                 # optimizer steps of the current epoch
        self.timed_steps: list[list[float]] = []      # step_s of every timed epoch
        # Seconds of epochs and predict calls in traced and untraced timed rounds.
        self.round_s = {True: 0.0, False: 0.0}

    def execute(self) -> None:
        self.train_path, eval_path = self.work / "train.jsonl", self.work / "eval.jsonl"
        train_recs, eval_recs = self.wl.inputs(self.seed, self.seconds)
        corpus.write_jsonl(self.train_path, train_recs)
        corpus.write_jsonl(eval_path, eval_recs)
        self.eval_examples = data.load_dataset(eval_path)

        with self._traced():
            model, train_examples = self.setup()
        loaded = self.training(model, train_examples)
        self.final_check(model, loaded)
        best = [min(calls) for calls in self.latencies.values()]
        times = {
            "setup_s": (min(self.setup_s), "s"),
            "ckpt_save_ms": (1e3 * min(self.save_s), "ms"),
            "ckpt_load_ms": (1e3 * min(self.load_s), "ms"),
            "predict_ms_p50": (1e3 * statistics.median(best), "ms"),
            "predict_ms_p90": (1e3 * statistics.quantiles(best, n=10)[-1], "ms"),
        }
        rates = {"predict_ex_per_s": (len(best) / sum(best), "ex/s")}
        if not self.trace:  # only an untraced run times the steps
            steps = [min(times) for times in zip(*self.timed_steps, strict=True)]
            rates["train_ex_per_s"] = (self.summary["epoch_examples"] / sum(steps), "ex/s")
        # Times on a host running at hostspeed's nominal speed; see hostspeed.py.
        slow = self.probe.best_s / hostspeed.NOMINAL_S
        self.e2e.update({name: (v / slow, unit) for name, (v, unit) in times.items()})
        self.e2e.update({name: (v * slow, unit) for name, (v, unit) in rates.items()})
        self.e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                   "MB")
        self.summary.update(setup_s_each=self.setup_s, predict_examples=len(best),
                            predict_calls_per_example=len(next(iter(self.latencies.values()))),
                            host_slowdown=slow, probe_calls=self.probe.calls,
                            unscaled={name: v for name, (v, _) in (times | rates).items()})

    def _traced(self):
        return self.tracer.active() if self.trace else contextlib.nullcontext()

    def setup(self):
        """What `gdd train` does before its first step."""
        start = time.perf_counter()
        with self.tracer.span("data.load_dataset"):
            examples = data.load_dataset(self.train_path)
        with self.tracer.span("model.build"):
            model = Model.build_for_examples(self.wl.config(), examples)
        for ex in examples:
            model.prepare(ex)
        self.setup_s.append(time.perf_counter() - start)
        return model, examples

    def training(self, model: Model, examples) -> Model:
        n = self.wl.epoch_size(self.seconds)
        per_round = self.wl.epochs_per_round
        setup_rounds = self.wl.setup_rounds()
        epoch_s, loaded = [], None
        resumed = time.perf_counter()

        def on_epoch(log):
            nonlocal resumed, loaded
            epoch_s.append(time.perf_counter() - resumed)
            r = (log.epoch - 1) // per_round + 1
            if r > 1:
                self.timed_steps.append(self.step_s)
            self.step_s = []
            if log.epoch % per_round:  # the round goes on with another epoch
                resumed = time.perf_counter()
                return
            traced = self.tracer.installed
            loaded, predict_s = self.round_io(model, r, timed=r > 1)
            if r > 1:
                self.round_s[traced] += sum(epoch_s[-per_round:]) + predict_s
            if r in setup_rounds:
                self.setup()
            if self.trace:  # timed rounds alternate: even ones untraced, odd ones traced
                (self.tracer.install if (r + 1) % 2 == 1 else self.tracer.uninstall)()
            resumed = time.perf_counter()

        try:
            # A traced run reports no train_ex_per_s, and its tracer rebinds the
            # same two names, so only an untraced run times the steps.
            with contextlib.nullcontext() if self.trace else self._step_timer():
                history = tr.train(model, examples[:n], epochs=ROUNDS * per_round,
                                   shuffle=False, on_epoch=on_epoch)
        finally:
            self.tracer.uninstall()
        steps = math.ceil(n / self.wl.batch_size)
        for log in history:
            self.tally.record(math.isfinite(log.train_loss),
                              f"epoch {log.epoch}: non-finite loss {log.train_loss}", steps)
        if self.wl.corpus == "synth":
            self.tally.record(history[-1].train_loss < history[0].train_loss,
                              "last-epoch loss not below first-epoch loss")
        rates = [n / s for s in epoch_s[per_round:]]
        self.e2e["train_loss_last"] = (history[-1].train_loss, "nats")
        self.summary.update(train_file_examples=len(examples), vocab=len(model.vocab),
                            parameters=model.params.total_size(), epoch_examples=n,
                            train_ex_per_s_each_epoch=rates,
                            epoch_losses=[log.train_loss for log in history])
        self.traced_train_examples = n * per_round * sum(1 for r in range(2, ROUNDS + 1)
                                                         if r % 2 == 1)
        return loaded

    @contextlib.contextmanager
    def _step_timer(self):
        """Appends to step_s the time of each optimizer step, from the start of its
        batch_grads call to the end of its adam_step call, by rebinding the two
        names that training.train looks up at call time."""
        batch_grads, adam_step = tr.batch_grads, tr.adam_step
        start = 0.0

        def timed_batch_grads(*args, **kwargs):
            nonlocal start
            start = time.perf_counter()
            return batch_grads(*args, **kwargs)

        def timed_adam_step(*args, **kwargs):
            out = adam_step(*args, **kwargs)
            self.step_s.append(time.perf_counter() - start)
            return out

        tr.batch_grads, tr.adam_step = timed_batch_grads, timed_adam_step
        try:
            yield
        finally:
            tr.batch_grads, tr.adam_step = batch_grads, adam_step

    def round_io(self, model: Model, r: int, timed: bool):
        """Save and reload the model CKPT_REPEATS times, then predict the eval set
        with both copies; the loaded copy must match the in-memory one bit for bit."""
        for k in range(CKPT_REPEATS):
            # A fresh file each time: truncating the previous one made save times
            # depend on the filesystem's writeback of it (0.5-2.2 ms against
            # 0.5-0.9 ms on a 2-core box).
            path = self.work / f"model-{r}-{k}.gdd"
            start = time.perf_counter()
            with self.tracer.span("checkpoint.save"):
                checkpoint.save_checkpoint(path, model)
            mid = time.perf_counter()
            with self.tracer.span("checkpoint.load"):
                loaded = checkpoint.load_checkpoint(path)
            end = time.perf_counter()
            if timed:
                self.save_s.append(mid - start)
                self.load_s.append(end - mid)
            self.summary["checkpoint_bytes"] = path.stat().st_size
            path.unlink()
        spent = 0.0
        for i, ex in enumerate(self.eval_examples):
            t0 = time.perf_counter()
            want = model.predict(ex)
            t1 = time.perf_counter()
            got = loaded.predict(ex)
            t2 = time.perf_counter()
            if timed:
                self.latencies.setdefault(i, []).extend((t1 - t0, t2 - t1))
                spent += t2 - t0
                self.probe.sample()
            self.tally.record(_probs_ok(want), f"predict {i}: bad probabilities")
            self.tally.record(_probs_ok(got) and _same(got, want),
                              f"predict {i}: loaded model differs from the in-memory one")
        return loaded, spent

    def final_check(self, model: Model, loaded: Model) -> None:
        """metrics.evaluate on the last loaded model against our own count."""
        examples = self.eval_examples
        own = sum(model.predict(ex).label_id == ex.label_id for ex in examples) / len(examples)
        with self._traced():
            start = time.perf_counter()
            with self.tracer.span("metrics.evaluate"):
                result = metrics.evaluate(loaded, examples)
            self.evaluate_s = time.perf_counter() - start
        self.tally.record(result.accuracy == own,
                          f"evaluate accuracy {result.accuracy} != own count {own}")
        self.summary.update(eval_accuracy=result.accuracy, eval_examples=len(examples))

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures from the traced parts of the run; see README.md."""
        tr = self.tracer
        fwd = tr.get("model.forward").calls
        train_ex = self.traced_train_examples
        steps = tr.get("training.adam").calls

        def ms(name, per, self_time=False):
            st = tr.get(name)
            return 1e3 * (st.self_s if self_time else st.total_s) / per

        def mean_ms(name):
            st = tr.get(name)
            return 1e3 * st.total_s / st.calls

        covered = (tr.get("training.step").child_s + tr.get("training.adam").total_s
                   + tr.get("model.predict").child_s + tr.get("metrics.score").total_s)
        words = tr.graph_words
        loads = tr.get("data.load_dataset").calls * self.summary["train_file_examples"]
        scored = tr.get("metrics.evaluate").calls * self.summary["eval_examples"]
        out = {
            "data.load_dataset_ms_per_ex": (ms("data.load_dataset", loads), "ms"),
            "model.build_ms": (mean_ms("model.build"), "ms"),
            "model.prepare_ms_per_ex": (mean_ms("model.prepare"), "ms"),
            "dep_graph.build_awig_ms_per_ex": (mean_ms("dep_graph.build_awig"), "ms"),
            "dep_graph.graph_words_mean": (sum(words) / len(words), "count"),
            "dep_graph.empty_graph_frac": (words.count(0) / len(words), "ratio"),
            "embeddings.lookup_ms_per_ex": (ms("embeddings.lookup", fwd), "ms"),
            "model.forward_ms_per_ex": (ms("model.forward", fwd), "ms"),
            "model.forward_self_ms_per_ex": (ms("model.forward", fwd, self_time=True), "ms"),
            "local_encoder.forward_ms_per_ex": (ms("local_encoder.forward", fwd), "ms"),
            "local_encoder.nodes_per_ex": (tr.get("local_encoder.forward").nodes / fwd, "count"),
            "dgat.forward_ms_per_ex": (ms("dgat.forward", fwd), "ms"),
            "dgat.forward_self_ms_per_ex": (ms("dgat.forward", fwd, self_time=True), "ms"),
            "dgat.dual_head_ms_per_ex": (ms("dgat.dual_head", fwd), "ms"),
            "dgat.rel_head_ms_per_ex": (ms("dgat.rel_head", fwd), "ms"),
            "dgat.relation_update_ms_per_ex": (ms("dgat.relation_update", fwd), "ms"),
            "dgat.nodes_per_ex": (tr.get("dgat.forward").nodes / fwd, "count"),
            "autodiff.circ_corr_ms_per_ex": (ms("autodiff.circ_corr", fwd), "ms"),
            "autodiff.circ_corr_calls_per_ex": (tr.get("autodiff.circ_corr").calls / fwd, "count"),
            "autodiff.nodes_per_ex": ((tr.get("training.step").nodes
                                       + tr.get("training.adam").nodes) / train_ex, "count"),
            "autodiff.backward_ms_per_ex": (ms("autodiff.backward", train_ex), "ms"),
            "model.regularizer_ms_per_step": (ms("model.regularizer", steps), "ms"),
            "model.regularizer_nodes_per_step": (tr.get("model.regularizer").nodes / steps,
                                                 "count"),
            "training.step_self_ms_per_step": (ms("training.step", steps, self_time=True), "ms"),
            "training.adam_ms_per_step": (ms("training.adam", steps), "ms"),
            "training.steps": (steps, "count"),
            "training.examples": (train_ex, "count"),
            "checkpoint.save_ms": (mean_ms("checkpoint.save"), "ms"),
            "checkpoint.load_ms": (mean_ms("checkpoint.load"), "ms"),
            "checkpoint.bytes": (self.summary["checkpoint_bytes"], "bytes"),
            "metrics.evaluate_ms_per_ex": (ms("metrics.evaluate", scored), "ms"),
            "metrics.score_ms_per_ex": (ms("metrics.score", scored), "ms"),
            "trace.coverage": (covered / (self.round_s[True] + self.evaluate_s), "ratio"),
            "trace.overhead_frac": (self.round_s[True] / self.round_s[False] - 1.0, "ratio"),
        }
        return out


def provenance(root: Path, wl: Workload, seed: int, seconds: float) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                     "MKL_NUM_THREADS")},
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "config": wl.config().to_dict(),
    }


def git_sha(root: Path) -> str:
    """HEAD of the checkout; "unknown" outside a git repository or without git."""
    if not (root / ".git").exists():  # keeps git from reporting an enclosing repository
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"
