"""Command-line surface: train, eval, build-graph, inspect, verify-proposition, gradcheck.

Exit codes: 0 success, 1 internal failure (including a failed check), 2
usage or input error, training that diverged (a configuration such as
too large an lr; no checkpoint is written), or a forward pass that is not
finite (eval and inspect name the record's file and line). Configuration
comes from an optional flat key=value file plus per-key flags; flags win.
GDD_SEED provides a seed fallback when neither source sets one;
resolve_config reads it for every command that takes a seed. A closed
stdout (`gdd ... | head`) ends the command with exit 1 and nothing on
stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import traceback

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import DataError, as_index, generate_synthetic, load_dataset, load_numbered, read_text
from .dep_graph import ParseError, build_awig, parse_conllu
from .embeddings import load_precomputed
from .local_encoder import check_stationarity
from .metrics import evaluate
from .model import Model, ModelConfig, NonFiniteForward
from .numeric import Rng
from .training import EpochLog, TrainingDiverged, gradcheck_model, train

INPUT_ERRORS = (DataError, ParseError, CheckpointError, FileNotFoundError,
                IsADirectoryError, PermissionError)

CONFIG_FIELDS = [f.name for f in dataclasses.fields(ModelConfig)]


class UsageError(ValueError):
    pass


def read_config_file(path) -> dict:
    """Flat key=value lines; '#' comments and blank lines ignored."""
    out = {}
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def resolve_config(args) -> ModelConfig:
    """Merge config file, per-key flags, and the GDD_SEED fallback.

    gradcheck and verify-proposition take their seed from it too, so one
    parser reads and checks --seed and GDD_SEED on every command."""
    raw = {}
    if getattr(args, "config", None):
        raw.update(read_config_file(args.config))
    for key in CONFIG_FIELDS:
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = value
    if "seed" not in raw and os.environ.get("GDD_SEED"):
        raw["seed"] = os.environ["GDD_SEED"]
    try:
        return ModelConfig.from_dict(raw)
    except ValueError as e:
        raise UsageError(str(e)) from None


def add_config_flags(sub) -> None:
    sub.add_argument("--config", help="flat key=value config file")
    for key in CONFIG_FIELDS:
        sub.add_argument(f"--{key}", dest=key, default=None, metavar="V",
                         help=argparse.SUPPRESS)


def cmd_train(args) -> int:
    config = resolve_config(args)
    examples = load_dataset(args.train)
    if not examples:
        raise DataError(f"{args.train}: empty training set")
    dev = load_dataset(args.dev) if args.dev else None
    model = Model.build_for_examples(config, examples)
    if args.embeddings_file:
        model.frozen_embeddings = load_precomputed(args.embeddings_file)

    def emit(log: EpochLog):
        record = {"epoch": log.epoch, "train_loss": log.train_loss}
        if log.dev_accuracy is not None:
            record["dev_acc"] = log.dev_accuracy
            record["dev_macro_f1"] = log.dev_macro_f1
        print(json.dumps(record), flush=True)

    train(model, examples, dev_examples=dev, on_epoch=emit)
    save_checkpoint(args.out, model)
    return 0


@contextlib.contextmanager
def forward_passes(path, numbered):
    """The block's forward passes over the examples of `numbered`, the
    (line number, Example) pairs read from `path`, under one np.errstate
    that silences numpy's floating-point warnings; a pass that is not finite
    raises a DataError naming the record's line and the first non-finite
    quantity instead."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        try:
            yield
        except NonFiniteForward as e:
            lineno = next(n for n, ex in numbered if ex is e.example)
            raise DataError(f"{path}:{lineno}: {e}") from None


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    numbered = load_numbered(args.data)
    if not numbered:
        raise DataError(f"{args.data}: empty dataset")
    if args.embeddings_file:
        model.frozen_embeddings = load_precomputed(args.embeddings_file)
    with forward_passes(args.data, numbered):
        metrics = evaluate(model, [ex for _, ex in numbered])
    print(json.dumps(metrics.to_dict()))
    return 0


def _span_pairs(spans, where: str) -> list[tuple[int, int]]:
    """The [start, end) pairs of one spans record, as ints; a pair that is
    not two integers is an input error naming where it was read."""
    if not isinstance(spans, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in spans):
        raise DataError(f"{where}: expected {{\"spans\": [[start, end], ...]}}")
    try:
        return [(as_index(start, "span start"), as_index(end, "span end"))
                for start, end in spans]
    except DataError as e:
        raise DataError(f"{where}: {e}") from None
    except (TypeError, ValueError) as e:
        raise DataError(f"{where}: malformed span: {e}") from None


def cmd_build_graph(args) -> int:
    if args.kappa_max < 1:
        raise UsageError("--kappa-max must be at least 1")
    trees = parse_conllu(read_text(args.conllu))
    spans_per_sentence = []
    for lineno, line in enumerate(read_text(args.spans).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"{args.spans}:{lineno}: invalid JSON: {e}") from None
        if not isinstance(rec, dict) or "spans" not in rec:
            raise DataError(f"{args.spans}:{lineno}: expected {{\"spans\": [[start, end], ...]}}")
        spans_per_sentence.append(_span_pairs(rec["spans"], f"{args.spans}:{lineno}"))
    if len(spans_per_sentence) != len(trees):
        raise DataError(f"{args.spans}: {len(spans_per_sentence)} span records for "
                        f"{len(trees)} sentences")
    for sent_no, (tree, spans) in enumerate(zip(trees, spans_per_sentence), start=1):
        for start, end in spans:
            try:
                awig = build_awig(tree, (start, end - 1), args.kappa_max,
                                  drop_punct=args.drop_punct)
            except ValueError as e:
                raise DataError(f"{args.spans}: sentence {sent_no}: {e}") from None
            print(json.dumps(awig.to_json_dict(tree.tokens)))
    return 0


def cmd_inspect(args) -> int:
    model = load_checkpoint(args.checkpoint)
    numbered = load_numbered(args.data)
    if not 0 <= args.index < len(numbered):
        raise DataError(f"--index {args.index} out of range for {len(numbered)} examples")
    if args.embeddings_file:
        model.frozen_embeddings = load_precomputed(args.embeddings_file)
    with forward_passes(args.data, numbered):
        _, trace = model.predict(numbered[args.index][1], with_trace=True)
    print(json.dumps(trace))
    return 0


def cmd_verify_proposition(args) -> int:
    if args.n < 2:
        raise UsageError("--n must be at least 2")
    if args.d < 1:
        raise UsageError("--d must be at least 1")
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    seed = resolve_config(args).seed
    rng = Rng(seed)
    trials = []
    attempts = 0
    while len(trials) < args.trials:
        attempts += 1
        if attempts > 10 * args.trials:
            raise RuntimeError("could not generate enough non-degenerate instances")
        Q = rng.normal((args.n, args.d))
        K = rng.normal((args.n, args.d))
        try:
            report = check_stationarity(Q, K, rng=Rng(seed + attempts))
        except ValueError:
            continue  # degenerate draw; move to the next one
        trials.append(report)
    all_ok = all(t.is_stationary for t in trials)
    print(json.dumps({
        "trials": len(trials),
        "n": args.n,
        "d": args.d,
        "pass": all_ok,
        "grad_norm_at_mean": {
            "max": max(t.grad_norm_at_mean for t in trials),
            "median": sorted(t.grad_norm_at_mean for t in trials)[len(trials) // 2],
        },
        "median_random_grad_norm": {
            "min": min(t.median_random_grad_norm for t in trials),
        },
    }))
    return 0 if all_ok else 1


def cmd_gradcheck(args) -> int:
    if not 0 < args.tolerance < math.inf:  # false for NaN too
        raise UsageError("--tolerance must be a finite positive number")
    seed = resolve_config(args).seed
    config = ModelConfig(d_model=8, d_tag=4, d_head=4, d_hid=4, U=1, V=1, L=1, seed=seed)
    example = generate_synthetic(seed=seed, count=4)[1]
    model = Model.build_for_examples(config, [example])
    report = gradcheck_model(model, example, tolerance=args.tolerance)
    print(json.dumps({
        "tolerance": report.tolerance,
        "ok": report.ok,
        "tensors": {name: err for name, err in sorted(report.per_tensor.items())},
    }))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdd",
        description="Aspect-based sentiment classifier with a Gaussian-mask local "
                    "encoder and a dual-level graph attention global encoder.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--train", required=True, help="training JSONL")
    p.add_argument("--dev", help="optional dev JSONL for per-epoch metrics")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--embeddings-file", help="frozen per-token vectors (JSONL)")
    add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--embeddings-file", help="frozen per-token vectors (JSONL)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("build-graph", help="emit aspect-word graphs from CoNLL-U input")
    p.add_argument("--conllu", required=True)
    p.add_argument("--spans", required=True,
                   help='JSONL, one {"spans": [[start, end], ...]} per sentence '
                        "(end exclusive)")
    p.add_argument("--kappa-max", type=int, default=3)
    p.add_argument("--drop-punct", action="store_true")
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("inspect", help="dump sigma, mask, and attention traces for one example")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--embeddings-file", help="frozen per-token vectors (JSONL)")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("verify-proposition",
                       help="numerically check that the score-contrast objective is "
                            "stationary at the sample means")
    p.add_argument("--seed", help="default: GDD_SEED, else 0")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_verify_proposition)

    p = sub.add_parser("gradcheck", help="finite-difference check of every parameter tensor")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--seed", help="default: GDD_SEED, else 0")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout is gone. Point stdout at devnull so the flush at
        # interpreter exit cannot fail again (the recipe of Python's signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (UsageError, TrainingDiverged, NonFiniteForward, *INPUT_ERRORS) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
