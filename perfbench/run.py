#!/usr/bin/env python3
"""Run one workload of the gdd benchmark and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload train-semeval --seed 1 --seconds 20 --trace 0

Inputs are generated from --seed; the gdd sources come from src/ of the
same checkout. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The lines before it give
the provenance and a summary. Exit status: 0 when every check passed, 1
when one failed, 2 on bad usage or when the gdd sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return ap, args


def main(argv=None) -> int:
    ap, args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "gdd" / "__init__.py").is_file():
        print(f"perfbench: no gdd sources under {src}", file=sys.stderr)
        return 2
    # One thread everywhere: the load stays one process below nproc threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import bench

    if args.workload not in bench.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    wl = bench.WORKLOADS[args.workload]
    print(json.dumps({"provenance": bench.provenance(ROOT, wl, args.seed, args.seconds)}))
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=scratch))
    run = bench.Run(wl, args.seed, args.seconds, bool(args.trace), work)
    try:
        run.execute()
        metrics = run.layer_metrics() if args.trace else run.e2e
    except Exception:  # a crash in gdd is a failed run, reported like any other
        traceback.print_exc()
        run.tally.record(False, "run raised; see stderr")
        metrics = {}
    finally:
        run.tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass
    tally = run.tally
    run.summary["failed_frac"] = tally.failed / max(tally.attempted, 1)
    run.summary["failures"] = tally.notes
    print(json.dumps({"summary": run.summary}))
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
