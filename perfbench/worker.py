"""One benchmark process: set up, warm up, then time whole rounds of operations.

Started by ``run.py``, which passes the monotonic time at which it launched
this process, so that set-up time includes interpreter start and imports.
Prints one JSON object as its last line of standard output. The work runs
in this process, in one thread.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUTPUT_DIR = ROOT / ".perfbench"
MIN_TIMED_OPS = 2  # whole rounds run until the time is up and op_s has this many samples


def import_darsa():
    """Import darsa from the checkout's ``src``, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import darsa

    if not Path(darsa.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"darsa imported from {darsa.__file__}, not from {src}")
    return darsa


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() at which the launcher started this process")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report its time")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    return parser.parse_args(argv)


class Outcome:
    """Counts of operations attempted and failed, and whether every check passed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run(self, op, recorder, tracing: bool):
        """Run one operation; return its wall time, or None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception:
            elapsed = None
            self.failed += 1
            traceback.print_exc()
        else:
            elapsed = time.perf_counter() - start
        recorder.active = False
        if elapsed is not None:
            try:
                written = op.check(result)
            except Exception:
                self.correct = False
                traceback.print_exc()
            else:
                if written:
                    recorder.count("cli.output_bytes", written)
        recorder.active = tracing
        return elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    import_darsa()
    sys.path.insert(0, str(BENCH_DIR))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tracing = bool(args.trace)
    recorder = spans.Recorder()
    if tracing:
        spans.install(recorder)
    recorder.active = tracing

    workdir = workloads.fresh_dir(OUTPUT_DIR / "work" / f"{args.workload}-{os.getpid()}")
    try:
        workload = workloads.WORKLOADS[args.workload](workdir, args.seed, int(args.seconds), args.smoke)
        workload.setup()
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_phase = recorder.take()

        outcome = Outcome()
        recorder.active = False
        outcome.run(workload.warmup(), recorder, tracing=False)
        recorder.take()
        recorder.active = tracing

        op_times = []
        start = time.perf_counter()
        while True:
            for op in workload.round():
                elapsed = outcome.run(op, recorder, tracing)
                if elapsed is not None:
                    op_times.append(elapsed)
                    print(f"op {len(op_times)}: {elapsed:.4f} s", file=sys.stderr)
            if time.perf_counter() - start >= args.seconds and outcome.attempted > MIN_TIMED_OPS:
                break
        timed_phase = recorder.take()
        recorder.active = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not op_times:
        print("error: no timed operation completed", file=sys.stderr)
        return 1
    if tracing:
        values = spans.per_layer_metrics(
            setup_phase, timed_phase, outcome.attempted - 1, op_times
        )
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in spans.PER_LAYER_METRICS.items()}
        spans.write_spans(
            OUTPUT_DIR / "trace" / f"{args.workload}-seed{args.seed}.jsonl",
            {"setup": setup_phase, "timed": timed_phase},
        )
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s": {"value": statistics.median(op_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
        }
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
