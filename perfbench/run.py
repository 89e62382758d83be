"""Benchmark of darsa: one workload, one seed, one run.

    python3 perfbench/run.py --workload fit-gmm --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it reports the end-to-end metrics ``setup_s``, ``op_s``
and ``peak_rss_mb``; with ``--trace 1`` it reports the per-layer metrics
of a traced run instead. It prints every metric by name with its unit, and
as its last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. See README.md in this directory.

This launcher imports nothing heavy. It starts the set-up probes and the
measuring worker as child processes, one after another, and waits for each.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("fit-gmm", "train-figure1", "ot-mixture", "figure1-diag")
SETUP_PROBES = 4  # extra set-ups; setup_s is the median over these and the worker's
TIME_LIMIT_S = 170.0  # every child process together, to exit within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Run one benchmark workload of darsa.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="seed the inputs are made from")
    parser.add_argument("--seconds", type=int, required=True, help="how long to time operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced run reporting per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    return parser.parse_args(argv)


def run_child(args, deadline: float, setup_only: bool) -> dict:
    """Start one worker, wait for it, and return its last line as JSON."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    t0 = time.monotonic()
    proc = subprocess.run(
        [*cmd, "--t0", repr(t0)], cwd=ROOT, env=env, stdout=subprocess.PIPE,
        text=True, timeout=max(1.0, deadline - t0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "darsa" / "__init__.py").is_file():
        print(f"error: no darsa sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        setups = []
        if not args.trace:
            setups = [run_child(args, deadline, setup_only=True)["setup_s"]
                      for _ in range(SETUP_PROBES)]
        result = run_child(args, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    for name, metric in metrics.items():
        print(f"{name:45s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'attempted':45s} {result['attempted']:>16d}")
    print(f"{'failed':45s} {result['failed']:>16d}")
    print(f"{'correct':45s} {str(result['correct']):>16s}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
