"""Replay every Sinkhorn solve of the perfbench workloads against two source trees.

    python3 benchmarks/replay.py --base <other checkout>/src [--change src] \
        [--workloads fit-gmm train-figure1] [--seed 0] [--passes 5] \
        [--out BENCH_solver.json]

For each workload, the set-up and one round of perfbench operations
(``perfbench/workloads.py``, the same inputs as ``perfbench/run.py --seconds
10`` at ``--seed``) run once with ``darsa.ot.sinkhorn`` wrapped, and every
call's inputs are kept in memory.
Nothing is written but the report. The captured solves are then replayed
against the ``sinkhorn`` of both trees, interleaved solve by solve (the order
of the two trees alternates from solve to solve and from pass to pass), and
each call is timed in process CPU time with BLAS and OpenMP pinned to one
thread. The workloads run on the ``--change`` tree.

The report, printed and written as JSON, gives per workload and per size
class (``small``: both sides under 256 atoms; ``float32``: the other solves
that the change tree's ``sinkhorn`` sweeps in float32, by the
``SinkhornInfo.float32_exit`` of the capture run; ``large``: the rest):
solves, sweeps and cells (sweeps times n times m, as perfbench counts them),
the median, lowest and highest CPU seconds over the passes, ns per cell at
the median, the unconverged count (diverged solves included), and how many
solves the two trees return bit for bit alike: iterations, residual,
convergence flag, cost and coupling, or the same divergence. Over the solves
that are not alike and return a plan on both trees, it also gives the
largest cost change over tol times the largest cost, and each tree's largest
``marginal_residual()`` over tol. For the float32 class it also counts the
capture run's exits: ``restart`` and ``floor`` (see ``sinkhorn``), and
``diverged``, a solve that raised and so has no info (it is put in the
float32 class). Replay numbers are evidence for a solver change, never a
test gate.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("fit-gmm", "train-figure1", "ot-mixture", "figure1-diag")
SMALL_SIDE = 256  # a solve is small when both sides have fewer atoms than this
RUN_SECONDS = 10  # the --seconds of the perfbench runs whose inputs are captured


class Solve(NamedTuple):
    cost: np.ndarray
    a: np.ndarray
    b: np.ndarray
    reg: float
    max_iter: int
    tol: float
    float32_exit: str  # the change tree's SinkhornInfo.float32_exit, or "diverged"

    @property
    def size_class(self) -> str:
        if max(self.cost.shape) < SMALL_SIDE:
            return "small"
        return "large" if self.float32_exit == "float64" else "float32"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="src directory of the tree to compare against")
    parser.add_argument("--change", default=str(ROOT / "src"), help="src directory of the changed tree")
    parser.add_argument("--base-label", default="base", help="name of the base tree in the report")
    parser.add_argument("--change-label", default="change", help="name of the changed tree in the report")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="perfbench workload seed")
    parser.add_argument("--passes", type=int, default=5, help="timed passes over the captured solves")
    parser.add_argument("--out", default=str(ROOT / "BENCH_solver.json"), help="JSON report path")
    return parser.parse_args(argv)


def load_ot(src: Path, name: str):
    """The ``ot`` module of the darsa package under ``src``, imported as package ``name``."""
    init = src / "darsa" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no darsa package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.ot")


def capture(workload_name: str, seed: int, change_src: Path) -> list:
    """Inputs of every ``sinkhorn`` call in the set-up and one round of a perfbench workload."""
    if str(PERFBENCH) not in sys.path:
        sys.path[:0] = [str(change_src), str(PERFBENCH)]
    import darsa.ot
    import workloads

    solves = []
    solver = darsa.ot.sinkhorn

    def recording(cost_matrix, a, b, reg, max_iter=1000, tol=1e-6, return_info=False):
        inputs = (np.array(cost_matrix, dtype=float, order="K"), np.array(a, dtype=float),
                  np.array(b, dtype=float), float(reg), int(max_iter), float(tol))
        try:
            plan, info = solver(cost_matrix, a, b, reg, max_iter=max_iter, tol=tol,
                                return_info=True)
        except darsa.ot.SinkhornDivergenceError:
            solves.append(Solve(*inputs, "diverged"))
            raise
        solves.append(Solve(*inputs, info.float32_exit))
        return (plan, info) if return_info else plan

    with tempfile.TemporaryDirectory() as workdir:
        workload = workloads.WORKLOADS[workload_name](Path(workdir), seed, RUN_SECONDS, False)
        darsa.ot.sinkhorn = recording
        try:
            workload.setup()
            for op in workload.round():
                op.run()
        finally:
            darsa.ot.sinkhorn = solver
    return solves


def solve_once(ot, solve: Solve):
    """CPU nanoseconds of one solve, and its outcome as comparable values."""
    start = time.process_time_ns()
    try:
        plan, info = ot.sinkhorn(solve.cost, solve.a, solve.b, solve.reg,
                                 max_iter=solve.max_iter, tol=solve.tol, return_info=True)
    except ot.SinkhornDivergenceError as exc:
        elapsed = time.process_time_ns() - start
        return elapsed, ("diverged", exc.iterations, float(exc.residual).hex())
    elapsed = time.process_time_ns() - start
    digest = hashlib.sha256(plan.coupling.tobytes()).hexdigest()
    return elapsed, (info.iterations, float(info.residual).hex(), info.converged,
                     float(plan.cost).hex(), digest, plan.marginal_residual())


def replay(solves: list, trees: dict, passes: int) -> dict:
    """Per tree and size class: CPU seconds of each pass, sweeps, unconverged; and matches."""
    labels = list(trees)
    classes = [s.size_class for s in solves]
    groups = {g: [i for i, c in enumerate(classes) if c == g] for g in ("small", "large", "float32")}
    cpu = {label: {g: [0] * passes for g in groups} for label in labels}
    outcomes = {label: [None] * len(solves) for label in labels}
    for p in range(passes):
        gc.collect()
        for i, solve in enumerate(solves):
            group = classes[i]
            order = labels if (i + p) % 2 == 0 else labels[::-1]
            for label in order:
                elapsed, outcome = solve_once(trees[label], solve)
                cpu[label][group][p] += elapsed
                if outcomes[label][i] is None:
                    outcomes[label][i] = outcome
                elif outcomes[label][i] != outcome:
                    raise RuntimeError(f"{label}: solve {i} gave another result on pass {p}")
    report = {}
    for group, members in groups.items():
        if not members:
            continue
        entry = {"solves": len(members), "sweeps": {}, "cells": {}, "cpu_s": {},
                 "ns_per_cell": {}, "unconverged": {}}
        for label in labels:
            sweeps = cells = unconverged = 0
            for i in members:
                outcome = outcomes[label][i]
                diverged = outcome[0] == "diverged"
                iterations = outcome[1] if diverged else outcome[0]
                sweeps += iterations
                cells += iterations * solves[i].cost.size
                unconverged += diverged or not outcome[2]
            times = [ns / 1e9 for ns in cpu[label][group]]
            median = statistics.median(times)
            entry["sweeps"][label] = sweeps
            entry["cells"][label] = cells
            entry["cpu_s"][label] = {"median": round(median, 4), "min": round(min(times), 4),
                                     "max": round(max(times), 4)}
            entry["ns_per_cell"][label] = round(median * 1e9 / cells, 3) if cells else 0.0
            entry["unconverged"][label] = unconverged
        entry["identical"] = sum(outcomes[labels[0]][i] == outcomes[labels[1]][i] for i in members)
        # Solves that differ and return a plan on both trees: how far apart
        # the costs are, and how far each plan's marginals are from (a, b).
        differ = [i for i in members if outcomes[labels[0]][i] != outcomes[labels[1]][i]
                  and all(outcomes[label][i][0] != "diverged" for label in labels)]
        if differ:
            cost_change = max(
                abs(float.fromhex(outcomes[labels[0]][i][3]) - float.fromhex(outcomes[labels[1]][i][3]))
                / (solves[i].tol * float(solves[i].cost.max())) for i in differ)
            entry["differing"] = {
                "solves": len(differ),
                "max_cost_change_over_tol_max_c": float(f"{cost_change:.4g}"),
                "max_marginal_residual_over_tol": {
                    label: float(f"{max(outcomes[label][i][5] / solves[i].tol for i in differ):.4g}")
                    for label in labels},
            }
        if group == "float32":
            entry["exits"] = {how: sum(solves[i].float32_exit == how for i in members)
                              for how in ("restart", "floor", "diverged")}
        report[group] = entry
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.base_label == args.change_label:
        raise SystemExit("error: the two trees need different labels")
    change_src = Path(args.change).resolve()
    trees = {args.base_label: load_ot(Path(args.base).resolve(), "replay_base"),
             args.change_label: load_ot(change_src, "replay_change")}
    results = {}
    for name in args.workloads:
        solves = capture(name, args.seed, change_src)
        results[name] = replay(solves, trees, args.passes)
        del solves
        for group, entry in results[name].items():
            cpu = " ".join(f"{label} {entry['cpu_s'][label]['median']:.4f} s"
                           f" ({entry['ns_per_cell'][label]:.2f} ns/cell)" for label in trees)
            print(f"{name:14s} {group:7s} {entry['solves']:4d} solves, "
                  f"{entry['identical']} identical, sweeps "
                  f"{' / '.join(str(entry['sweeps'][label]) for label in trees)}: {cpu}")
            if "differing" in entry:
                differing = entry["differing"]
                print(f"{'':22s} differing: max |dcost| / (tol max C) "
                      f"{differing['max_cost_change_over_tol_max_c']}, max residual / tol "
                      + " / ".join(str(v) for v in differing["max_marginal_residual_over_tol"].values()))
            if "exits" in entry:
                print(f"{'':22s} {args.change_label} leaves float32: "
                      + ", ".join(f"{how} {count}" for how, count in entry["exits"].items()))
    report = {
        "about": "Captured Sinkhorn solves of the set-up and one operation round of each "
                 "perfbench workload, replayed "
                 "against two source trees, interleaved, in process CPU time with one BLAS "
                 "thread. cpu_s is over passes; ns_per_cell is the median pass over sweeps "
                 "times n times m; identical counts solves whose outcome matches bit for bit; "
                 "differing covers the other solves that return a plan on both trees: the "
                 "largest |cost change| / (tol max C) and each tree's largest "
                 "marginal_residual() / tol. Size classes: small, both sides under "
                 f"{SMALL_SIDE} atoms; float32, the other solves whose SinkhornInfo.float32_exit "
                 "on the change tree is not float64, or that raised; large, the rest. exits "
                 "counts those float32_exit values (restart, floor) and the solves that "
                 "raised (diverged).",
        "command": "python3 benchmarks/replay.py --base <base src> --change <change src> "
                   f"--seed {args.seed} --passes {args.passes}",
        "trees": {"base": args.base_label, "change": args.change_label},
        "seed": args.seed,
        "passes": args.passes,
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "blas_threads": 1, "cpus": os.cpu_count()},
        "workloads": results,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
