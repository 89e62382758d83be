"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py

1. A smoke-sized run of every workload, untraced and traced, must pass its
   checks and print exactly the metrics BENCHMARK.json names, with their units.
2. The exact 1-D W1 oracle must agree with a transport LP solved by scipy.
3. Every correctness check must reject a deliberately wrong answer.

Exits 0 when every step passes.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import subprocess
import sys

from worker import BENCH_DIR, OUTPUT_DIR, ROOT, import_darsa

import_darsa()

import numpy as np  # noqa: E402
from scipy.optimize import linprog  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from oracles import CheckFailed  # noqa: E402

FAILURES = []


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {name}{': ' + detail if detail else ''}")
    if not ok:
        FAILURES.append(name)


def rejects(name: str, check, *args) -> None:
    try:
        check(*args)
    except CheckFailed as exc:
        report(f"rejects {name}", True, str(exc))
    else:
        report(f"rejects {name}", False, "the wrong answer passed")


def passes(name: str, check, *args) -> None:
    try:
        check(*args)
    except CheckFailed as exc:
        report(f"accepts {name}", False, str(exc))
    else:
        report(f"accepts {name}", True)


# ---------------------------------------------------------------------------
# 1. Smoke runs print every named metric with its unit
# ---------------------------------------------------------------------------


def smoke_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[section]}
        for workload in workloads.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            name = f"smoke {workload} --trace {trace}"
            if proc.returncode != 0:
                report(name, False, f"exit code {proc.returncode}\n{proc.stderr}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            printed = all(any(line.split()[:1] == [k] and line.split()[-1] == u for line in lines)
                          for k, u in expected.items())
            report(name, result["correct"] and result["failed"] == 0 and got == expected
                   and printed and result["attempted"] >= 2,
                   f"correct={result['correct']} failed={result['failed']} "
                   f"metrics {'match' if got == expected else 'differ from'} BENCHMARK.json")


# ---------------------------------------------------------------------------
# 2. The exact 1-D W1 oracle against a transport LP
# ---------------------------------------------------------------------------


def lp_w1(a, b) -> float:
    n, m = len(a), len(b)
    cost = np.abs(a[:, None] - b[None, :]).ravel()
    rows = np.kron(np.eye(n), np.ones((1, m)))
    cols = np.kron(np.ones((1, n)), np.eye(m))
    res = linprog(cost, A_eq=np.vstack([rows, cols]),
                  b_eq=np.concatenate([np.full(n, 1 / n), np.full(m, 1 / m)]),
                  bounds=(0, None), method="highs")
    return float(res.fun)


def exact_w1_oracle() -> None:
    rng = np.random.default_rng(7)
    worst = 0.0
    for n, m in ((3, 2), (5, 5), (7, 4), (12, 9), (1, 6)):
        a, b = rng.standard_normal(n), rng.standard_normal(m) + 0.3
        worst = max(worst, abs(oracles.exact_w1_1d(a, b) - lp_w1(a, b)))
    report("exact 1-D W1 equals the transport LP", worst <= 1e-9, f"worst gap {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. Every check rejects a wrong answer
# ---------------------------------------------------------------------------


def smoke_workload(name: str, seed: int = 3):
    workdir = workloads.fresh_dir(OUTPUT_DIR / "work" / f"selftest-{name}")
    workload = workloads.WORKLOADS[name](workdir, seed, 1, True)
    workload.setup()
    return workload


def fit_checks() -> None:
    workload = smoke_workload("fit-gmm")
    source, target, config = workload.suite[0]
    models, metrics = workload.round()[0].run()
    floor, heavy = workloads.GMM_ACCURACY_FLOOR, workloads.GMM_HEAVY_CLASS
    check = oracles.check_fit
    passes("fit-gmm output", check, metrics, models, target, floor, heavy)

    def with_last(**changes):
        wrong = copy.copy(metrics)
        wrong.records = [*metrics.records[:-1], dataclasses.replace(metrics.records[-1], **changes)]
        return wrong

    last = metrics.records[-1]
    rejects("a target accuracy off by 0.01", check,
            with_last(target_accuracy=last.target_accuracy - 0.01), models, target, floor, heavy)
    rejects("w_t off the simplex", check, with_last(w_t=last.w_t * 1.01), models, target,
            floor, heavy)
    rejects("w_t ranking class 0 highest", check, with_last(w_t=np.array([0.5, 0.2, 0.3])),
            models, target, floor, heavy)
    b = last.bound
    broken = dataclasses.replace(
        b, gamma_s_weighted=b.gamma_s_weighted + b.eps_g_partial + b.delta_c + 0.1,
        eps_c_partial=b.eps_c_partial + b.eps_g_partial + b.delta_c + 0.1,
    )
    rejects("a bound relation that fails", check, with_last(bound=broken), models, target,
            floor, heavy)
    rejects("an accuracy below the floor", check, metrics, models, target,
            last.target_accuracy + 0.01, heavy)


def train_checks() -> None:
    workload = smoke_workload("train-figure1")
    op = workload.round()[0]
    result = op.run()
    passes("train-figure1 output", op.check, result)
    out = workload.suite[0][1]
    saved = {p.name: p.read_bytes() for p in out.iterdir()}

    def mutated(name, edit):
        (out / name).write_bytes(edit(saved[name]))
        try:
            rejects(f"train-figure1 {name} with {edit.__doc__}", op.check, result)
        finally:
            (out / name).write_bytes(saved[name])

    def truncated(data):
        """its last record dropped"""
        return b"".join(data.splitlines(keepends=True)[:-1])

    def schema_broken(data):
        """a negative loss"""
        lines = data.splitlines(keepends=True)
        record = json.loads(lines[0])
        record["losses"]["l_y"] = -1.0
        return (json.dumps(record) + "\n").encode() + b"".join(lines[1:])

    def accuracy_off(data):
        """the target accuracy off by 0.01"""
        summary = json.loads(data)
        summary["target_accuracy"] -= 0.01
        return (json.dumps(summary) + "\n").encode()

    def weights_changed(data):
        """a perturbed classifier"""
        checkpoint = json.loads(data)
        layer = checkpoint["classifier"]["layers"][-1]
        layer["bias"] = [layer["bias"][0] + 50.0, *layer["bias"][1:]]
        return (json.dumps(checkpoint) + "\n").encode()

    def one_byte(data):
        """one byte changed"""
        return data[:-2] + (b"0" if data[-2:-1] != b"0" else b"1") + data[-1:]

    mutated("metrics.jsonl", truncated)
    mutated("metrics.jsonl", schema_broken)
    mutated("checkpoint.json", weights_changed)
    mutated("bound_comparison.csv", one_byte)
    code, stdout = result
    wrong_summary = accuracy_off(saved["summary.json"])
    (out / "summary.json").write_bytes(wrong_summary)
    try:
        rejects("train-figure1 summary accuracy off by 0.01, printed and written", op.check,
                (code, wrong_summary.decode()))
    finally:
        (out / "summary.json").write_bytes(saved["summary.json"])
    rejects("a non-zero exit code", op.check, (2, stdout))


def mixture_checks() -> None:
    workload = smoke_workload("ot-mixture")
    op = workload.round()[0]
    results = op.run()
    passes("ot-mixture output", op.check, results)

    def with_first(change):
        return [change(*results[0]), *results[1:]]

    rejects("a mixture distance 1% high", op.check,
            with_first(lambda d, v, p, w: (d, v * 1.01, p, w)))
    rejects("a pooled W1 too small for the sandwich", op.check,
            with_first(lambda d, v, p, w: (d, v, p, v - 1.0)))
    rejects("a mixture distance below the paired sum", op.check,
            with_first(lambda d, v, p, w: (d * np.where(np.eye(len(d)), 1.0, 0.01), v, p, w)))

    def diagonal_raised(d, v, p, w):
        bad = d.copy()
        bad[0, 0] = bad[0].max() + 1.0
        return bad, v, p, w

    rejects("a pairwise row not dominated by its diagonal", op.check, with_first(diagonal_raised))

    def marginals_off(d, v, p, w):
        coupling = p.coupling.copy()
        coupling[0, 0] += 0.01
        return d, v, dataclasses.replace(p, coupling=coupling), w

    rejects("plan marginals off the mixture weights", op.check, with_first(marginals_off))


def figure1_checks() -> None:
    workload = smoke_workload("figure1-diag")
    op = workload.round()[0]
    code, stdout = op.run()
    passes("figure1-diag output", op.check, (code, stdout))
    printed = json.loads(stdout)
    csv_path = workload.out / "figure1.csv"
    saved_csv = csv_path.read_text()

    def with_json(**changes):
        return code, json.dumps({**printed, **changes}) + "\n"

    rejects("a pooled W1 1% high", op.check, with_json(w1_overall=printed["w1_overall"] * 1.01))
    rejects("a paired W1 1% low", op.check,
            with_json(w1_paired=[printed["w1_paired"][0] * 0.99, printed["w1_paired"][1]]))
    rejects("bound_holds false", op.check, with_json(bound_holds=False))
    rejects("a wrong delta_c", op.check, with_json(delta_c=printed["delta_c"] * 1.01))
    csv_path.write_text(saved_csv.replace("True", "False", 1))
    try:
        rejects("figure1.csv disagreeing with the JSON", op.check, (code, stdout))
    finally:
        csv_path.write_text(saved_csv)


def main() -> int:
    smoke_runs()
    exact_w1_oracle()
    fit_checks()
    train_checks()
    mixture_checks()
    figure1_checks()
    print(f"{len(FAILURES)} failure(s)" + (f": {', '.join(FAILURES)}" if FAILURES else ""))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
