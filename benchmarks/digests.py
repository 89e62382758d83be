"""Print a sha256 prefix of each output that a byte-identical change must keep.

    python3 benchmarks/digests.py [--src <checkout>/src] [--against <other checkout>/src]

Runs, against the darsa package under ``--src`` (default: this checkout's
``src``) and with BLAS and OpenMP pinned to one thread:

- ``fit()`` on the README GMM example at seeds 0 and 1 (task and config
  seed alike): its ``metrics.jsonl`` records and its models' JSON;
- ``darsa train`` on the README figure1 config: stdout, ``summary.json``,
  ``metrics.jsonl``, ``checkpoint.json`` and ``bound_comparison.csv``;
- ``darsa figure1 --n 2000`` at seeds 0, 1 and 5: stdout and CSV;
- ``darsa gen`` of the figure1 and gmm tasks at their defaults: stdout,
  manifest and CSVs;
- ``darsa bounds`` on the gmm files that ``gen`` wrote (a pooled 2000-point
  solve): stdout, ``boundreport.json`` and ``bound_comparison.csv``;
- ``darsa bounds --checkpoint`` of the ``train`` run on the figure1 files
  that ``gen`` wrote (one-column features, exact W1; the target weights come
  from the checkpoint's pseudo-labels): the same three outputs;
- ``darsa ot --method exact`` on two 64-point 2-D CSVs, then on two
  64-point one-column CSVs, all drawn from one generator seeded 0 (the
  largest LP the exact solver takes): stdout;
- ``mw1_gmm`` in analytic mode on 300 random mixture pairs (the
  ``ot-mixture`` generator of ``perfbench/workloads.py``, seeded 0): the
  ``repr`` of every value and plan;
- the ``ot-mixture`` chain on each pair of its suite (``MIXTURE_SUITE`` at
  ``MIXTURE_OT`` and ``MIXTURE_SIZES``, sample seed = suite seed): the
  ``repr`` of the sampled ``pairwise_component_w1`` table, of the sampled
  ``mw1_gmm`` value and plan, and of the pooled ``w1_empirical`` on the
  ``sample_gmm`` draws at seeds 3000+s and 4000+s (a
  ``SinkhornDivergenceError`` by its iterations and residual).

Each line is ``<name> <first 16 hex digits>``; every line must agree between
two trees for a byte-identical change. With ``--against``, both trees are
digested, each in its own process, and only the lines that differ are
printed (``<name> <--src digest> <--against digest>``), then ``N of N
equal``; the exit code is 1 if any line differs. The README inputs come from
``perfbench/workloads.py`` of this checkout, so both runs use the same inputs.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MIXTURE_PAIRS = 300


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def cli(argv) -> str:
    """``darsa.cli.main`` on ``argv``; its standard output, or an error if it exits non-zero."""
    import darsa.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = darsa.cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"error: darsa {' '.join(argv)} exited with {code}")
    return out.getvalue()


def fit_digests(workloads):
    import darsa
    from darsa.weights import ClassWeights

    task = {**workloads.GMM_TASK,
            "source_props": ClassWeights(np.array(workloads.GMM_TASK["source_props"])),
            "target_props": ClassWeights(np.array(workloads.GMM_TASK["target_props"]))}
    for seed in (0, 1):
        source, target = darsa.make_shifted_gmm(**task, seed=seed)
        config = darsa.DarsaConfig(**workloads.GMM_CONFIG, seed=seed)
        models, metrics = darsa.fit(source, target, config, eval_labels=target.labels)
        yield f"fit[seed={seed}].records", digest(metrics.to_jsonl())
        yield f"fit[seed={seed}].models", digest(json.dumps(models.to_dict()))


def cli_digests(workloads):
    """The CLI runs, with paths relative to the working directory, so that no output names it."""
    Path("experiment.json").write_text(json.dumps(workloads.TRAIN_CONFIG))
    yield "train.stdout", digest(cli(["train", "--config", "experiment.json", "--out", "run"]))
    for name in ("summary.json", "metrics.jsonl", "checkpoint.json", "bound_comparison.csv"):
        yield f"train.{name}", digest(Path("run", name).read_bytes())
    for seed in (0, 1, 5):
        out = f"figure1-{seed}"
        stdout = cli(["figure1", "--n", "2000", "--seed", str(seed), "--out", out])
        yield f"figure1[seed={seed}].stdout", digest(stdout)
        yield f"figure1[seed={seed}].csv", digest(Path(out, "figure1.csv").read_bytes())
    for task in ("figure1", "gmm"):
        out = f"gen-{task}"
        yield f"gen[{task}].stdout", digest(cli(["gen", "--task", task, "--out", out]))
        for name in ("manifest.json", "source.csv", "target.csv"):
            yield f"gen[{task}].{name}", digest(Path(out, name).read_bytes())
    bounds = ["bounds", "--source", "gen-gmm/source.csv", "--target", "gen-gmm/target.csv"]
    yield "bounds.stdout", digest(cli([*bounds, "--out", "bounds"]))
    for name in ("boundreport.json", "bound_comparison.csv"):
        yield f"bounds.{name}", digest(Path("bounds", name).read_bytes())
    bounds = ["bounds", "--source", "gen-figure1/source.csv", "--target", "gen-figure1/target.csv",
              "--checkpoint", "run/checkpoint.json"]
    yield "bounds-ckpt.stdout", digest(cli([*bounds, "--out", "bounds-ckpt"]))
    for name in ("boundreport.json", "bound_comparison.csv"):
        yield f"bounds-ckpt.{name}", digest(Path("bounds-ckpt", name).read_bytes())
    rng = np.random.default_rng(0)
    for line, cols in (("ot-exact", 2), ("ot-exact-1d", 1)):
        header = ",".join(f"f{j}" for j in range(cols))
        for name in ("ot-a.csv", "ot-b.csv"):
            np.savetxt(name, rng.normal(size=(64, cols)), delimiter=",", header=header, comments="")
        yield f"{line}.stdout", digest(cli(["ot", "--method", "exact", "ot-a.csv", "ot-b.csv"]))


def mixture_digest(workloads):
    import darsa.ot

    rng = np.random.default_rng(0)
    values = []
    for _ in range(MIXTURE_PAIRS):
        mix_s, mix_t, _ = workloads.random_mixture_pair(rng)
        value, plan = darsa.ot.mw1_gmm(mix_s, mix_t, pairwise="analytic")
        values.append(repr((value, plan.coupling.tolist())))
    yield f"mw1_gmm[analytic,{MIXTURE_PAIRS}]", digest("\n".join(values))


def mixture_chain_digests(workloads):
    import darsa.ot

    sizes = workloads.MIXTURE_SIZES
    for seed in workloads.MIXTURE_SUITE:
        mix_s, mix_t, _ = workloads.random_mixture_pair(np.random.default_rng(seed))
        kwargs = dict(pairwise="sampled", n_samples=sizes["n_samples"], seed=seed,
                      **workloads.MIXTURE_OT)
        dist = darsa.ot.pairwise_component_w1(mix_s, mix_t, **kwargs)
        value, plan = darsa.ot.mw1_gmm(mix_s, mix_t, **kwargs)
        xs, _ = darsa.ot.sample_gmm(mix_s, sizes["n_pooled"], seed=3000 + seed)
        xt, _ = darsa.ot.sample_gmm(mix_t, sizes["n_pooled"], seed=4000 + seed)
        try:
            pooled = darsa.ot.w1_empirical(xs, xt, **workloads.MIXTURE_OT)
        except darsa.ot.SinkhornDivergenceError as exc:
            pooled = ("SinkhornDivergenceError", exc.iterations, exc.residual)
        chain = (dist.tolist(), value, plan.coupling.tolist(), pooled)
        yield f"ot-mixture[seed={seed}]", digest(repr(chain))


def package_dir(path) -> Path:
    src = Path(path).resolve()
    if not (src / "darsa" / "__init__.py").is_file():
        raise SystemExit(f"error: no darsa package under {src}")
    return src


def compare(src: Path, against: Path) -> int:
    """Digest both trees, each in its own process (both import ``darsa``); print the
    lines that differ, with both digests, and ``N of N equal``. 1 if any differ."""
    runs = []
    for tree in (src, against):
        run = subprocess.run([sys.executable, __file__, "--src", str(tree)],
                             capture_output=True, text=True)
        if run.returncode != 0:
            raise SystemExit(f"error: digests of {tree} failed:\n{run.stderr}")
        runs.append(dict(line.split() for line in run.stdout.splitlines()))
    names = list(dict.fromkeys([*runs[0], *runs[1]]))
    differ = [name for name in names if runs[0].get(name) != runs[1].get(name)]
    for name in differ:
        print(name, runs[0].get(name, "-"), runs[1].get(name, "-"))
    print(f"{len(names) - len(differ)} of {len(names)} equal")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="src directory of the tree to digest")
    parser.add_argument("--against", help="src directory of a second tree: print only the "
                        "lines that differ between the two, then how many are equal")
    args = parser.parse_args(argv)
    src = package_dir(args.src)
    if args.against:
        return compare(src, package_dir(args.against))
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import workloads

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for digests in (fit_digests, cli_digests, mixture_digest, mixture_chain_digests):
                for name, value in digests(workloads):
                    print(name, value, flush=True)
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
