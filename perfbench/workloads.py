"""The four benchmark workloads.

Each workload makes its inputs in ``setup`` (timed as set-up), then hands
the worker one untimed warm-up operation and a round of timed operations.
An operation is a pair of callables: ``run`` does the work that is timed,
and ``check`` verifies its outputs against the oracles in ``oracles`` and
returns the bytes the command wrote, if it is a CLI command.

Every workload calls darsa through module attributes (``darsa.training.fit``,
``darsa.cli.main``), so that the traced run's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import darsa.cli
import darsa.ot
import darsa.synthdata
import darsa.training
from darsa.ot import GaussianComponent, GaussianMixture
from darsa.weights import ClassWeights

import oracles


class Op(NamedTuple):
    run: Callable[[], object]
    check: Callable[[object], int | None]


def _cli(argv) -> tuple:
    """Run ``darsa.cli.main`` and return its exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = darsa.cli.main(list(argv))
    return code, out.getvalue()


def _require_exit_ok(code: int, argv) -> None:
    oracles.require(code == 0, f"darsa {' '.join(argv)} exited with {code}")


def seeded_order(seed: int, items) -> list:
    """The items of a fixed suite in an order drawn from the workload seed."""
    return [items[i] for i in np.random.default_rng(seed).permutation(len(items))]


class Workload:
    """Inputs for one run and the operations over them."""

    def __init__(self, workdir: Path, seed: int, seconds: int, smoke: bool):
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> list:
        raise NotImplementedError

    def warmup(self) -> Op:
        """The untimed operation before the timed rounds: the round's first."""
        return self.round()[0]


# ---------------------------------------------------------------------------
# fit-gmm: the README library example
# ---------------------------------------------------------------------------

GMM_TASK = dict(
    k=3, d=2, mean_separation=1.0, target_mean_shift=0.5,
    source_props=(0.6, 0.2, 0.2), target_props=(0.2, 0.2, 0.6),
    n_per_domain=600, sigma=0.3,
)
GMM_CONFIG = dict(lambda_d=0.2, lambda_c=0.3, lambda_a=0.2, margin=10.0,
                  pretrain_epochs=20, epochs=10)
GMM_SUITE = (0, 1, 2, 3)  # task and config seeds; 0 is the README example's
GMM_SMOKE_N = 300
GMM_HEAVY_CLASS = 2  # the class with target proportion 0.6
GMM_ACCURACY_FLOOR = 0.70


class FitGmm(Workload):
    """``fit()`` on the 3-class 2-D shifted-GMM task of the README.

    One operation fits one task, and a round is a fixed suite of tasks in an
    order drawn from ``--seed``; the warm-up fits the first. The fit time
    spreads from 2.1 s to 6.2 s across task seeds, so tasks drawn from
    ``--seed`` would make ``op_s`` a property of the draw; and 2 task seeds
    of 92 tried end with a target-weight estimate that fails the checks.
    """

    def _task(self, seed: int):
        task = {**GMM_TASK, "source_props": ClassWeights(np.array(GMM_TASK["source_props"])),
                "target_props": ClassWeights(np.array(GMM_TASK["target_props"]))}
        if self.smoke:
            task["n_per_domain"] = GMM_SMOKE_N
        source, target = darsa.synthdata.make_shifted_gmm(**task, seed=seed)
        return source, target, darsa.training.DarsaConfig(**GMM_CONFIG, seed=seed)

    def setup(self) -> None:
        self.suite = [self._task(seed) for seed in seeded_order(self.seed, GMM_SUITE)]

    def _op(self, task) -> Op:
        source, target, config = task

        def run():
            return darsa.training.fit(source, target, config, eval_labels=target.labels)

        def check(result):
            models, metrics = result
            oracles.check_fit(metrics, models, target, GMM_ACCURACY_FLOOR, GMM_HEAVY_CLASS)

        return Op(run, check)

    def round(self) -> list:
        return [self._op(task) for task in self.suite]


# ---------------------------------------------------------------------------
# train-figure1: `darsa train` with the README experiment config
# ---------------------------------------------------------------------------

TRAIN_CONFIG = {
    "task": {"name": "figure1", "sigma": 0.05, "n_per_domain": 2000},
    "darsa": {"epochs": 30, "pretrain_epochs": 10, "lambda_d": 0.2,
              "lambda_c": 0.3, "lambda_a": 0.2, "margin": 10.0, "seed": 0},
    "out_dir": "run",
    "log_every": 1,
}
TRAIN_SECONDS_PER_EPOCH = 4  # one adaptation epoch per this many run seconds
TRAIN_SUITE = (0, 1, 2)  # config seeds; 0 is the README config's
TRAIN_SMOKE_N = 200


class TrainFigure1(Workload):
    """``darsa train`` on the 1-D two-cluster task, 2000 samples per domain.

    The config is the README's, with the epoch count sized to the run
    length. One operation runs the command with one config seed, and a
    round is a fixed suite of seeds in an order drawn from ``--seed``; the
    warm-up runs the first. The command's time spreads by a factor of 1.7
    across seeds, so a seed drawn from ``--seed`` would make ``op_s`` a
    property of the draw. Every rerun must reproduce the warm-up's files
    byte for byte.
    """

    def setup(self) -> None:
        config = json.loads(json.dumps(TRAIN_CONFIG))
        if self.smoke:
            config["task"]["n_per_domain"] = TRAIN_SMOKE_N
            config["darsa"]["pretrain_epochs"] = 2
        self.epochs = 1 if self.smoke else max(1, self.seconds // TRAIN_SECONDS_PER_EPOCH)
        self.task = config["task"]
        self.log_every = config["log_every"]
        config_path = self.workdir / "experiment.json"
        config_path.write_text(json.dumps(config, indent=2) + "\n")
        self.schemas = oracles.Schemas(Path(darsa.cli.__file__).parent / "schemas")
        self.suite = [
            (seed, self.workdir / f"train-{seed}",
             ["train", "--config", str(config_path), "--seed", str(seed),
              "--epochs", str(self.epochs), "--out", str(self.workdir / f"train-{seed}")])
            for seed in seeded_order(self.seed, TRAIN_SUITE)
        ]
        self.data = {}
        self.digests = {}

    def _op(self, seed: int, out: Path, argv) -> Op:
        def run():
            return _cli(argv)

        def check(result):
            code, stdout = result
            _require_exit_ok(code, argv)
            if seed not in self.data:
                self.data[seed] = darsa.synthdata.make_figure1_task(
                    self.task["sigma"], self.task["n_per_domain"], seed
                )
            written = oracles.check_train_outputs(
                out, stdout, self.schemas, self.epochs, self.log_every, *self.data[seed]
            )
            digest = hashlib.sha256()
            for name in ("metrics.jsonl", "checkpoint.json", "bound_comparison.csv", "summary.json"):
                digest.update((out / name).read_bytes())
            oracles.require(self.digests.setdefault(seed, digest.hexdigest()) == digest.hexdigest(),
                            "a rerun with the same config and seed wrote different files")
            return written

        return Op(run, check)

    def round(self) -> list:
        return [self._op(*entry) for entry in self.suite]


# ---------------------------------------------------------------------------
# ot-mixture: the mixture-distance chain of acceptance criterion 5
# ---------------------------------------------------------------------------

MIXTURE_OT = dict(reg=0.01, max_iter=5000, tol=1e-5, reg_mode="relative")
# Generator seeds of the pairs: K = 4, 3, 2, 3, and one pass takes about 6 s.
MIXTURE_SUITE = (0, 6, 11, 16)
MIXTURE_SIZES = dict(n_samples=250, n_pooled=600)
MIXTURE_SMOKE = dict(n_samples=60, n_pooled=100)


def random_mixture_pair(rng: np.random.Generator):
    """A source/target mixture pair as in acceptance criterion 5.

    K components six apart on the diagonal, the target's shifted by one
    common offset of norm 0.3, variances below ``eps``, Dirichlet weights.
    """
    k = int(rng.integers(2, 5))
    d = int(rng.integers(1, 6))
    eps = float(rng.uniform(0.02, 0.08))
    means = 6.0 * np.arange(k)[:, None] * (np.ones(d) / np.sqrt(d))
    offset = rng.standard_normal(d)
    offset *= 0.3 / np.linalg.norm(offset)
    comps_s, comps_t = [], []
    for i in range(k):
        comps_s.append(GaussianComponent(means[i], rng.uniform(0.2, 1.0) * eps / d * np.eye(d)))
        comps_t.append(
            GaussianComponent(means[i] + offset, rng.uniform(0.2, 1.0) * eps / d * np.eye(d))
        )
    mix_s = GaussianMixture(ClassWeights(rng.dirichlet(np.full(k, 5.0))), tuple(comps_s))
    mix_t = GaussianMixture(ClassWeights(rng.dirichlet(np.full(k, 5.0))), tuple(comps_t))
    return mix_s, mix_t, eps


class OtMixture(Workload):
    """``mw1_gmm`` with sampled pairwise W1, plus one pooled ``w1_empirical``.

    One operation runs the chain on each pair of a fixed suite, in an
    order drawn from ``--seed``. A pair's cost spreads from 0.7 s to 8 s
    with its draw, so pairs drawn from ``--seed`` would make ``op_s`` a
    property of the draw; and 1 draw in 40 makes the pooled solve raise
    ``SinkhornDivergenceError``.
    """

    def setup(self) -> None:
        self.sizes = MIXTURE_SMOKE if self.smoke else MIXTURE_SIZES
        self.suite = [
            (seed, *random_mixture_pair(np.random.default_rng(seed)))
            for seed in seeded_order(self.seed, MIXTURE_SUITE)
        ]

    def _op(self) -> Op:
        def chain(sample_seed, mix_s, mix_t):
            kwargs = dict(pairwise="sampled", n_samples=self.sizes["n_samples"],
                          seed=sample_seed, **MIXTURE_OT)
            dist = darsa.ot.pairwise_component_w1(mix_s, mix_t, **kwargs)
            value, plan = darsa.ot.mw1_gmm(mix_s, mix_t, **kwargs)
            xs, _ = darsa.ot.sample_gmm(mix_s, self.sizes["n_pooled"], seed=3000 + sample_seed)
            xt, _ = darsa.ot.sample_gmm(mix_t, self.sizes["n_pooled"], seed=4000 + sample_seed)
            pooled = darsa.ot.w1_empirical(xs, xt, **MIXTURE_OT)
            return dist, value, plan, pooled

        def run():
            return [chain(sample_seed, mix_s, mix_t) for sample_seed, mix_s, mix_t, _ in self.suite]

        def check(results):
            for (_, mix_s, mix_t, eps), result in zip(self.suite, results):
                oracles.check_mixture_chain(*result, mix_s.weights.w, mix_t.weights.w, eps)

        return Op(run, check)

    def round(self) -> list:
        return [self._op()]


# ---------------------------------------------------------------------------
# figure1-diag: `darsa figure1 --n 2000`
# ---------------------------------------------------------------------------

FIGURE1_N = 2000
FIGURE1_WARMUP_N = 200
FIGURE1_SIGMA = 0.05  # the command's default
# Entropic bias allowed above the exact W1 at the command's default reg of
# 0.01; the observed bias is at most 1.7e-4 (n = 200 and 2000, seeds 0, 5).
FIGURE1_W1_TOL = 5e-4


class Figure1Diag(Workload):
    """``darsa figure1 --n 2000 --seed <seed>`` at its default reg and tol.

    The warm-up runs the same command at ``--n 200``: a full-size warm-up
    would double the run for nothing, as each operation allocates its
    n-by-m buffers afresh anyway.
    """

    def setup(self) -> None:
        self.out = self.workdir / "figure1"
        self.out.mkdir(parents=True, exist_ok=True)

    def _op(self, n: int) -> Op:
        argv = ["figure1", "--n", str(n), "--seed", str(self.seed), "--out", str(self.out)]

        def run():
            return _cli(argv)

        def check(result):
            code, stdout = result
            _require_exit_ok(code, argv)
            source, target = darsa.synthdata.make_figure1_task(FIGURE1_SIGMA, n, self.seed)
            return oracles.check_figure1(self.out, stdout, source, target, FIGURE1_W1_TOL)

        return Op(run, check)

    def warmup(self) -> Op:
        return self._op(FIGURE1_WARMUP_N)

    def round(self) -> list:
        return [self._op(FIGURE1_WARMUP_N if self.smoke else FIGURE1_N)]


WORKLOADS = {
    "fit-gmm": FitGmm,
    "train-figure1": TrainFigure1,
    "ot-mixture": OtMixture,
    "figure1-diag": Figure1Diag,
}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
