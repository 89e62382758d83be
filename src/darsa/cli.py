"""Command-line experiment runner.

One entry point with subcommands: ``ot`` compares two clouds or mixture
manifests under a chosen transport estimator, ``bounds`` evaluates the
generalization-bound comparator on CSV data, ``train`` runs the full
adaptation loop from a JSON experiment config, ``figure1`` reproduces the
two-cluster diagnostic table, and ``gen`` writes synthetic datasets to
disk. Everything is seed-driven; outputs are CSV and JSON only.

Exit codes: 0 success, 2 input error, 3 solver divergence, 4 training
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bounds, nn, ot, training
from .synthdata import Dataset, make_figure1_task, make_shifted_gmm
from .weights import ClassWeights

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DIVERGED = 3
EXIT_TRAINING = 4

BOUND_CSV_FIELDS = (
    "epoch",
    "gamma_s",
    "gamma_s_weighted",
    "disc_overall",
    "disc_weighted",
    "delta_c",
    "eps_g_partial",
    "eps_c_partial",
    "holds",
)


def _require_file(path_str: str) -> Path:
    path = Path(path_str)
    if not path.is_file():
        raise FileNotFoundError(f"no such file: {path}")
    return path


def _load_dataset(path_str: str, need_labels: bool = False) -> Dataset:
    data = Dataset.from_csv(_require_file(path_str))
    if need_labels and data.labels is None:
        raise ValueError(f"CSV has no label column: {path_str}")
    return data


def _load_gmm(path_str: str) -> ot.GaussianMixture:
    with _require_file(path_str).open() as fh:
        return ot.GaussianMixture.from_dict(json.load(fh))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_bound_csv(path: Path, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=BOUND_CSV_FIELDS)
        writer.writeheader()
        for epoch, report in rows:
            row = {"epoch": epoch, **report.to_dict()}
            row.pop("skipped_subdomains")
            row["holds"] = bool(
                report.eps_c_partial <= report.eps_g_partial + report.delta_c + 0.05
            )
            writer.writerow(row)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ot(args) -> int:
    """Distance between two clouds (CSV) or two mixtures (JSON manifests)."""
    method = args.method
    iterations = 0
    if method == "mw1":
        mix_a, mix_b = _load_gmm(args.a), _load_gmm(args.b)
        value, plan = ot.mw1_gmm(
            mix_a, mix_b, pairwise=args.pairwise,
            n_samples=args.samples, reg=args.reg,
            max_iter=args.max_iter, tol=args.tol, seed=args.seed,
        )
        residual = plan.marginal_residual()
    else:
        cloud_a = _load_dataset(args.a).features
        cloud_b = _load_dataset(args.b).features
        if method == "exact1d":
            if cloud_a.shape[1] != 1 or cloud_b.shape[1] != 1:
                raise ValueError("exact1d requires one-dimensional clouds")
            value, residual = ot.w1_exact_1d(cloud_a, cloud_b), 0.0
        elif method == "exact":
            cost = ot.euclidean_cost_matrix(cloud_a, cloud_b)
            plan = ot.ot_exact_discrete(
                cost,
                np.full(len(cloud_a), 1.0 / len(cloud_a)),
                np.full(len(cloud_b), 1.0 / len(cloud_b)),
            )
            value, residual = plan.cost, plan.marginal_residual()
        else:
            plan, _, info = ot.uniform_plan(cloud_a, cloud_b, args.reg, args.max_iter, args.tol)
            value, residual, iterations = plan.cost, info.residual, info.iterations
    print(json.dumps({
        "method": method,
        "value": value,
        "iterations": iterations,
        "marginal_residual": residual,
    }))
    return EXIT_OK


def cmd_bounds(args) -> int:
    """Bound comparator on CSV data, optionally through a model checkpoint."""
    source = _load_dataset(args.source, need_labels=True)
    target = _load_dataset(args.target)
    if args.checkpoint is not None:
        with _require_file(args.checkpoint).open() as fh:
            models = training.DarsaModels.from_dict(json.load(fh))
        feat_s, _ = nn.forward(models.encoder_s, source.features)
        feat_t, _ = nn.forward(models.encoder_t, target.features)
        preds_s = np.argmax(nn.forward(models.classifier, feat_s)[0], axis=1)
        pseudo_t = np.argmax(nn.forward(models.classifier, feat_t)[0], axis=1)
        k = models.classifier.out_dim
    else:
        # No model: raw features, source predictions taken as the labels,
        # target sub-domains from the target's own label column.
        if target.labels is None:
            raise ValueError("target CSV needs labels when no checkpoint is given")
        feat_s, feat_t = source.features, target.features
        preds_s, pseudo_t = source.labels, target.labels
        k = max(source.k, target.k)
    w_t = ClassWeights.from_labels(pseudo_t, k)
    report = bounds.bound_report(
        feat_s, preds_s, source.labels, feat_t, pseudo_t, w_t,
        reg=args.reg, max_iter=args.max_iter, tol=args.tol,
    )
    out = _out_dir(args)
    (out / "boundreport.json").write_text(report.to_json() + "\n")
    _write_bound_csv(out / "bound_comparison.csv", [(0, report)])
    print(report.to_json())
    return EXIT_OK


def _task_datasets(task: dict, seed: int):
    name = task.get("name")
    if name == "figure1":
        return make_figure1_task(
            sigma=task.get("sigma", 0.05),
            n_per_domain=task.get("n_per_domain", 2000),
            seed=seed,
        )
    if name == "gmm":
        return make_shifted_gmm(
            k=task["k"],
            d=task["d"],
            mean_separation=task["mean_separation"],
            target_mean_shift=task["target_mean_shift"],
            source_props=ClassWeights(np.asarray(task["source_props"], dtype=float)),
            target_props=ClassWeights(np.asarray(task["target_props"], dtype=float)),
            n_per_domain=task["n_per_domain"],
            sigma=task["sigma"],
            seed=seed,
        )
    if name == "csv":
        source = _load_dataset(task["source"], need_labels=True)
        target = _load_dataset(task["target"])
        return source, target
    raise ValueError(f"unknown task {name!r}")


def cmd_train(args) -> int:
    """Run the adaptation loop from an experiment config file."""
    with _require_file(args.config).open() as fh:
        experiment = json.load(fh)
    config = training.DarsaConfig.from_dict(experiment.get("darsa", {}))
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.epochs is not None:
        config = replace(config, epochs=args.epochs)
    task = experiment.get("task", {"name": "figure1"})
    if args.task is not None:
        task = {**task, "name": args.task}
    log_every = int(experiment.get("log_every", 1))
    if log_every < 1:
        raise ValueError("log_every must be at least 1")
    out = Path(args.out if args.out is not None else experiment.get("out_dir", "."))
    out.mkdir(parents=True, exist_ok=True)

    source, target = _task_datasets(task, config.seed)
    eval_labels = target.labels
    models, metrics = training.fit(source, target, config, eval_labels=eval_labels)

    kept = [
        r for r in metrics.records
        if r.epoch % log_every == 0 or r.epoch == config.epochs
    ]
    (out / "metrics.jsonl").write_text(training.TrainMetrics(kept).to_jsonl())
    (out / "checkpoint.json").write_text(json.dumps(models.to_dict()) + "\n")
    _write_bound_csv(out / "bound_comparison.csv", [(r.epoch, r.bound) for r in kept])

    source_acc = training.accuracy(
        models.encoder_s, models.classifier, source.features, source.labels
    )
    target_acc = None
    if eval_labels is not None:
        target_acc = training.accuracy(
            models.encoder_t, models.classifier, target.features, eval_labels
        )
    summary = {
        "target_accuracy": target_acc,
        "source_accuracy": source_acc,
        "epochs": config.epochs,
        "seed": config.seed,
    }
    (out / "summary.json").write_text(json.dumps(summary) + "\n")
    print(json.dumps(summary))
    return EXIT_OK


def cmd_figure1(args) -> int:
    """Per-cluster diagnostic for the two-cluster task: paired W1 per
    cluster, pooled W1, the reweighted sum, and the variance slack."""
    if args.sigma <= 0:
        raise ValueError("sigma must be positive")
    source, target = make_figure1_task(args.sigma, args.n, args.seed)
    parts_s = bounds.split_by_class(source.features, source.labels, 2)
    parts_t = bounds.split_by_class(target.features, target.labels, 2)
    w_t = target.class_proportions()
    weighted = ot.weighted_subdomain_w1(
        parts_s, parts_t, w_t, reg=args.reg, max_iter=args.max_iter, tol=args.tol
    )
    if weighted.skipped:
        raise ValueError(f"cluster {weighted.skipped[0]} is empty in one domain")
    overall = ot.w1_empirical(
        source.features, target.features, reg=args.reg, max_iter=args.max_iter, tol=args.tol
    )
    slack = bounds.delta_c(parts_s + parts_t)
    holds = bool(weighted.value <= overall + slack)
    out = _out_dir(args)
    with (out / "figure1.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "w_t", "w1_paired", "w1_overall", "delta_c", "bound_holds"])
        for k in range(2):
            writer.writerow([k, w_t[k], weighted.per_class[k], overall, slack, holds])
    print(json.dumps({
        "w1_paired": weighted.per_class,
        "w1_overall": overall,
        "weighted_sum": weighted.value,
        "delta_c": slack,
        "bound_holds": holds,
    }))
    return EXIT_OK


def cmd_gen(args) -> int:
    """Generate a synthetic task and write it as CSV plus a manifest."""
    if args.task == "figure1":
        source, target = make_figure1_task(args.sigma, args.n, args.seed)
        generator = {"name": "figure1", "sigma": args.sigma, "n_per_domain": args.n}
    else:
        source_props = ClassWeights(np.asarray(json.loads(args.source_props), dtype=float))
        target_props = ClassWeights(np.asarray(json.loads(args.target_props), dtype=float))
        source, target = make_shifted_gmm(
            args.k, args.d, args.separation, args.shift,
            source_props, target_props, args.n, args.sigma, args.seed,
        )
        generator = {
            "name": "gmm", "k": args.k, "d": args.d,
            "mean_separation": args.separation, "target_mean_shift": args.shift,
            "source_props": source_props.w.tolist(),
            "target_props": target_props.w.tolist(),
            "n_per_domain": args.n, "sigma": args.sigma,
        }
    out = _out_dir(args)
    source.to_csv(out / "source.csv")
    target.to_csv(out / "target.csv")
    manifest = source.manifest(seed=args.seed, generator=generator)
    (out / "manifest.json").write_text(json.dumps(manifest) + "\n")
    print(json.dumps(manifest))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_sinkhorn_flags(sub, reg_default=0.01):
    sub.add_argument("--reg", type=float, default=reg_default, help="entropic regularization")
    sub.add_argument("--max-iter", dest="max_iter", type=int, default=5000)
    sub.add_argument("--tol", type=float, default=1e-6, help="marginal tolerance (L1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darsa",
        description="Rebalanced sub-domain alignment: transport distances, "
        "bound comparison, and the adaptation training loop.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_ot = subs.add_parser("ot", help="distance between two clouds or mixtures")
    p_ot.add_argument("a", help="CSV cloud (or JSON mixture manifest for mw1)")
    p_ot.add_argument("b", help="CSV cloud (or JSON mixture manifest for mw1)")
    p_ot.add_argument(
        "--method", choices=["exact1d", "exact", "sinkhorn", "mw1"], default="sinkhorn"
    )
    p_ot.add_argument("--pairwise", choices=["analytic", "sampled"], default="analytic")
    p_ot.add_argument("--samples", type=int, default=500, help="samples per component (mw1 sampled)")
    p_ot.add_argument("--seed", type=int, default=0)
    _add_sinkhorn_flags(p_ot)
    p_ot.set_defaults(func=cmd_ot)

    p_bounds = subs.add_parser("bounds", help="generalization-bound comparator")
    p_bounds.add_argument("--source", required=True, help="labeled source CSV")
    p_bounds.add_argument("--target", required=True, help="target CSV")
    p_bounds.add_argument("--checkpoint", help="model checkpoint JSON")
    p_bounds.add_argument("--out", default=".", help="output directory")
    _add_sinkhorn_flags(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_train = subs.add_parser("train", help="run the adaptation training loop")
    p_train.add_argument("--config", required=True, help="experiment config JSON")
    p_train.add_argument("--seed", type=int, help="override config seed")
    p_train.add_argument("--epochs", type=int, help="override adaptation epochs")
    p_train.add_argument("--out", help="override output directory")
    p_train.add_argument(
        "--task", choices=["figure1", "gmm", "csv"],
        help="override the config's task name (parameters still come from the config)",
    )
    p_train.set_defaults(func=cmd_train)

    p_fig = subs.add_parser("figure1", help="two-cluster diagnostic table")
    p_fig.add_argument("--sigma", type=float, default=0.05)
    p_fig.add_argument("--n", type=int, default=2000, help="samples per domain")
    p_fig.add_argument("--seed", type=int, default=0)
    p_fig.add_argument("--out", default=".", help="output directory")
    _add_sinkhorn_flags(p_fig)
    p_fig.set_defaults(func=cmd_figure1)

    p_gen = subs.add_parser("gen", help="generate synthetic datasets")
    p_gen.add_argument("--task", choices=["figure1", "gmm"], required=True)
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--sigma", type=float, default=0.05)
    p_gen.add_argument("--n", type=int, default=2000, help="samples per domain")
    p_gen.add_argument("--k", type=int, default=3)
    p_gen.add_argument("--d", type=int, default=2)
    p_gen.add_argument("--separation", type=float, default=1.2)
    p_gen.add_argument("--shift", type=float, default=0.5)
    p_gen.add_argument("--source-props", dest="source_props", default="[0.6, 0.2, 0.2]")
    p_gen.add_argument("--target-props", dest="target_props", default="[0.2, 0.2, 0.6]")
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ot.SinkhornDivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except training.TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
