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
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import bounds, ot, training
from .synthdata import Dataset, make_figure1_task, make_shifted_gmm
from .weights import ClassWeights, aligned_classes, class_rows

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DIVERGED = 3
EXIT_TRAINING = 4

# Columns of bound_comparison.csv: every BoundReport term but the skip count.
BOUND_CSV_FIELDS = (
    "epoch",
    *(f.name for f in fields(bounds.BoundReport) if f.name != "skipped_subdomains"),
    "holds",
)

# Each task's parameters in manifest order, with their JSON kinds (a "tuple" is a class
# proportion list); figure1's and gmm's are their generator's keywords but ``seed``.
_TASKS = {
    "figure1": dict(sigma="float", n_per_domain="int"),
    "gmm": dict(k="int", d="int", mean_separation="float", target_mean_shift="float",
                source_props="tuple", target_props="tuple", n_per_domain="int", sigma="float"),
    "csv": dict(source="str", target="str"),
}
# JSON kinds of the fields of an experiment config and of its task, where present.
_JSON_KINDS = {"log_every": "int", "out_dir": "str",
               **{key: kind for params in _TASKS.values() for key, kind in params.items()}}


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


def _json_object(obj, what: str) -> dict:
    """``obj``, checked to be a JSON object whose fields have their ``_JSON_KINDS``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    for key, kind in _JSON_KINDS.items():
        if key in obj and not training.has_kind(obj[key], kind):
            raise ValueError(f"invalid {what}: {key} must be {kind}, got {obj[key]!r}")
    return obj


def _load_json(path_str: str, build, what: str):
    """``build`` applied to the JSON object in a file; a wrongly shaped value is an input error."""
    with _require_file(path_str).open() as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"malformed {what} {path_str}: not a JSON object")
    try:
        return build(obj)
    except (TypeError, AttributeError) as exc:  # a JSON value of the wrong kind
        raise ValueError(f"malformed {what} {path_str}: {exc}") from exc


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_bound_csv(path: Path, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=BOUND_CSV_FIELDS, extrasaction="ignore")
        writer.writeheader()
        for epoch, report in rows:
            holds = report.eps_c_partial <= report.eps_g_partial + report.delta_c + 0.05
            writer.writerow({"epoch": epoch, **report.to_dict(), "holds": bool(holds)})


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ot(args) -> int:
    """Distance between two clouds (CSV) or two mixtures (JSON manifests)."""
    ot._check_solver(args.reg, args.max_iter, args.tol)
    method = args.method
    iterations = 0
    if method == "mw1":
        mix_a = _load_json(args.a, ot.GaussianMixture.from_dict, "mixture manifest")
        mix_b = _load_json(args.b, ot.GaussianMixture.from_dict, "mixture manifest")
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
            pair = ot._canonical_order(cloud_a, cloud_b)
            plan, _, info = ot.uniform_plan(*pair, args.reg, args.max_iter, args.tol)
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
        models = _load_json(args.checkpoint, training.DarsaModels.from_dict, "checkpoint")
        feat_s, _, preds_s = training.apply_models(models.encoder_s, models.classifier, source.features)
        feat_t, _, pseudo_t = training.apply_models(models.encoder_t, models.classifier, target.features)
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
    out = _out_dir(args.out)
    (out / "boundreport.json").write_text(report.to_json() + "\n")
    _write_bound_csv(out / "bound_comparison.csv", [(0, report)])
    print(report.to_json())
    return EXIT_OK


def _task_datasets(task: dict, seed: int):
    """Source and target of a ``train`` task; a ``gen`` manifest's generator block is one."""
    name = task.get("name")
    if not isinstance(name, str) or name not in _TASKS:
        raise ValueError(f"unknown task {name!r}")
    if name == "figure1":
        task = {"sigma": 0.05, "n_per_domain": 2000, **task}
    missing = [key for key in _TASKS[name] if key not in task]
    if missing:
        raise ValueError(f"{name} task is missing {', '.join(map(repr, missing))}")
    if name == "csv":
        source, target = _load_dataset(task["source"], need_labels=True), _load_dataset(task["target"])
        return source, Dataset(target.features, target.labels, source.k)
    params = {
        key: ClassWeights(task[key]) if kind == "tuple" else task[key]
        for key, kind in _TASKS[name].items()
    }
    return (make_figure1_task if name == "figure1" else make_shifted_gmm)(**params, seed=seed)


def cmd_train(args) -> int:
    """Run the adaptation loop from an experiment config file."""
    with _require_file(args.config).open() as fh:
        experiment = _json_object(json.load(fh), "experiment config")
    config = training.DarsaConfig.from_dict(experiment.get("darsa", {}))
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.epochs is not None:
        config = replace(config, epochs=args.epochs)
    task = _json_object(experiment.get("task", {"name": "figure1"}), "task")
    if args.task is not None:
        task = {**task, "name": args.task}
    log_every = experiment.get("log_every", 1)
    if log_every < 1:
        raise ValueError("log_every must be at least 1")
    source, target = _task_datasets(task, config.seed)
    out = _out_dir(args.out if args.out is not None else experiment.get("out_dir", "."))
    models, metrics = training.fit(source, target, config, eval_labels=target.labels)

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
    if target.labels is not None:
        target_acc = training.accuracy(
            models.encoder_t, models.classifier, target.features, target.labels
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
    cluster, pooled W1, the reweighted sum, and the variance slack. The task
    is one-dimensional, so every W1 is exact."""
    source, target = make_figure1_task(args.sigma, args.n, args.seed)
    skipped = aligned_classes(class_rows(source.labels, 2), class_rows(target.labels, 2))[1]
    if skipped:
        raise ValueError(f"cluster {skipped[0]} is empty in one domain")
    w_t = target.class_proportions()
    overall, weighted, slack = bounds.discrepancy_terms(
        source.features, source.labels, target.features, target.labels, w_t,
        reg=args.reg, max_iter=args.max_iter, tol=args.tol,
    )
    holds = bool(weighted.value <= overall + slack)
    out = _out_dir(args.out)
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


def _props_arg(text: str, flag: str) -> list:
    """A ``--*-props`` JSON array, checked to be on the simplex and written as floats."""
    props = json.loads(text)
    if not training.has_kind(props, "tuple"):
        raise ValueError(f"{flag} must be a JSON array of numbers, got {text}")
    return ClassWeights(props).w.tolist()


def cmd_gen(args) -> int:
    """Generate a synthetic task and write it as CSV plus a manifest."""
    generator = {"name": args.task}
    for key, kind in _TASKS[args.task].items():
        value = getattr(args, key)
        generator[key] = _props_arg(value, f"--{key.replace('_', '-')}") if kind == "tuple" else value
    source, target = _task_datasets(generator, args.seed)
    out = _out_dir(args.out)
    source.to_csv(out / "source.csv")
    target.to_csv(out / "target.csv")
    manifest = source.manifest(seed=args.seed, generator=generator)
    (out / "manifest.json").write_text(json.dumps(manifest) + "\n")
    print(json.dumps(manifest))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_sinkhorn_flags(sub, scope=""):
    """The Sinkhorn settings; ``scope`` ends each help line with where they apply."""
    sub.add_argument("--reg", type=float, default=0.01, help="entropic regularization" + scope)
    sub.add_argument("--max-iter", dest="max_iter", type=int, default=5000,
                     help="Sinkhorn iteration budget" + scope)
    sub.add_argument("--tol", type=float, default=1e-6, help="marginal tolerance (L1)" + scope)


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
    _add_sinkhorn_flags(p_bounds, "; for features of two or more columns (one column gives "
                        "exact W1 and only checks it)")
    p_bounds.set_defaults(func=cmd_bounds)

    p_train = subs.add_parser("train", help="run the adaptation training loop")
    p_train.add_argument("--config", required=True, help="experiment config JSON")
    p_train.add_argument("--seed", type=int, help="override config seed")
    p_train.add_argument("--epochs", type=int, help="override adaptation epochs")
    p_train.add_argument("--out", help="override output directory")
    p_train.add_argument(
        "--task", choices=list(_TASKS),
        help="override the config's task name (parameters still come from the config)",
    )
    p_train.set_defaults(func=cmd_train)

    p_fig = subs.add_parser("figure1", help="two-cluster diagnostic table")
    p_fig.add_argument("--sigma", type=float, default=0.05)
    p_fig.add_argument("--n", type=int, default=2000, help="samples per domain")
    p_fig.add_argument("--seed", type=int, default=0)
    p_fig.add_argument("--out", default=".", help="output directory")
    _add_sinkhorn_flags(p_fig, "; only checked, since the one-column W1 terms are exact")
    p_fig.set_defaults(func=cmd_figure1)

    p_gen = subs.add_parser("gen", help="generate synthetic datasets")
    p_gen.add_argument("--task", choices=[name for name in _TASKS if name != "csv"], required=True)
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--sigma", type=float, default=0.05)
    p_gen.add_argument("--n", dest="n_per_domain", metavar="N", type=int, default=2000,
                       help="samples per domain")
    p_gen.add_argument("--k", type=int, default=3)
    p_gen.add_argument("--d", type=int, default=2)
    p_gen.add_argument("--separation", dest="mean_separation", metavar="SEPARATION", type=float,
                       default=1.2)
    p_gen.add_argument("--shift", dest="target_mean_shift", metavar="SHIFT", type=float, default=0.5)
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
    except (ValueError, KeyError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
