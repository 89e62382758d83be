"""Correctness checks built apart from the program.

Each check raises ``CheckFailed`` with a one-line reason. The oracles here
(the network forward pass, the exact 1-D W1, the variance slack) are written
from their definitions and call nothing in darsa.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np


class CheckFailed(AssertionError):
    """A program output disagreed with its oracle or broke a property."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def network_layers(net) -> list:
    """``(weight, bias, activation)`` triples from a darsa network or its checkpoint dict."""
    if isinstance(net, dict):
        return [
            (np.asarray(spec["weight"], dtype=float).reshape(spec["shape"]),
             np.asarray(spec["bias"], dtype=float), spec["activation"])
            for spec in net["layers"]
        ]
    return [(layer.weight, layer.bias, layer.activation) for layer in net.layers]


def forward(layers, x) -> np.ndarray:
    """The affine-plus-activation stack, for the activations darsa's default networks use."""
    h = np.atleast_2d(np.asarray(x, dtype=float))
    for weight, bias, activation in layers:
        h = h @ weight.T + bias
        if activation == "relu":
            h = np.maximum(h, 0.0)
        elif activation != "identity":
            raise CheckFailed(f"oracle has no activation {activation!r}")
    return h


def accuracy(encoder, classifier, x, labels) -> float:
    logits = forward(network_layers(classifier), forward(network_layers(encoder), x))
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(labels)))


def exact_w1_1d(a, b) -> float:
    """W1 between two uniform 1-D empirical measures as the integral of |F - G|."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    grid = np.concatenate([a, b])
    grid.sort()
    cdf_a = np.searchsorted(a, grid[:-1], side="right") / a.size
    cdf_b = np.searchsorted(b, grid[:-1], side="right") / b.size
    return float(np.sum(np.abs(cdf_a - cdf_b) * np.diff(grid)))


def variance_slack(parts) -> float:
    """Four times the square root of the largest per-part covariance trace.

    A part is an ``(n,)`` or ``(n, d)`` array of n samples.
    """
    worst = 0.0
    for part in parts:
        part = np.asarray(part, dtype=float)
        part = part.reshape(part.shape[0], -1)
        if part.shape[0] >= 2:
            centred = part - part.mean(axis=0)
            worst = max(worst, float(np.sum(centred**2)) / (part.shape[0] - 1))
    return 4.0 * float(np.sqrt(worst))


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------


class Schemas:
    """Validators for darsa's shipped JSON schemas, with their cross references."""

    def __init__(self, schema_dir: Path):
        import jsonschema
        from referencing import Registry, Resource

        docs = {p.name: json.loads(p.read_text()) for p in sorted(schema_dir.glob("*.json"))}
        require(bool(docs), f"no schemas under {schema_dir}")
        registry = Registry().with_resources(
            (doc["$id"], Resource.from_contents(doc)) for doc in docs.values()
        )
        self._validators = {
            name: jsonschema.Draft7Validator(doc, registry=registry) for name, doc in docs.items()
        }

    def validate(self, schema_name: str, obj, where: str) -> None:
        errors = list(self._validators[schema_name].iter_errors(obj))
        require(not errors, f"{where} breaks {schema_name}: {errors[0].message if errors else ''}")


# ---------------------------------------------------------------------------
# Workload checks
# ---------------------------------------------------------------------------

BOUND_SLACK = 0.05
SIMPLEX_TOL = 1e-9


def check_fit(metrics, models, target, accuracy_floor: float, heavy_class: int) -> None:
    """fit-gmm: bound relation, target weights, and the final target accuracy."""
    require(len(metrics.records) > 0, "fit returned no epoch records")
    for record in metrics.records:
        bound = record.bound
        require(
            bound.eps_c_partial <= bound.eps_g_partial + bound.delta_c + BOUND_SLACK,
            f"epoch {record.epoch}: eps_c_partial {bound.eps_c_partial:.6g} exceeds "
            f"eps_g_partial + delta_c + {BOUND_SLACK}",
        )
        w_t = np.asarray(record.w_t, dtype=float)
        require(
            np.all(w_t >= 0) and abs(float(w_t.sum()) - 1.0) <= SIMPLEX_TOL,
            f"epoch {record.epoch}: w_t {w_t.tolist()} is off the simplex",
        )
    final_w = np.asarray(metrics.records[-1].w_t)
    require(
        int(np.argmax(final_w)) == heavy_class,
        f"final w_t {final_w.tolist()} does not rank class {heavy_class} highest",
    )
    reported = metrics.records[-1].target_accuracy
    mine = accuracy(models.encoder_t, models.classifier, target.features, target.labels)
    # One sample of slack: a change in floating-point summation order inside
    # the program's forward pass may flip a prediction that sits on a tie.
    require(
        reported is not None and abs(mine - reported) <= 1.0 / target.n + 1e-12,
        f"reported target accuracy {reported} but the parameters give {mine}",
    )
    require(mine >= accuracy_floor, f"target accuracy {mine} below the floor {accuracy_floor}")


def check_train_outputs(out: Path, stdout: str, schemas: Schemas, epochs: int, log_every: int,
                        source, target) -> int:
    """train-figure1: schemas, one record per logged epoch, recomputed accuracies.

    Returns the number of bytes the command wrote (files plus standard output).
    """
    lines = (out / "metrics.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    for i, record in enumerate(records):
        schemas.validate("metrics_record.schema.json", record, f"metrics.jsonl line {i + 1}")
    expected = [e for e in range(1, epochs + 1) if e % log_every == 0 or e == epochs]
    got = [r["epoch"] for r in records]
    require(got == expected, f"metrics.jsonl logs epochs {got}, expected {expected}")
    summary = json.loads((out / "summary.json").read_text())
    schemas.validate("summary.schema.json", summary, "summary.json")
    printed = json.loads(stdout.strip().splitlines()[-1])
    schemas.validate("summary.schema.json", printed, "printed summary")
    require(printed == summary, "printed summary differs from summary.json")
    require(summary["epochs"] == epochs, f"summary epochs {summary['epochs']} != {epochs}")
    checkpoint = json.loads((out / "checkpoint.json").read_text())
    for key, encoder, data in (
        ("source_accuracy", "encoder_s", source),
        ("target_accuracy", "encoder_t", target),
    ):
        mine = accuracy(checkpoint[encoder], checkpoint["classifier"], data.features, data.labels)
        require(
            abs(mine - summary[key]) <= 1.0 / data.n + 1e-12,
            f"summary {key} {summary[key]} but checkpoint.json gives {mine}",
        )
    require(
        abs(records[-1]["target_accuracy"] - summary["target_accuracy"]) <= 1e-12,
        "last metrics.jsonl record and summary.json disagree on target accuracy",
    )
    written = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    return written + len(stdout.encode())


def check_figure1(out: Path, stdout: str, source, target, w1_tol: float) -> int:
    """figure1-diag: W1 values against the exact 1-D W1, the bound flag, CSV vs JSON.

    Returns the number of bytes the command wrote.
    """
    result = json.loads(stdout.strip().splitlines()[-1])
    parts_s = [source.features[source.labels == c, 0] for c in range(2)]
    parts_t = [target.features[target.labels == c, 0] for c in range(2)]
    pairs = [(f"w1_paired[{c}]", result["w1_paired"][c], parts_s[c], parts_t[c]) for c in range(2)]
    pairs.append(("w1_overall", result["w1_overall"], source.features[:, 0], target.features[:, 0]))
    for name, value, a, b in pairs:
        exact = exact_w1_1d(a, b)
        # The entropic plan costs at least the exact optimum, up to its
        # marginal residual, and at most w1_tol more.
        require(
            exact - 1e-5 <= value <= exact + w1_tol,
            f"{name} {value:.6g} outside [{exact - 1e-5:.6g}, {exact + w1_tol:.6g}] "
            f"around the exact W1 {exact:.6g}",
        )
    w_t = np.bincount(target.labels, minlength=2) / target.n
    weighted = float(w_t @ np.asarray(result["w1_paired"]))
    require(abs(weighted - result["weighted_sum"]) <= 1e-12, "weighted_sum does not add up")
    slack = variance_slack(parts_s + parts_t)
    require(abs(slack - result["delta_c"]) <= 1e-9 * max(1.0, slack),
            f"delta_c {result['delta_c']} but the parts give {slack}")
    require(result["bound_holds"] is True, "bound_holds is not true")
    require(weighted <= result["w1_overall"] + slack, "the bound does not hold on the numbers")
    with (out / "figure1.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == 2, f"figure1.csv has {len(rows)} rows, expected 2")
    for c, row in enumerate(rows):
        require(
            int(row["cluster"]) == c
            and float(row["w_t"]) == w_t[c]
            and float(row["w1_paired"]) == result["w1_paired"][c]
            and float(row["w1_overall"]) == result["w1_overall"]
            and float(row["delta_c"]) == result["delta_c"]
            and row["bound_holds"] == str(result["bound_holds"]),
            f"figure1.csv row {c} disagrees with the printed JSON",
        )
    written = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    return written + len(stdout.encode())


def check_mixture_chain(dist, value, plan, pooled, w_s, w_t, eps) -> None:
    """ot-mixture: the sandwich, diagonal dominance, and the plan's marginals."""
    dist = np.asarray(dist)
    paired = float(np.asarray(w_t) @ np.diag(dist))
    require(paired <= value + 1e-9, f"paired sum {paired:.6g} exceeds the mixture distance {value:.6g}")
    ceiling = pooled + 4.0 * np.sqrt(eps) + BOUND_SLACK
    require(value <= ceiling, f"mixture distance {value:.6g} exceeds pooled W1 + 4 sqrt(eps) + "
            f"{BOUND_SLACK} = {ceiling:.6g}")
    for i in range(dist.shape[0]):
        require(dist[i, i] <= np.delete(dist[i], i).min(initial=np.inf),
                f"row {i} of the pairwise matrix is not dominated by its diagonal")
    coupling = np.asarray(plan.coupling)
    require(np.abs(coupling.sum(axis=1) - w_s).max() <= 1e-9
            and np.abs(coupling.sum(axis=0) - w_t).max() <= 1e-9,
            "mw1_gmm plan marginals differ from the mixture weights")
    require(abs(float(np.sum(coupling * dist)) - value) <= 1e-9 * max(1.0, value),
            "mw1_gmm value is not the plan's cost on the pairwise matrix")
