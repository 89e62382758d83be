"""Empirical estimators for the sub-domain generalization-bound terms.

The target risk of a classifier is controlled by two competing upper
bounds: an overall one (source risk plus the W1 distance between the
pooled domains) and a sub-domain one (target-reweighted per-class source
risks plus the target-reweighted sum of paired per-class W1 distances,
within an additive slack ``delta_c`` driven by the per-class feature
variance). This module estimates the computable parts of both bounds and
packages them as a comparator report. The ideal joint risks appearing in
the full bounds are infima over a hypothesis class and have no estimator;
they are deliberately absent from the report, which therefore compares
partial bounds only.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import ot
from .weights import ClassWeights, class_rows

EXACT_TOL = 1e-12


@dataclass(frozen=True)
class SubdomainPartition:
    """Assignment of N samples to K sub-domains (classes)."""

    assignments: np.ndarray
    k: int
    rows: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        assignments = np.asarray(self.assignments, dtype=int).reshape(-1)
        object.__setattr__(self, "assignments", assignments)
        if self.k < 1:
            raise ValueError("K must be positive")
        try:
            rows = class_rows(assignments, self.k)
        except ValueError:
            raise ValueError(f"assignment outside 0..{self.k - 1}") from None
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return int(self.assignments.size)


@dataclass(frozen=True)
class BoundReport:
    """Computable terms of the overall and sub-domain bounds, side by side.

    ``eps_g_partial`` and ``eps_c_partial`` are the two partial bounds
    (risk term plus discrepancy term, ideal joint risks omitted); their
    defining sums are exact by construction.
    """

    gamma_s: float
    gamma_s_weighted: float
    disc_overall: float
    disc_weighted: float
    delta_c: float
    eps_g_partial: float
    eps_c_partial: float
    skipped_subdomains: int

    def __post_init__(self):
        if abs(self.eps_g_partial - (self.gamma_s + self.disc_overall)) > EXACT_TOL:
            raise ValueError("eps_g_partial does not reconstruct from its terms")
        if abs(self.eps_c_partial - (self.gamma_s_weighted + self.disc_weighted)) > EXACT_TOL:
            raise ValueError("eps_c_partial does not reconstruct from its terms")

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


class SubdomainRisks(NamedTuple):
    risks: np.ndarray
    skipped: tuple


def _check_paired(predictions, labels):
    predictions = np.asarray(predictions, dtype=int).reshape(-1)
    labels = np.asarray(labels, dtype=int).reshape(-1)
    if predictions.size != labels.size:
        raise ValueError("predictions and labels differ in length")
    if predictions.size == 0:
        raise ValueError("empty inputs")
    return predictions, labels


def source_risk(predictions, labels) -> float:
    """Empirical 0-1 error of a prediction vector."""
    predictions, labels = _check_paired(predictions, labels)
    return float(np.mean(predictions != labels))


def subdomain_risks(predictions, labels, partition: SubdomainPartition) -> SubdomainRisks:
    """Per-sub-domain 0-1 errors.

    Entry k is the error restricted to samples assigned to sub-domain k.
    Empty sub-domains contribute zero and are reported in ``skipped``.
    """
    predictions, labels = _check_paired(predictions, labels)
    if partition.n != predictions.size:
        raise ValueError("partition does not cover the samples")
    risks = np.zeros(partition.k)
    skipped = []
    for k, rows in enumerate(partition.rows):
        if rows.size == 0:
            skipped.append(k)
            continue
        risks[k] = float(np.mean(predictions[rows] != labels[rows]))
    return SubdomainRisks(risks, tuple(skipped))


def check_decomposition(predictions, labels, partition: SubdomainPartition) -> float:
    """Residual of the risk decomposition identity.

    The overall risk equals the class-proportion-weighted sum of the
    per-sub-domain risks exactly for empirical measures; the returned
    residual is the absolute difference of the two evaluations.
    """
    overall = source_risk(predictions, labels)
    per_class = subdomain_risks(predictions, labels, partition).risks
    props = np.array([rows.size for rows in partition.rows]) / partition.n
    return float(abs(overall - float(props @ per_class)))


def delta_c(parts: Sequence[np.ndarray]) -> float:
    """Variance-driven slack between the two discrepancy terms.

    Four times the square root of the largest per-part empirical
    covariance trace. Parts with fewer than two samples contribute zero.
    """
    parts = [np.atleast_2d(np.asarray(p, dtype=float)) for p in parts if np.asarray(p).size]
    if not parts:
        raise ValueError("all parts empty")
    worst = 0.0
    for p in parts:
        if p.shape[0] < 2:
            continue
        cov = np.cov(p, rowvar=False)
        worst = max(worst, float(np.atleast_2d(cov).trace()))
    return 4.0 * float(np.sqrt(worst))


def split_by_class(features: np.ndarray, labels: np.ndarray, k: int) -> list:
    """Partition feature rows into K per-class arrays (possibly empty)."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    return [features[rows] for rows in class_rows(labels, k, features.shape[0])]


def bound_report(
    source_features,
    source_preds,
    source_labels,
    target_features,
    target_pseudo_labels,
    w_t: ClassWeights,
    reg: float = 0.01,
    max_iter: int = 5000,
    tol: float = 1e-6,
    reg_mode: str = "absolute",
) -> BoundReport:
    """Evaluate both partial bounds on a shared representation space.

    Source sub-domains come from true labels, target sub-domains from the
    supplied pseudo-labels; ``w_t`` weights both the per-class risks and
    the paired per-class discrepancies.
    """
    k = w_t.k
    source_features = np.atleast_2d(np.asarray(source_features, dtype=float))
    target_features = np.atleast_2d(np.asarray(target_features, dtype=float))
    if source_features.shape[1] != target_features.shape[1]:
        raise ValueError("feature spaces differ in dimension")

    gamma = source_risk(source_preds, source_labels)
    partition = SubdomainPartition(source_labels, k)
    per_class = subdomain_risks(source_preds, source_labels, partition).risks
    gamma_weighted = float(w_t.w @ per_class)

    disc_overall = ot.w1_empirical(
        source_features, target_features, reg=reg, max_iter=max_iter, tol=tol,
        reg_mode=reg_mode,
    )
    source_parts = split_by_class(source_features, source_labels, k)
    target_parts = split_by_class(target_features, target_pseudo_labels, k)
    weighted = ot.weighted_subdomain_w1(
        source_parts, target_parts, w_t, reg=reg, max_iter=max_iter, tol=tol,
        reg_mode=reg_mode,
    )
    slack = delta_c(source_parts + target_parts)

    return BoundReport(
        gamma_s=gamma,
        gamma_s_weighted=gamma_weighted,
        disc_overall=disc_overall,
        disc_weighted=weighted.value,
        delta_c=slack,
        eps_g_partial=gamma + disc_overall,
        eps_c_partial=gamma_weighted + weighted.value,
        skipped_subdomains=len(weighted.skipped),
    )
