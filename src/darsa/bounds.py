"""Empirical estimators for the sub-domain generalization-bound terms.

The target risk of a classifier is controlled by two competing upper
bounds: an overall one (source risk plus the W1 distance between the
pooled domains) and a sub-domain one (target-reweighted per-class source
risks plus the target-reweighted sum of paired per-class W1 distances,
within an additive slack ``delta_c`` driven by the per-class feature
variance). This module estimates the computable parts of both bounds:
``discrepancy_terms`` gives the three discrepancy terms to ``bound_report``
(which adds the risk terms in a comparator report) and to ``darsa figure1``.
On one-column features the W1 terms are exact (``ot.w1_exact_1d``); on more
columns they are entropic estimates (``ot.w1_empirical``).
The ideal joint risks of the full bounds are infima over a hypothesis class
and have no estimator; they are deliberately absent from the report, which
therefore compares partial bounds only.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import ot
from .weights import ClassWeights, as_features, as_labels, as_parts, class_rows

EXACT_TOL = 1e-12


@dataclass(frozen=True)
class SubdomainPartition:
    """Assignment of N samples to K sub-domains (classes)."""

    assignments: np.ndarray
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("K must be positive")
        object.__setattr__(self, "assignments", as_labels(self.assignments, self.k))

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
    predictions, labels = as_labels(predictions), as_labels(labels)
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
    sizes = np.bincount(partition.assignments, minlength=partition.k)
    errors = np.bincount(partition.assignments, weights=predictions != labels, minlength=partition.k)
    risks = np.divide(errors, sizes, out=np.zeros(partition.k), where=sizes > 0)
    return SubdomainRisks(risks, tuple(int(c) for c in np.flatnonzero(sizes == 0)))


def check_decomposition(predictions, labels, partition: SubdomainPartition) -> float:
    """Residual of the risk decomposition identity.

    The overall risk equals the class-proportion-weighted sum of the
    per-sub-domain risks exactly for empirical measures; the returned
    residual is the absolute difference of the two evaluations.
    """
    overall = source_risk(predictions, labels)
    per_class = subdomain_risks(predictions, labels, partition).risks
    props = np.bincount(partition.assignments, minlength=partition.k) / partition.n
    return float(abs(overall - float(props @ per_class)))


def delta_c(parts: Sequence[np.ndarray]) -> float:
    """Variance-driven slack between the two discrepancy terms.

    Four times the square root of the largest per-part empirical
    covariance trace. The parts share one feature space; parts with fewer
    than two samples contribute zero. Each part is taken in units of
    ``2**ot._scale_exp(max |p|)``; a value past float64's range raises.
    """
    parts = [p for p in as_parts(parts, "parts")[0] if p.size]
    if not parts:
        raise ValueError("all parts empty")
    worst = 0.0
    for p in parts:
        if p.shape[0] < 2:
            continue
        k = ot._scale_exp(np.abs(p).max())
        trace = np.atleast_2d(np.cov(np.ldexp(p, -k), rowvar=False)).trace()
        worst = max(worst, ot._unscale(4.0 * np.sqrt(trace), k, "delta_c"))
    return worst


def split_by_class(features: np.ndarray, labels: np.ndarray, k: int) -> list:
    """Partition feature rows into K per-class arrays (possibly empty)."""
    features = as_features(features, "features")
    return [features[rows] for rows in class_rows(labels, k, features.shape[0])]


def discrepancy_terms(
    source_features, source_labels, target_features, target_labels, w_t: ClassWeights, **solver
) -> tuple:
    """``(pooled, weighted, slack)``: pooled W1, ``w_t``-weighted paired per-class W1
    (an ``ot.WeightedSubdomainW1``) and ``delta_c``.

    On one-column features every W1 is exact (``ot.w1_exact_1d``), and the
    ``solver`` settings (``ot.w1_empirical``'s keywords) are only checked;
    on more columns every W1 is ``ot.w1_empirical`` with ``solver``.
    """
    source_features = as_features(source_features, "source_features")
    target_features = as_features(target_features, "target_features", source_features.shape[1])
    if source_features.shape[1] == 1:
        ot._check_solver(**solver)
        distance = ot.w1_exact_1d
    else:
        def distance(x, y):
            return ot.w1_empirical(x, y, **solver)
    pooled = distance(source_features, target_features)
    source_parts = split_by_class(source_features, source_labels, w_t.k)
    target_parts = split_by_class(target_features, target_labels, w_t.k)
    weighted = ot._subdomain_sum(source_parts, target_parts, w_t, distance)
    return pooled, weighted, delta_c(source_parts + target_parts)


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
    the paired per-class discrepancies. The discrepancies come from
    :func:`discrepancy_terms`: exact W1 on one-column features, where the
    solver settings are only checked, and entropic W1 on more columns.
    """
    gamma = source_risk(source_preds, source_labels)
    partition = SubdomainPartition(source_labels, w_t.k)
    per_class = subdomain_risks(source_preds, source_labels, partition).risks
    gamma_weighted = float(w_t.w @ per_class)
    disc_overall, weighted, slack = discrepancy_terms(
        source_features, source_labels, target_features, target_pseudo_labels, w_t,
        reg=reg, max_iter=max_iter, tol=tol, reg_mode=reg_mode,
    )
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
