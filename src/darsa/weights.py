"""Feature matrices, class labels and class-weight vectors on the simplex.

Both domains carry a weight per sub-domain (class): the source weights are
the empirical label proportions, the target weights are estimated from
classifier predictions. Everything downstream (reweighted losses, the
sub-domain discrepancy, the bound estimators) consumes these as a
``ClassWeights`` value. Label vectors are read through ``as_labels``, feature
matrices through ``as_features``, per-class part lists through ``as_parts``
and probability vectors (class weights, transport marginals) through ``as_simplex``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIMPLEX_TOL = 1e-9


def as_features(x, name: str, d: int | None = None) -> np.ndarray:
    """A 2-D float feature matrix, one row per sample (a 1-D input is one row; float64
    is not copied). More axes, a non-finite value or columns other than ``d`` raise."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.ndim > 2:
        raise ValueError(f"{name} must be a 2-D feature matrix, got {x.ndim} dimensions")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"non-finite value in {name}")
    if d is not None and x.shape[1] != d:
        raise ValueError("feature spaces differ in dimension")
    return x


def as_parts(parts, name: str, d: int | None = None) -> tuple:
    """``(parts, d)``: each part of a per-class list through ``as_features``, and the
    columns of their one feature space: ``d``, or the first non-empty part's. Empty
    parts are not checked against it."""
    out = []
    for part in parts:
        out.append(as_features(part, name, d if np.size(part) else None))
        if d is None and out[-1].size:
            d = out[-1].shape[1]
    return out, d


def as_labels(labels, k: int | None = None, n: int | None = None) -> np.ndarray:
    """A flat int label vector (int input is not copied). Bool, int and
    whole-valued float labels pass; any other value (0.9, NaN, inf) raises, as
    do a length other than ``n`` and a label outside ``0..k-1``, each if given."""
    raw = np.asarray(labels).reshape(-1)
    if raw.dtype.kind not in "biu":
        raw = raw.astype(float)
        if not np.all((np.trunc(raw) == raw) & (np.abs(raw) < 2.0**63)):
            raise ValueError("labels must be whole numbers")
    labels = raw.astype(int, copy=False)
    if n is not None and labels.size != n:
        raise ValueError("labels do not cover the feature rows")
    if k is not None and labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label outside 0..{k - 1}")
    return labels


def as_simplex(p, name: str, n: int | None = None) -> np.ndarray:
    """A flat float probability vector, as a new array; entries within ``SIMPLEX_TOL``
    below 0 become 0. Empty, of a length other than ``n`` or off the simplex raises."""
    p = np.asarray(p, dtype=float).reshape(-1)
    if p.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if n is not None and p.size != n:
        raise ValueError(f"{name} must have length {n}, got {p.size}")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"non-finite value in {name}")
    if np.any(p < -SIMPLEX_TOL):
        raise ValueError(f"negative value in {name}")
    with np.errstate(over="ignore"):  # entries near 1e308 sum to inf, also not 1
        total = float(p.sum())
    if abs(total - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"{name} must sum to 1, got {total}")
    return np.maximum(p, 0.0)


def class_rows(labels, k: int, n: int | None = None) -> list:
    """Indices of the rows labelled ``c``, in order, for each ``c`` in
    ``0..k-1`` (possibly empty); ``labels`` is checked by ``as_labels``."""
    labels = as_labels(labels, k, n)
    return [np.flatnonzero(labels == c) for c in range(k)]


def aligned_classes(source, target) -> tuple:
    """``(aligned, skipped)`` of two per-class sequences of one length (parts or row
    indices; other lengths raise): the classes non-empty on both sides as a list, the
    others as a tuple, each in class order. Every paired per-class term uses this rule."""
    if len(source) != len(target):
        raise ValueError("source and target class lists differ in length")
    both = [bool(np.size(s) and np.size(t)) for s, t in zip(source, target)]
    return [c for c, b in enumerate(both) if b], tuple(c for c, b in enumerate(both) if not b)


@dataclass(frozen=True)
class ClassWeights:
    """A point on the (K-1)-simplex, checked by ``as_simplex``."""

    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", as_simplex(self.w, "class weights"))

    @property
    def k(self) -> int:
        return int(self.w.size)

    def __getitem__(self, idx: int) -> float:
        return float(self.w[idx])

    @staticmethod
    def uniform(k: int) -> "ClassWeights":
        if k < 1:
            raise ValueError("need at least one class")
        return ClassWeights(np.full(k, 1.0 / k))

    @staticmethod
    def from_labels(labels: np.ndarray, k: int) -> "ClassWeights":
        """Empirical class proportions of an integer label vector."""
        if np.size(labels) == 0:
            raise ValueError("empty label vector")
        counts = np.bincount(as_labels(labels, k), minlength=k).astype(float)
        return ClassWeights(counts / counts.sum())
