"""Class-weight vectors on the probability simplex.

Both domains carry a weight per sub-domain (class): the source weights are
the empirical label proportions, the target weights are estimated from
classifier predictions. Everything downstream (reweighted losses, the
sub-domain discrepancy, the bound estimators) consumes these as a
``ClassWeights`` value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIMPLEX_TOL = 1e-9


def class_rows(labels, k: int, n: int | None = None) -> list:
    """Indices of the rows labelled ``c``, in order, for each ``c`` in
    ``0..k-1`` (possibly empty). A label outside ``0..k-1`` raises, and so
    does a label vector whose length is not ``n`` when ``n`` is given."""
    labels = np.asarray(labels, dtype=int).reshape(-1)
    if n is not None and labels.size != n:
        raise ValueError("labels do not cover the feature rows")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label outside 0..{k - 1}")
    return [np.flatnonzero(labels == c) for c in range(k)]


@dataclass(frozen=True)
class ClassWeights:
    """A point on the (K-1)-simplex: nonnegative entries summing to one."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float).reshape(-1)
        object.__setattr__(self, "w", w)
        if w.size == 0:
            raise ValueError("class weights must be non-empty")
        if not np.all(np.isfinite(w)):
            raise ValueError("non-finite value in class weights")
        if np.any(w < -SIMPLEX_TOL):
            raise ValueError("negative class weight")
        if abs(float(w.sum()) - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"class weights sum to {w.sum()}, expected 1")

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
        counts = np.array([rows.size for rows in class_rows(labels, k)], dtype=float)
        return ClassWeights(counts / counts.sum())
