"""Synthetic shifted-class-distribution tasks and dataset plumbing.

Generators for the two-Gaussian one-dimensional task, a K-class
d-dimensional generalization with mismatched class proportions between
domains, and a class-stratified resampler for imposing a target label
distribution on an existing dataset. Everything is seed-driven and
deterministic.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import ot
from .weights import ClassWeights, as_features, as_labels, class_rows

# Figure-one style task: two unit-weight-shifted Gaussians per domain.
FIGURE1_SOURCE_MEANS = (-1.5, 1.5)
FIGURE1_SOURCE_WEIGHTS = (0.7, 0.3)
FIGURE1_TARGET_MEANS = (-1.4, 1.6)
FIGURE1_TARGET_WEIGHTS = (0.3, 0.7)

AUDIT_RETRIES = 10
AUDIT_SUBSAMPLE = 200


class AuditError(RuntimeError, ValueError):
    """The paired-distance audit failed on every retry: the task's parameters are at fault."""


def capped_indices(rng: np.random.Generator, n: int, cap: int) -> np.ndarray:
    """All of ``range(n)`` when ``n <= cap`` (drawing nothing from ``rng``), else
    ``cap`` distinct indices drawn from ``rng``."""
    if n <= cap:
        return np.arange(n)
    return rng.choice(n, size=cap, replace=False)


@dataclass(frozen=True)
class Dataset:
    """A dense feature matrix with optional class labels."""

    features: np.ndarray
    labels: np.ndarray | None
    k: int

    def __post_init__(self):
        object.__setattr__(self, "features", as_features(self.features, "features"))
        if self.k < 1:
            raise ValueError("K must be positive")
        if self.labels is not None:
            object.__setattr__(self, "labels", as_labels(self.labels, self.k, self.n))

    @property
    def n(self) -> int:
        return int(self.features.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    def class_proportions(self) -> ClassWeights:
        if self.labels is None:
            raise ValueError("dataset has no labels")
        return ClassWeights.from_labels(self.labels, self.k)

    # -- CSV / manifest round trip ------------------------------------

    def to_csv(self, path) -> None:
        path = Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            header = [f"f{i}" for i in range(self.dim)]
            if self.labels is not None:
                header.append("label")
            writer.writerow(header)
            for i in range(self.n):
                row = [repr(float(v)) for v in self.features[i]]
                if self.labels is not None:
                    row.append(str(int(self.labels[i])))
                writer.writerow(row)

    @staticmethod
    def from_csv(path) -> "Dataset":
        path = Path(path)
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"empty CSV file: {path}")
            has_label = bool(header) and header[-1] == "label"
            n_feat = len(header) - (1 if has_label else 0)
            if n_feat < 1 or any(h != f"f{i}" for i, h in enumerate(header[:n_feat])):
                raise ValueError(f"malformed CSV header in {path}: {header}")
            feats, labels = [], []
            for row in reader:
                if len(row) != len(header):
                    raise ValueError(f"ragged CSV row in {path}")
                feats.append([float(v) for v in row[:n_feat]])
                if has_label:
                    labels.append(int(row[n_feat]))
        if not feats:
            raise ValueError(f"CSV file has a header but no data rows: {path}")
        label_arr = np.asarray(labels, dtype=int) if has_label else None
        k = int(label_arr.max()) + 1 if has_label else 1
        return Dataset(np.asarray(feats, dtype=float), label_arr, k)

    def manifest(self, seed: int | None = None, generator: dict | None = None) -> dict:
        return {
            "k": self.k,
            "d": self.dim,
            "n": self.n,
            "seed": seed,
            "generator": generator or {},
        }


def _isotropic_mixture(means: np.ndarray, weights, sigma: float) -> ot.GaussianMixture:
    means = np.atleast_2d(np.asarray(means, dtype=float))
    d = means.shape[1]
    # NaN fails both tests; sigma**2 of a float past 1.3e154 raises OverflowError.
    if not (sigma > 0 and np.isfinite(float(sigma) * float(sigma))):
        raise ValueError(f"sigma must have a finite square and be positive, got {sigma!r}")
    comps = tuple(ot.GaussianComponent(m, sigma**2 * np.eye(d)) for m in means)
    return ot.GaussianMixture(ClassWeights(weights), comps)


def make_figure1_task(sigma: float, n_per_domain: int, seed: int):
    """The 1-D two-cluster task with flipped cluster weights across domains.

    Source samples come from components at -1.5 and 1.5 with weights 0.7
    and 0.3; target samples from components at -1.4 and 1.6 with weights
    0.3 and 0.7. Labels record the generating component; target labels are
    included for evaluation only.
    """
    if n_per_domain < 2:
        raise ValueError("need at least two samples per domain")
    src_mix = _isotropic_mixture(
        np.array(FIGURE1_SOURCE_MEANS)[:, None], FIGURE1_SOURCE_WEIGHTS, sigma
    )
    tgt_mix = _isotropic_mixture(
        np.array(FIGURE1_TARGET_MEANS)[:, None], FIGURE1_TARGET_WEIGHTS, sigma
    )
    xs, ys = ot.sample_gmm(src_mix, n_per_domain, seed)
    xt, yt = ot.sample_gmm(tgt_mix, n_per_domain, seed + 1)
    return Dataset(xs, ys, 2), Dataset(xt, yt, 2)


def _grid_means(k: int, d: int, separation: float) -> np.ndarray:
    """First K points of the integer lattice in d dimensions, scaled.

    Distinct lattice points differ by at least one in some coordinate, so
    the pairwise separation is at least ``separation``.
    """
    side = int(np.ceil(k ** (1.0 / d)))
    # Base-``side`` digits of 0..K-1, least significant first.
    digits = np.unravel_index(np.arange(k), (side,) * d)[::-1]
    return separation * np.stack(digits, axis=1).astype(float)


class _AuditFailure(NamedTuple):
    """Why a draw failed the paired-distance audit."""

    label: int  # the failing class
    empty_in: str | None  # the domain whose draw left it empty; None if it is nearer another class


def _paired_distance_audit(source: "Dataset", target: "Dataset", rng) -> _AuditFailure | None:
    """None if every class's cross-domain W1 is smallest on its own pair, else why not."""
    k = source.k
    parts_s = [source.features[r] for r in class_rows(source.labels, k)]
    parts_t = [target.features[r] for r in class_rows(target.labels, k)]
    for domain, parts in (("source", parts_s), ("target", parts_t)):
        for label, part in enumerate(parts):
            if part.shape[0] == 0:
                return _AuditFailure(label, domain)
    parts_s = [p[capped_indices(rng, len(p), AUDIT_SUBSAMPLE)] for p in parts_s]
    parts_t = [p[capped_indices(rng, len(p), AUDIT_SUBSAMPLE)] for p in parts_t]
    dist = ot._pair_table(parts_s, parts_t, lambda x, y: ot.w1_empirical(
        x, y, reg=0.05, max_iter=2000, tol=1e-5, reg_mode="relative"))
    for i in range(k):
        others = np.delete(dist[i], i)
        if dist[i, i] > others.min():
            return _AuditFailure(i, None)
    return None


def make_shifted_gmm(
    k: int,
    d: int,
    mean_separation: float,
    target_mean_shift: float,
    source_props: ClassWeights,
    target_props: ClassWeights,
    n_per_domain: int,
    sigma: float,
    seed: int,
):
    """K-class isotropic Gaussian task with shifted class proportions.

    Class means sit on a fixed lattice scaled to ``mean_separation``;
    target class means are the source means plus one shared random offset
    of norm ``target_mean_shift``, which keeps each class closest to its
    own counterpart. The generated pair is audited for that paired-distance
    property on samples and regenerated (bounded retries) on violation.
    """
    if k < 1 or d < 1:
        raise ValueError("K and d must be positive")
    if not (0 < mean_separation < np.inf and 0 <= target_mean_shift < np.inf):
        raise ValueError("scale parameters must be positive and finite")
    if source_props.k != k or target_props.k != k:
        raise ValueError("proportion vectors must have length K")
    for domain, props in (("source", source_props), ("target", target_props)):
        empty = np.flatnonzero(props.w <= 0)
        if k > 1 and empty.size:
            raise AuditError(
                f"paired-distance audit failed: class {empty[0]} has proportion 0 in the "
                f"{domain} domain, so it is empty in every draw"
            )
    means_s = _grid_means(k, d, mean_separation)
    reach = math.hypot(*np.ptp(means_s, axis=0)) + target_mean_shift
    if not math.isfinite(reach * reach):  # the audit's squared distances would overflow
        raise ValueError(
            f"mean_separation {mean_separation!r} and target_mean_shift {target_mean_shift!r} "
            "put classes too far apart: their distances square past float64"
        )
    src_mix = _isotropic_mixture(means_s, source_props.w, sigma)
    empty = Counter()  # (class, domain) of each draw that left a class empty
    for attempt in range(AUDIT_RETRIES):
        rng = np.random.default_rng(seed + 1000 * attempt)
        if target_mean_shift > 0:
            direction = rng.standard_normal(d)
            direction /= np.linalg.norm(direction)
            offset = target_mean_shift * direction
        else:
            offset = np.zeros(d)
        tgt_mix = _isotropic_mixture(means_s + offset, target_props.w, sigma)
        sub_seed = int(rng.integers(2**31 - 1))
        xs, ys = ot.sample_gmm(src_mix, n_per_domain, sub_seed)
        xt, yt = ot.sample_gmm(tgt_mix, n_per_domain, sub_seed + 1)
        source = Dataset(xs, ys, k)
        target = Dataset(xt, yt, k)
        failure = None if k == 1 else _paired_distance_audit(source, target, rng)
        if failure is None:
            return source, target
        if failure.empty_in:
            empty[failure.label, failure.empty_in] += 1
    if empty.total() == AUDIT_RETRIES:
        (label, domain), draws = empty.most_common(1)[0]
        raise AuditError(
            f"paired-distance audit failed {AUDIT_RETRIES} times: every draw left a class "
            f"empty, class {label} of the {domain} domain in {draws} of them; raise "
            f"n_per_domain or the {domain} proportion of class {label}"
        )
    raise AuditError(
        f"paired-distance audit failed {AUDIT_RETRIES} times; "
        "increase mean_separation or reduce target_mean_shift"
    )


def resample_with_props(data: Dataset, props: ClassWeights, n: int, seed: int) -> Dataset:
    """Resample within classes to impose the given class proportions.

    Draws with replacement ``round(n * props[c])`` samples per class.
    Every class with positive proportion must be present in the data.
    """
    if data.labels is None:
        raise ValueError("dataset has no labels")
    if props.k != data.k:
        raise ValueError("proportion vector does not match the dataset classes")
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    chunks_x, chunks_y = [], []
    for c, pool in enumerate(class_rows(data.labels, data.k)):
        count = int(round(n * props[c]))
        if count == 0:
            continue
        if pool.size == 0:
            raise ValueError(f"required class {c} absent from the dataset")
        picks = rng.choice(pool, size=count, replace=True)
        chunks_x.append(data.features[picks])
        chunks_y.append(np.full(count, c, dtype=int))
    return Dataset(np.vstack(chunks_x), np.concatenate(chunks_y), data.k)
