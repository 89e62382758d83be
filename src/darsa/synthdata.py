"""Synthetic shifted-class-distribution tasks and dataset plumbing.

Generators for the two-Gaussian one-dimensional task, a K-class
d-dimensional generalization with mismatched class proportions between
domains, and a class-stratified resampler for imposing a target label
distribution on an existing dataset. Everything is seed-driven and
deterministic.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ot
from .weights import ClassWeights, class_rows

# Figure-one style task: two unit-weight-shifted Gaussians per domain.
FIGURE1_SOURCE_MEANS = (-1.5, 1.5)
FIGURE1_SOURCE_WEIGHTS = (0.7, 0.3)
FIGURE1_TARGET_MEANS = (-1.4, 1.6)
FIGURE1_TARGET_WEIGHTS = (0.3, 0.7)

AUDIT_RETRIES = 10
AUDIT_SUBSAMPLE = 200


@dataclass(frozen=True)
class Dataset:
    """A dense feature matrix with optional class labels."""

    features: np.ndarray
    labels: np.ndarray | None
    k: int

    def __post_init__(self):
        features = np.atleast_2d(np.asarray(self.features, dtype=float))
        object.__setattr__(self, "features", features)
        if not np.all(np.isfinite(features)):
            raise ValueError("non-finite feature value")
        if self.k < 1:
            raise ValueError("K must be positive")
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=int).reshape(-1)
            object.__setattr__(self, "labels", labels)
            class_rows(labels, self.k, features.shape[0])  # length and range check

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
    def from_csv(path, k: int | None = None) -> "Dataset":
        path = Path(path)
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"empty CSV file: {path}") from None
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
        features = np.asarray(feats, dtype=float)
        label_arr = np.asarray(labels, dtype=int) if has_label else None
        if k is None:
            k = int(label_arr.max()) + 1 if has_label and label_arr.size else 1
        return Dataset(features, label_arr, k)

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
    comps = tuple(
        ot.GaussianComponent(m, sigma**2 * np.eye(d)) for m in means
    )
    return ot.GaussianMixture(ClassWeights(np.asarray(weights, dtype=float)), comps)


def make_figure1_task(sigma: float, n_per_domain: int, seed: int):
    """The 1-D two-cluster task with flipped cluster weights across domains.

    Source samples come from components at -1.5 and 1.5 with weights 0.7
    and 0.3; target samples from components at -1.4 and 1.6 with weights
    0.3 and 0.7. Labels record the generating component; target labels are
    included for evaluation only.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
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


def _paired_distance_audit(source: "Dataset", target: "Dataset", rng) -> bool:
    """Check per-class cross-domain W1 is smallest on the paired class."""
    k = source.k
    parts_s = [source.features[r] for r in class_rows(source.labels, k)]
    parts_t = [target.features[r] for r in class_rows(target.labels, k)]
    if any(p.shape[0] == 0 for p in parts_s + parts_t):
        return False

    def sub(p):
        if p.shape[0] <= AUDIT_SUBSAMPLE:
            return p
        return p[rng.choice(p.shape[0], AUDIT_SUBSAMPLE, replace=False)]

    parts_s = [sub(p) for p in parts_s]
    parts_t = [sub(p) for p in parts_t]
    dist = ot.w1_matrix(parts_s, parts_t, reg=0.05, max_iter=2000, tol=1e-5)
    for i in range(k):
        others = np.delete(dist[i], i)
        if others.size and dist[i, i] > others.min():
            return False
    return True


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
    if sigma <= 0 or mean_separation <= 0 or target_mean_shift < 0:
        raise ValueError("scale parameters must be positive")
    if source_props.k != k or target_props.k != k:
        raise ValueError("proportion vectors must have length K")
    means_s = _grid_means(k, d, mean_separation)
    for attempt in range(AUDIT_RETRIES):
        rng = np.random.default_rng(seed + 1000 * attempt)
        if target_mean_shift > 0:
            direction = rng.standard_normal(d)
            direction /= np.linalg.norm(direction)
            offset = target_mean_shift * direction
        else:
            offset = np.zeros(d)
        src_mix = _isotropic_mixture(means_s, source_props.w, sigma)
        tgt_mix = _isotropic_mixture(means_s + offset, target_props.w, sigma)
        sub_seed = int(rng.integers(2**31 - 1))
        xs, ys = ot.sample_gmm(src_mix, n_per_domain, sub_seed)
        xt, yt = ot.sample_gmm(tgt_mix, n_per_domain, sub_seed + 1)
        source = Dataset(xs, ys, k)
        target = Dataset(xt, yt, k)
        if k == 1 or _paired_distance_audit(source, target, rng):
            return source, target
    raise RuntimeError(
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
