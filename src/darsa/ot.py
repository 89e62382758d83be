"""Optimal-transport distances.

Exact small-scale solvers, a Sinkhorn solver for entropic regularized
transport (stabilized scaling with ε-scaling), Gaussian closed forms,
and the mixture-level Wasserstein distance used to compare sub-domain
decompositions.

Conventions
-----------
* Empirical clouds are ``(n, d)`` float arrays; the ground cost is always
  the Euclidean norm, so all empirical estimates target Wasserstein-1.
* Probability vectors must sum to one. Zero-mass atoms are allowed and are
  sliced out before iterating.
* Every solver returns a :class:`TransportPlan`; the reported ``cost`` is
  the transport cost of the returned coupling (the entropy term is never
  included).

All functions are pure and consume caller-supplied seeds, so they are safe
to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.spatial.distance import cdist

from .weights import ClassWeights, class_rows

MARGINAL_TOL = 1e-9
PSD_TOL = 1e-9
SCALING_BOUND = 1e20  # sinkhorn absorbs a scaling once |log u| or |log v| > 46
EPS_FACTOR = 4  # sinkhorn's ε-scaling divides reg by this from stage to stage,
EPS_START = 64  # starting at the smallest such reg with max(C)/reg at most this;
STAGE_TOL = 1e-2  # an intermediate stage stops at this L1 residual


class SinkhornDivergenceError(RuntimeError):
    """Sinkhorn failed to reduce the marginal violation below 100x tol."""

    def __init__(self, residual: float, iterations: int):
        self.residual = float(residual)
        self.iterations = int(iterations)
        super().__init__(
            f"sinkhorn diverged: marginal residual {residual:.3e} "
            f"after {iterations} iterations"
        )


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransportPlan:
    """A coupling between two discrete distributions and its transport cost.

    Attributes
    ----------
    coupling : (n, m) array
        Nonnegative matrix whose row sums match ``row_marginal`` and column
        sums match ``col_marginal`` (within the solver's tolerance).
    row_marginal, col_marginal : arrays
        The marginals the plan was solved against.
    cost : float
        Frobenius inner product of the coupling with the cost matrix it was
        solved against.
    """

    coupling: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray
    cost: float

    def marginal_residual(self) -> float:
        """L1 violation of both marginal constraints."""
        row_err = np.abs(self.coupling.sum(axis=1) - self.row_marginal).sum()
        col_err = np.abs(self.coupling.sum(axis=0) - self.col_marginal).sum()
        return float(row_err + col_err)


@dataclass(frozen=True)
class GaussianComponent:
    """A single Gaussian: mean vector and symmetric PSD covariance."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.covariance, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        d = mean.size
        if cov.shape != (d, d):
            raise ValueError(f"covariance shape {cov.shape} does not match dim {d}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("non-finite value in Gaussian parameters")
        if np.abs(cov - cov.T).max(initial=0.0) > PSD_TOL:
            raise ValueError("covariance not symmetric")
        if np.linalg.eigvalsh(cov).min(initial=0.0) < -PSD_TOL:
            raise ValueError("covariance not positive semi-definite")

    @property
    def dim(self) -> int:
        return int(self.mean.size)


@dataclass(frozen=True)
class GaussianMixture:
    """Mixture of Gaussians sharing one ambient dimension."""

    weights: ClassWeights
    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) != self.weights.k:
            raise ValueError("weights and components disagree on K")
        dims = {c.dim for c in comps}
        if len(dims) != 1:
            raise ValueError("components must share one dimension")

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.w.tolist(),
            "components": [
                {"mean": c.mean.tolist(), "covariance": c.covariance.tolist()}
                for c in self.components
            ],
        }

    @staticmethod
    def from_dict(obj: dict) -> "GaussianMixture":
        comps = tuple(
            GaussianComponent(np.asarray(c["mean"]), np.asarray(c["covariance"]))
            for c in obj["components"]
        )
        return GaussianMixture(ClassWeights(np.asarray(obj["weights"])), comps)


class SinkhornInfo(NamedTuple):
    iterations: int
    residual: float
    converged: bool


class WeightedSubdomainW1(NamedTuple):
    value: float
    skipped: tuple
    per_class: tuple


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------


def _as_samples(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample set")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"non-finite value in {name}")
    return x


def _check_marginal(p, n: int, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=float).reshape(-1)
    if p.size != n:
        raise ValueError(f"invalid marginals: {name} has length {p.size}, expected {n}")
    if np.any(p < -MARGINAL_TOL) or abs(float(p.sum()) - 1.0) > MARGINAL_TOL:
        raise ValueError(f"invalid marginals: {name} is not a probability vector")
    return np.maximum(p, 0.0)


def euclidean_cost_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances between rows of two clouds."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[1] != y.shape[1]:
        raise ValueError("dimension mismatch between clouds")
    return cdist(x, y)


# ---------------------------------------------------------------------------
# Exact solvers
# ---------------------------------------------------------------------------


def w1_exact_1d(samples_a, samples_b) -> float:
    """Exact Wasserstein-1 distance between two 1-D empirical distributions.

    Integrates ``|F - G|`` between the two empirical CDFs over the merged
    sorted samples, which is exact for any pair of sample counts.
    """
    a = np.sort(_as_samples(samples_a, "samples_a").reshape(-1))
    b = np.sort(_as_samples(samples_b, "samples_b").reshape(-1))
    grid = np.sort(np.concatenate([a, b]))
    cdf_a = np.searchsorted(a, grid[:-1], side="right") / a.size
    cdf_b = np.searchsorted(b, grid[:-1], side="right") / b.size
    return float(np.sum(np.abs(cdf_a - cdf_b) * np.diff(grid)))


def ot_exact_discrete(cost_matrix, a, b) -> TransportPlan:
    """Exact discrete optimal transport for small instances.

    Solves the transport linear program with an exact simplex-type solver.
    Intended as the ground-truth oracle against which the entropic solver
    is validated; instances are capped at 64 atoms per side.
    """
    cost = np.asarray(cost_matrix, dtype=float)
    if cost.ndim != 2:
        raise ValueError("cost matrix must be 2-D")
    n, m = cost.shape
    if n > 64 or m > 64:
        raise ValueError(f"instance too large for exact solver: {n}x{m}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("non-finite value in cost matrix")
    a = _check_marginal(a, n, "a")
    b = _check_marginal(b, m, "b")

    # Row-sum and column-sum equality constraints over the flattened plan.
    # One constraint is redundant; HiGHS copes without special handling.
    row_eq = np.kron(np.eye(n), np.ones((1, m)))
    col_eq = np.kron(np.ones((1, n)), np.eye(m))
    res = linprog(
        cost.ravel(),
        A_eq=np.vstack([row_eq, col_eq]),
        b_eq=np.concatenate([a, b]),
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"exact transport LP failed: {res.message}")
    coupling = np.maximum(res.x.reshape(n, m), 0.0)
    return TransportPlan(
        coupling=coupling,
        row_marginal=a,
        col_marginal=b,
        cost=float(np.sum(coupling * cost)),
    )


# ---------------------------------------------------------------------------
# Entropic solver
# ---------------------------------------------------------------------------


def sinkhorn(
    cost_matrix,
    a,
    b,
    reg: float,
    max_iter: int = 1000,
    tol: float = 1e-6,
    return_info: bool = False,
):
    """Entropic-regularized optimal transport via stabilized scaling with
    ε-scaling.

    Alternates ``u = a / (K v)`` and ``v = b / (K^T u)`` until the L1
    marginal violation drops below ``tol`` or ``max_iter`` sweeps elapse.
    A scaling that leaves ``[1/SCALING_BOUND, SCALING_BOUND]`` is absorbed
    into the log-domain potentials of ``K = exp(f + -C/reg + g)`` and ``K``
    rebuilt (log-domain absorption; Schmitzer, SISC 2019), which keeps the
    iteration stable for small ``reg``.

    When ``max(C)/reg`` exceeds ``EPS_START``, the solve is annealed
    (ε-scaling; Schmitzer 2019, Feydy et al. 2019): it starts at
    ``reg * EPS_FACTOR**s``, the smallest such reg with ``max(C)/reg`` at
    most ``EPS_START``, and divides reg by ``EPS_FACTOR`` per stage down to
    ``reg``, each stage warm-started from the previous stage's potentials.
    An intermediate stage stops at residual ``max(tol, STAGE_TOL)``. The
    stages share the ``max_iter`` budget: ``SinkhornInfo.iterations`` counts
    every sweep of every stage, each stage's opening log-domain sweep
    included, and never exceeds ``max_iter``. ``residual`` and
    ``converged`` describe the final stage, at ``reg``.

    Returns the coupling as a :class:`TransportPlan`; the reported cost is
    the transport cost of that coupling, excluding the entropy term. With
    ``return_info=True`` a ``(plan, SinkhornInfo)`` pair is returned.

    Raises
    ------
    SinkhornDivergenceError
        If ``max_iter`` is reached with a marginal violation above
        ``100 * tol``.
    """
    if reg <= 0:
        raise ValueError("reg must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    cost = np.asarray(cost_matrix, dtype=float)
    if cost.ndim != 2 or not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be a finite 2-D array")
    n, m = cost.shape
    a = _check_marginal(a, n, "a")
    b = _check_marginal(b, m, "b")

    # Zero-mass atoms receive zero plan rows/columns; solve the reduced
    # problem so that every scaling and potential stays finite.
    rows = np.flatnonzero(a > 0)
    cols = np.flatnonzero(b > 0)
    full = rows.size == n and cols.size == m
    cost_r = cost if full else cost[np.ix_(rows, cols)]
    a_r, b_r = a[rows], b[cols]

    # ε-scaling: solve first at reg * EPS_FACTOR**stages, where C/reg is at
    # most EPS_START, then anneal toward reg, each stage starting from the
    # previous stage's potentials. Every stage needs its opening sweep, so
    # the schedule is cut to fit max_iter.
    stages = 0
    top = float(cost_r.max())
    while top > EPS_START * reg * EPS_FACTOR**stages and stages < max_iter - 1:
        stages += 1

    f, g = np.zeros(rows.size), np.zeros(cols.size)
    kernel = np.empty_like(cost_r)
    iterations = 0
    for stage in range(stages, -1, -1):
        stage_reg = reg * EPS_FACTOR**stage
        stage_tol = max(tol, STAGE_TOL) if stage else tol
        # One log-domain sweep sets the potentials: the kernel's column sums
        # are then b and its row sums at least a_i * min(b), whatever C/reg is.
        np.divide(cost_r, -stage_reg, out=kernel)
        kernel += g
        peak = kernel.max(axis=1)
        kernel -= peak[:, None]
        f = np.log(a_r) - peak - np.log(np.exp(kernel, out=kernel).sum(axis=1))
        np.divide(cost_r, -stage_reg, out=kernel)
        kernel += f[:, None]
        peak = kernel.max(axis=0)
        kernel -= peak
        col_sums = np.exp(kernel, out=kernel).sum(axis=0)
        g = np.log(b_r) - peak - np.log(col_sums)
        kernel *= b_r / col_sums
        iterations += 1

        u, v = np.ones(rows.size), np.ones(cols.size)
        converged = False
        # Leave one sweep for the opening of each stage still to come.
        while iterations < max_iter - stage:
            kv = kernel @ v
            # Row sums of the current plan; columns are exact after each
            # v-update, so this is the full L1 violation.
            residual = float(np.abs(u * kv - a_r).sum())
            if residual <= stage_tol:
                converged = True
                break
            u = a_r / kv
            v = b_r / (kernel.T @ u)
            iterations += 1
            if max(u.max(), v.max(), 1.0 / u.min(), 1.0 / v.min()) > SCALING_BOUND:
                f += np.log(u)
                g += np.log(v)
                np.divide(cost_r, -stage_reg, out=kernel)
                kernel += f[:, None]
                np.exp(np.add(kernel, g, out=kernel), out=kernel)
                u, v = np.ones(rows.size), np.ones(cols.size)
        if stage:
            # The potentials are in units of the stage's reg.
            f = (f + np.log(u)) * EPS_FACTOR
            g = (g + np.log(v)) * EPS_FACTOR

    kernel *= u[:, None]
    kernel *= v
    coupling = kernel
    if not full:
        coupling = np.zeros((n, m))
        coupling[np.ix_(rows, cols)] = kernel
    plan = TransportPlan(
        coupling=coupling,
        row_marginal=a,
        col_marginal=b,
        cost=float(np.sum(coupling * cost)),
    )
    if not converged:
        residual = plan.marginal_residual()
        if residual > 100 * tol:
            raise SinkhornDivergenceError(residual, iterations)
    if return_info:
        return plan, SinkhornInfo(iterations, residual, converged)
    return plan


def effective_reg(cost: np.ndarray, reg: float, reg_mode: str) -> float:
    """Resolve a regularization strength against a cost matrix.

    ``absolute`` uses ``reg`` as-is; ``relative`` scales it by the mean
    entry of the cost matrix, which makes the entropic blur proportional
    to the typical pair distance and keeps the solver well-conditioned
    whatever the data scale. The mean (rather than a quantile) stays on
    the dominant scale when the cost distribution is multimodal.
    """
    if reg_mode == "absolute":
        return reg
    if reg_mode != "relative":
        raise ValueError(f"unknown reg_mode {reg_mode!r}")
    scale = float(cost.mean())
    if not np.isfinite(scale) or scale <= 0:
        scale = max(float(cost.max(initial=0.0)), 1.0)
    return reg * scale


def uniform_plan(x, y, reg: float, max_iter: int, tol: float, reg_mode: str = "absolute"):
    """Entropic transport between two clouds under uniform marginals.

    Builds the Euclidean cost matrix, resolves ``reg`` against it with
    :func:`effective_reg` and solves from ``x`` (rows) to ``y`` (columns).
    Returns ``(plan, cost, info)``: the :class:`TransportPlan`, the cost
    matrix and the :class:`SinkhornInfo`. Raises
    :class:`SinkhornDivergenceError` as :func:`sinkhorn` does.
    """
    cost = euclidean_cost_matrix(x, y)
    n, m = cost.shape
    plan, info = sinkhorn(
        cost,
        np.full(n, 1.0 / n),
        np.full(m, 1.0 / m),
        reg=effective_reg(cost, reg, reg_mode),
        max_iter=max_iter,
        tol=tol,
        return_info=True,
    )
    return plan, cost, info


def w1_empirical(
    x,
    y,
    reg: float = 0.01,
    max_iter: int = 5000,
    tol: float = 1e-6,
    reg_mode: str = "absolute",
) -> float:
    """Entropic estimate of W1 between two point clouds.

    Euclidean ground cost, uniform marginals. Exactly symmetric in its two
    arguments: the pair is put in a canonical order before solving, and the
    transport cost is invariant under transposing the plan.
    """
    x = np.atleast_2d(_as_samples(x, "x"))
    y = np.atleast_2d(_as_samples(y, "y"))
    if (y.shape, y.tobytes()) < (x.shape, x.tobytes()):
        x, y = y, x
    plan, _, _ = uniform_plan(x, y, reg, max_iter, tol, reg_mode)
    return plan.cost


def w1_matrix(clouds_a, clouds_b, reg, max_iter, tol, reg_mode="absolute") -> np.ndarray:
    """:func:`w1_empirical` from every cloud of ``clouds_a`` (rows) to every
    cloud of ``clouds_b`` (columns), solved row by row."""
    dist = np.zeros((len(clouds_a), len(clouds_b)))
    for i, x in enumerate(clouds_a):
        for j, y in enumerate(clouds_b):
            dist[i, j] = w1_empirical(x, y, reg, max_iter, tol, reg_mode)
    return dist


# ---------------------------------------------------------------------------
# Gaussian closed forms and mixtures
# ---------------------------------------------------------------------------


def _spd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition."""
    sym = 0.5 * (mat + mat.T)
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise ValueError("spd sqrt failure") from exc
    scale = max(1.0, float(np.abs(vals).max(initial=0.0)))
    if vals.min(initial=0.0) < -1e-8 * scale:
        raise ValueError("spd sqrt failure: matrix not PSD")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def gaussian_w2(p: GaussianComponent, q: GaussianComponent) -> float:
    """Closed-form W2 between two Gaussians (Bures metric on covariances).

    W2^2 = |m1 - m2|^2 + tr(S1 + S2 - 2 (S1^{1/2} S2 S1^{1/2})^{1/2}).
    By Jensen's inequality this upper-bounds W1, which is how it is used
    inside the analytic mixture distance.
    """
    if p.dim != q.dim:
        raise ValueError("dimension mismatch between Gaussians")
    mean_sq = float(np.sum((p.mean - q.mean) ** 2))
    root_p = _spd_sqrt(p.covariance)
    cross = _spd_sqrt(root_p @ q.covariance @ root_p)
    bures = float(np.trace(p.covariance) + np.trace(q.covariance) - 2.0 * np.trace(cross))
    return float(np.sqrt(max(mean_sq + bures, 0.0)))


def sample_gaussian(comp: GaussianComponent, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n samples from one Gaussian component."""
    try:
        factor = np.linalg.cholesky(comp.covariance)
    except np.linalg.LinAlgError:
        # Singular but PSD covariances (validated at construction) still
        # need a factor; fall back to the eigendecomposition root.
        factor = _spd_sqrt(comp.covariance)
    z = rng.standard_normal((n, comp.dim))
    return comp.mean[None, :] + z @ factor.T


def sample_gmm(mix: GaussianMixture, n: int, seed: int):
    """Ancestral sampling from a Gaussian mixture.

    Returns ``(samples, labels)`` where ``labels[i]`` is the index of the
    component that generated row ``i``. Deterministic given ``seed``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    labels = rng.choice(mix.k, size=n, p=mix.weights.w)
    samples = np.zeros((n, mix.dim))
    for comp, idx in zip(mix.components, class_rows(labels, mix.k)):
        if idx.size:
            samples[idx] = sample_gaussian(comp, idx.size, rng)
    return samples, labels


def pairwise_component_w1(
    mix_s: GaussianMixture,
    mix_t: GaussianMixture,
    pairwise: str = "analytic",
    n_samples: int = 500,
    reg: float = 0.01,
    max_iter: int = 5000,
    tol: float = 1e-6,
    seed: int = 0,
    reg_mode: str = "absolute",
) -> np.ndarray:
    """Matrix of component-to-component W1 estimates between two mixtures.

    ``analytic`` uses the Gaussian W2 closed form (an upper bound on W1 and
    deterministic); ``sampled`` draws ``n_samples`` per component and runs
    the entropic solver on each pair, reusing one cloud per component.
    """
    if mix_s.dim != mix_t.dim:
        raise ValueError("dimension mismatch between mixtures")
    ks, kt = mix_s.k, mix_t.k
    dist = np.zeros((ks, kt))
    if pairwise == "analytic":
        for i in range(ks):
            for j in range(kt):
                dist[i, j] = gaussian_w2(mix_s.components[i], mix_t.components[j])
    elif pairwise == "sampled":
        rng = np.random.default_rng(seed)
        clouds_s = [sample_gaussian(c, n_samples, rng) for c in mix_s.components]
        clouds_t = [sample_gaussian(c, n_samples, rng) for c in mix_t.components]
        dist = w1_matrix(clouds_s, clouds_t, reg, max_iter, tol, reg_mode)
    else:
        raise ValueError(f"unknown pairwise mode {pairwise!r}")
    return dist


def mw1_gmm(
    mix_s: GaussianMixture,
    mix_t: GaussianMixture,
    pairwise: str = "analytic",
    n_samples: int = 500,
    reg: float = 0.01,
    max_iter: int = 5000,
    tol: float = 1e-6,
    seed: int = 0,
    reg_mode: str = "absolute",
):
    """Mixture-level Wasserstein distance between two Gaussian mixtures.

    Transports the mixture weight vectors against the matrix of pairwise
    component distances: the optimum over couplings of the weighted sum of
    component W1 values. Returns ``(value, plan)`` where ``plan`` is the
    optimal K_s x K_t coupling. In analytic mode the pairwise costs are W2
    closed forms, so the value upper-bounds the true mixture distance.
    """
    dist = pairwise_component_w1(
        mix_s, mix_t, pairwise=pairwise, n_samples=n_samples,
        reg=reg, max_iter=max_iter, tol=tol, seed=seed, reg_mode=reg_mode,
    )
    plan = ot_exact_discrete(dist, mix_s.weights.w, mix_t.weights.w)
    return plan.cost, plan


# ---------------------------------------------------------------------------
# Sub-domain discrepancy
# ---------------------------------------------------------------------------


def weighted_subdomain_w1(
    source_parts: Sequence[np.ndarray],
    target_parts: Sequence[np.ndarray],
    w_t: ClassWeights,
    reg: float = 0.01,
    max_iter: int = 5000,
    tol: float = 1e-6,
    reg_mode: str = "absolute",
) -> WeightedSubdomainW1:
    """Target-reweighted sum of paired per-sub-domain W1 estimates.

    Computes ``sum_k w_t[k] * W1(source_parts[k], target_parts[k])``, summed
    in class order, and reports each paired W1 in ``per_class``. A pair with
    an empty side contributes zero, has 0.0 in ``per_class`` and its index
    is reported in ``skipped``; minibatches under label shift routinely
    miss classes, so this is not an error unless every pair is empty.
    """
    if len(source_parts) != len(target_parts):
        raise ValueError("source and target part lists differ in length")
    if len(source_parts) != w_t.k:
        raise ValueError("weights do not match the number of sub-domains")
    total = 0.0
    skipped = []
    per_class = [0.0] * w_t.k
    for k, (xs, xt) in enumerate(zip(source_parts, target_parts)):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        xt = np.atleast_2d(np.asarray(xt, dtype=float))
        if xs.size == 0 or xt.size == 0:
            skipped.append(k)
            continue
        per_class[k] = w1_empirical(
            xs, xt, reg=reg, max_iter=max_iter, tol=tol, reg_mode=reg_mode
        )
        total += w_t[k] * per_class[k]
    if len(skipped) == len(source_parts):
        raise ValueError("no aligned sub-domains")
    return WeightedSubdomainW1(float(total), tuple(skipped), tuple(per_class))
