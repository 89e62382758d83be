"""Optimal-transport distances.

Exact small-scale solvers, a Sinkhorn solver for entropic regularized
transport (stabilized scaling with ε-scaling and adaptive
over-relaxation; a stage opens with one exp pass from the carried
potentials, and with a log-domain sweep only on underflow; large solves
sweep in float32 and finish in float64, and a float32 run that does not
converge starts over as the float64 solve), Gaussian closed forms, and the
mixture-level Wasserstein distance used to compare sub-domain
decompositions.

scipy is imported where a solve needs it, never with the module:
``cdist`` for a cost matrix with two or more columns (a one-column cost is
computed in numpy, with the same bytes), ``logsumexp`` for a Sinkhorn stage
whose opening underflows, and ``linprog`` for the exact discrete solver.

Conventions
-----------
* Empirical clouds are ``(n, d)`` float arrays; the ground cost is always
  the Euclidean norm, so all empirical estimates target Wasserstein-1.
* Probability vectors (marginals and mixture weights) are checked by
  ``weights.as_simplex``, and both solvers check their cost matrix and
  marginals in one place, ``_transport_problem``. Zero-mass atoms are
  allowed; ``sinkhorn`` slices them out before iterating.
* Every solver returns a :class:`TransportPlan`; the reported ``cost`` is
  the transport cost of the returned coupling (the entropy term is never
  included).

All functions are pure and consume caller-supplied seeds, so they are safe
to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .weights import ClassWeights, aligned_classes, as_features, as_parts, as_simplex, class_rows

PSD_TOL = 1e-9
SCALE_EXP = 200  # gaussian_w2, delta_c and w1_exact_1d work in units of 2**k past 2**±this
SCALING_BOUND = 1e20  # sinkhorn absorbs a scaling once |log u| or |log v| > 46
EPS_FACTOR = 4  # sinkhorn's ε-scaling divides reg by this from stage to stage,
EPS_START = 64  # starting at the smallest such reg with max(C)/reg at most this;
STAGE_TOL = 1e-2  # an intermediate stage stops at this L1 residual
TINY = np.finfo(float).tiny  # a kernel row or column summing below this underflowed
F32_TINY = np.finfo(np.float32).tiny  # and a float32 one below this
F32_CELLS = 2**16  # sinkhorn sweeps in float32 on a reduced problem of this many cells
F32_MASS = F32_TINY * SCALING_BOUND  # while every mass is at least this;
F32_FLOOR = 1e-6  # its last stage goes on in float64 from this float32 residual
ROUNDING_FLOOR = 100 * np.finfo(float).eps  # a marginal residual within this is rounding
OMEGA_MAX = 1.8  # sinkhorn over-relaxes its updates by a factor of at most this;
OMEGA_MIN = 1.05  # it sweeps plainly while the factor it estimates is below this,
PLAIN_OPEN = 4  # takes a stage's plain rate from this sweep
PLAIN_WINDOW = 8  # over this many more,
RELAXED_WINDOW = 10  # re-estimates after this many relaxed sweeps,
PAST_OPTIMUM = 0.1  # and goes plain when a relaxed rate is within this of ω - 1


class SinkhornDivergenceError(RuntimeError):
    """Sinkhorn failed to reduce the marginal violation below 100x tol, or below
    ``ROUNDING_FLOOR`` (100x float64's eps) when that is larger."""

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
        with np.errstate(over="ignore"):  # an inf gap is not symmetric either
            gap = np.abs(cov - cov.T).max(initial=0.0)
        if gap > PSD_TOL:
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
        return GaussianMixture(ClassWeights(obj["weights"]), comps)


class SinkhornInfo(NamedTuple):
    iterations: int
    residual: float
    converged: bool
    float32_exit: str  # "float64", "floor" or "restart"; see sinkhorn


class WeightedSubdomainW1(NamedTuple):
    value: float
    skipped: tuple
    per_class: tuple


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------


def _transport_problem(cost_matrix, a, b):
    """``(cost, a, b, max C, min C)``: a finite 2-D cost and marginals of its shape."""
    cost = np.asarray(cost_matrix, dtype=float)
    if cost.ndim != 2:
        raise ValueError("cost matrix must be a finite 2-D array")
    a = as_simplex(a, "marginal a", cost.shape[0])
    b = as_simplex(b, "marginal b", cost.shape[1])
    # max and min propagate NaN, so they check finiteness without an n×m mask.
    top, low = float(cost.max()), float(cost.min())
    if not (math.isfinite(top) and math.isfinite(low)):
        raise ValueError("cost matrix must be a finite 2-D array")
    return cost, a, b, top, low


def _check_solver(reg=0.01, max_iter=5000, tol=1e-6, reg_mode="absolute") -> None:
    """Range checks of a solve's settings (defaults: :func:`w1_empirical`'s).
    ``sinkhorn`` checks its resolved reg here, and the exact one-column terms
    of ``bounds.discrepancy_terms`` the settings that their solves would take."""
    _relative(reg_mode)
    if not 0 < reg < math.inf:
        raise ValueError("reg must be positive and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    if not tol >= 0:
        raise ValueError("tol must be non-negative")


def _relative(reg_mode) -> bool:
    """Whether ``reg_mode`` is ``"relative"``; a mode but it and ``"absolute"`` raises."""
    if reg_mode not in ("absolute", "relative"):
        raise ValueError(f"unknown reg_mode {reg_mode!r}")
    return reg_mode == "relative"


def _plan(coupling, a, b, cost) -> TransportPlan:
    """The plan of a coupling and its transport cost ⟨coupling, cost⟩."""
    return TransportPlan(coupling, a, b, float(np.einsum("ij,ij->", coupling, cost)))


def euclidean_cost_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances between rows of two clouds. One column
    is computed in numpy as ``cdist`` computes it, ``sqrt(0 + d*d)``, so the
    bytes are ``cdist``'s (an overflow to inf included) and scipy is not
    loaded; more columns go to ``cdist``."""
    x = as_features(x, "x")
    y = as_features(y, "y", x.shape[1])
    if x.shape[1] == 1:
        with np.errstate(over="ignore"):
            cost = np.subtract(x, y.T)
            np.multiply(cost, cost, out=cost)
            return np.sqrt(cost, out=cost)
    from scipy.spatial.distance import cdist  # slow to import; a 1-D cost does without it
    return cdist(x, y)


# ---------------------------------------------------------------------------
# Exact solvers
# ---------------------------------------------------------------------------


def w1_exact_1d(samples_a, samples_b) -> float:
    """Exact Wasserstein-1 distance between two 1-D empirical distributions.

    Integrates ``|F - G|`` between the two empirical CDFs over the merged
    sorted samples, which is exact for any pair of sample counts, in units
    of ``2**_scale_exp(max |x|)``. A W1 past float64's range raises, as does
    a cloud with more than one column.
    """
    a, b = (as_features(np.reshape(x, (-1, 1)) if np.ndim(x) < 2 else x, name)
            for x, name in ((samples_a, "samples_a"), (samples_b, "samples_b")))
    if a.shape[1] != 1 or b.shape[1] != 1:
        raise ValueError("exact1d requires one-dimensional clouds")
    if not (a.size and b.size):
        raise ValueError("empty sample set")
    a, b = np.sort(a.reshape(-1)), np.sort(b.reshape(-1))
    grid = np.sort(np.concatenate([a, b]))
    cdf_a = np.searchsorted(a, grid[:-1], side="right") / a.size
    cdf_b = np.searchsorted(b, grid[:-1], side="right") / b.size
    k = _scale_exp(max(-grid[0], grid[-1]))
    return _unscale(np.sum(np.abs(cdf_a - cdf_b) * np.diff(np.ldexp(grid, -k))), k, "W1")


def ot_exact_discrete(cost_matrix, a, b) -> TransportPlan:
    """Exact discrete optimal transport for small instances.

    Solves the transport linear program with an exact simplex-type solver.
    Intended as the ground-truth oracle against which the entropic solver
    is validated; instances are capped at 64 atoms per side.
    """
    cost, a, b, _, _ = _transport_problem(cost_matrix, a, b)
    n, m = cost.shape
    if n > 64 or m > 64:
        raise ValueError(f"instance too large for exact solver: {n}x{m}")

    from scipy.optimize import linprog  # slow to import, and only this solver uses it
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
    return _plan(np.maximum(res.x.reshape(n, m), 0.0), a, b, cost)


# ---------------------------------------------------------------------------
# Entropic solver
# ---------------------------------------------------------------------------


def _fill_kernel(kernel, cost, reg, f=None, g=None) -> None:
    """Write ``K = exp(f + -C/reg + g)`` into ``kernel`` in one exp pass;
    without potentials, ``K = exp(-C/reg)``. The potentials are cast to the
    kernel's dtype first, which is cheaper than a mixed-dtype add. A
    float32 ``K`` has its subnormal entries set to zero (:func:`_flush`)."""
    np.divide(cost, -reg, out=kernel)
    if f is not None:
        kernel += f.astype(kernel.dtype, copy=False)[:, None]
        kernel += g.astype(kernel.dtype, copy=False)
    np.exp(kernel, out=kernel)
    if kernel.dtype == np.float32:
        _flush(kernel)


def _flush(kernel) -> None:
    """Set the subnormal entries (below ``F32_TINY``) of a nonnegative
    float32 ``kernel`` to zero, in blocks, so that no n×m mask is made. A
    matrix-vector product over subnormal float32 entries runs several times
    slower than over normal ones (a 600×600 solve at max(C)/reg 843 took
    0.69 s against 0.03 s flushed), and a row or column made only of them
    has lost its precision, so the underflow test should see it as zero.
    As int32, a nonnegative float32 is subnormal exactly when it is below
    2**23."""
    block = 2**16
    bits = kernel.ravel(order="K").view(np.int32)
    normal = np.empty(min(block, bits.size), dtype=bool)
    for lo in range(0, bits.size, block):
        chunk = bits[lo : lo + block]
        mask = normal[: chunk.size]
        np.greater_equal(chunk, 1 << 23, out=mask)
        chunk *= mask


def _sweep_arrays(buffer, a, b, dtype, scalings=None):
    """The kernel and the per-sweep vectors of a ``sinkhorn`` solve in
    ``dtype``: K over ``buffer`` (the plan's n×m float64 array; a float32 K
    takes the first half of its bytes, in its memory order), its transpose
    view, the marginals, u and v in one vector (so that a test takes two
    reductions), K v, Kᵀ u, the plan's row sums, and scratch vectors for the
    residual and the updates. The floor hand-over carries ``scalings`` (u
    and v) over from float32."""
    n, m = buffer.shape
    kernel = buffer
    if dtype is np.float32:
        strides = [stride // 2 for stride in buffer.strides]
        kernel = np.ndarray(buffer.shape, dtype, buffer, strides=strides)
    scalings = np.empty(n + m, dtype) if scalings is None else scalings.astype(dtype)
    a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
    return (
        kernel, kernel.T, a, b, scalings, scalings[:n], scalings[n:],
        *(np.empty(n, dtype) for _ in range(3)), *(np.empty(m, dtype) for _ in range(2)),
    )


def _widen(buffer) -> None:
    """Widen the float32 array in the first half of ``buffer``'s bytes to
    float64 over all of them, in place. Element k moves from byte 4k to byte
    8k, so the blocks ``[lo, hi)`` go backwards with ``lo = ceil(hi / 2)``:
    a block's float64 bytes start at or past the end of the float32 bytes
    not yet read, and no temporary is made."""
    wide = buffer.ravel(order="K")
    narrow = wide.view(np.float32)
    hi = wide.size
    while hi > 1:
        lo = (hi + 1) // 2
        wide[lo:hi] = narrow[lo:hi]
        hi = lo
    wide[0] = narrow[0]


def _next_omega(omega, rate) -> float:
    """The over-relaxation factor of ``sinkhorn`` after a window of sweeps
    at ``omega`` whose residual fell by the factor ``rate`` per sweep.

    The plain iteration's contraction rate θ is ``rate`` itself after plain
    sweeps; after relaxed ones it follows from Young's relation between θ,
    ω and the relaxed rate ρ, θ = (ρ + ω − 1)² / (ω² ρ). The factor is then
    raised to the optimum ω* = 2 / (1 + √(1 − θ)) (Lehmann et al., Optim.
    Lett. 2022), at most ``OMEGA_MAX``. A plain window whose residual did
    not fall, or whose optimum is below ``OMEGA_MIN``, stays plain.

    A relaxed window returns to plain sweeps when its residual did not fall,
    or fell at a rate within ``PAST_OPTIMUM`` of ω − 1. Young's relation
    gives ρ ≥ ω − 1 for every θ, with equality once ω is at or past the
    optimum, so such a rate says only that ω is at or past the optimum,
    not how far; the plain window that follows measures θ again. This is what ends the
    overshoot when a stage relaxes a stalled residual (mass still moving
    between far clusters) just before the stall ends.
    """
    if omega == 1.0:
        theta = rate
    elif not omega - 1.0 + PAST_OPTIMUM <= rate < 1.0:
        return 1.0
    else:
        theta = (rate + omega - 1.0) ** 2 / (omega * omega * rate)
    if not 0.0 <= theta < 1.0:
        return omega
    best = min(2.0 / (1.0 + math.sqrt(1.0 - theta)), OMEGA_MAX)
    return best if best > omega and best >= OMEGA_MIN else omega


def _sweeps(buffer, cost_r, a_r, b_r, reg, top, max_iter, tol, dtype):
    """The ε-scaling stages of ``sinkhorn`` on the reduced problem (largest
    cost ``top``) in ``dtype``: ``(u, v, iterations, residual, converged)``,
    with the float64 kernel K in ``buffer`` (the plan is u K v). A float32
    run returns None unless it converges, and stops where a float64 one
    rebuilds K (an absorption, or an opening with a row or column underflowing)."""
    # ε-scaling: solve first at reg * EPS_FACTOR**stages, where C/reg is at
    # most EPS_START, then anneal toward reg, each stage starting from the
    # previous stage's potentials. Every stage needs its opening sweep, so
    # the schedule is cut to fit max_iter.
    stages = 0
    while top > EPS_START * reg * EPS_FACTOR**stages and stages < max_iter - 1:
        stages += 1

    f, g = np.zeros(a_r.size), np.zeros(b_r.size)
    single = dtype is np.float32
    (kernel, kernel_t, a_s, b_s, scalings, u, v, kv, row, diff, kt_u, col) = _sweep_arrays(
        buffer, a_r, b_r, dtype
    )
    tiny = F32_TINY if single else TINY
    one = np.float64(1.0)  # a float32 scaling's reciprocal in float64 cannot overflow
    iterations, residual = 0, None
    for stage in range(stages, -1, -1):
        stage_reg = reg * EPS_FACTOR**stage
        # The stage opens on the kernel of the carried potentials, built in
        # one exp pass (the top stage's are zero), with a sweep from
        # u = v = 1 that has no residual check before it; the loop's first
        # pass finishes that sweep.
        if stage == stages:
            _fill_kernel(kernel, cost_r, stage_reg)
        else:
            _fill_kernel(kernel, cost_r, stage_reg, f, g)
        kernel.sum(axis=1, out=kv)
        underflow = kv.min() < tiny
        if not underflow:
            np.divide(a_s, kv, out=u)
            kernel_t.dot(u, out=kt_u)
            underflow = kt_u.min() < tiny
        if underflow:
            # A kernel row or column underflowed (atoms of tiny mass, or a
            # float32 exponent past its range): run the opening sweep on
            # log-domain potentials instead.
            if single:
                return None
            from scipy.special import logsumexp  # slow to import, and only needed here
            scaled = cost_r / -stage_reg
            f = np.log(a_r) - logsumexp(scaled + g, axis=1)
            g = np.log(b_r) - logsumexp(scaled + f[:, None], axis=0)
            _fill_kernel(kernel, cost_r, stage_reg, f, g)
            u.fill(1.0)
            kernel.sum(axis=0, out=kt_u)
        stage_tol = max(tol, STAGE_TOL) if stage else tol
        converged = False
        # Over-relaxation: each stage starts plain, and the factor is set
        # from the residual's rate over windows of sweeps (_next_omega).
        omega, relaxed = 1.0, False  # relaxed: v-updates relaxed, columns not exact
        probe, ref, window = iterations + PLAIN_OPEN, None, 0
        while True:
            # Leave one sweep for the opening of each stage still to come;
            # the sweep that spends the last of the budget updates v plainly,
            # so the plan it leaves has exact columns.
            last = iterations + 1 >= max_iter - stage
            if relaxed and not last:
                np.multiply(v, kt_u, out=col)
                np.divide(b_s, col, out=col)
                v *= np.power(col, omega, out=col)
            else:
                np.divide(b_s, kt_u, out=v)
            iterations += 1
            if max(scalings.max(), one / scalings.min()) > SCALING_BOUND:
                if single:
                    return None
                f += np.log(u)
                g += np.log(v)
                _fill_kernel(kernel, cost_r, stage_reg, f, g)
                kt_u *= v  # v Kᵀu stays the plan's column sums
                scalings.fill(1.0)
            if last:
                break
            while True:
                kernel.dot(v, out=kv)
                np.multiply(u, kv, out=row)
                # The L1 violation of the current plan. Its columns are exact
                # after a plain v-update, and counted only once the rows are
                # within tol after a relaxed one. A float32 residual stops at
                # the floor of its own noise.
                stop = max(stage_tol, F32_FLOOR) if single else stage_tol
                np.subtract(row, a_s, out=diff)
                residual = float(np.abs(diff, out=diff).sum())
                if residual <= stop and relaxed:
                    np.multiply(v, kt_u, out=col)
                    np.subtract(col, b_s, out=col)
                    residual += float(np.abs(col, out=col).sum())
                if residual > stop or stage or not single:
                    break
                # The last stage's float32 residual reached its floor: widen
                # the kernel and measure the same plan in float64, columns
                # included (a float32 v-update made them exact in float32
                # only); float64 sweeps go on from it to tol.
                _widen(buffer)
                (kernel, kernel_t, a_s, b_s, scalings, u, v, kv, row, diff, kt_u, col) = (
                    _sweep_arrays(buffer, a_r, b_r, float, scalings)
                )
                kernel_t.dot(u, out=kt_u)
                single, relaxed = False, True
            if residual <= stop:
                converged = True
                break
            if iterations == probe:
                # A window closes: set ω from its rate, then open the next.
                if ref is not None:
                    omega = _next_omega(omega, (residual / ref) ** (1.0 / window))
                if omega != 1.0:
                    ref, window = residual, RELAXED_WINDOW
                elif ref is None:
                    ref, window = residual, PLAIN_WINDOW
                else:
                    ref, window = None, PLAIN_OPEN
                probe = iterations + window
            if omega == 1.0:
                np.divide(a_s, kv, out=u)
            else:
                np.divide(a_s, row, out=diff)
                u *= np.power(diff, omega, out=diff)
            kernel_t.dot(u, out=kt_u)
            relaxed = omega != 1.0
        if stage:
            # The potentials are in units of the stage's reg.
            f = (f + np.log(u)) * EPS_FACTOR
            g = (g + np.log(v)) * EPS_FACTOR

    if dtype is np.float32 and not converged:
        return None
    return u, v, iterations, residual, converged


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
    iteration stable for small ``reg``; every sweep is tested for it.

    Slow stages are over-relaxed (Thibault et al., arXiv:1711.01851):
    ``u ← u (a / (u K v))^ω`` and ``v ← v (b / (v Kᵀ u))^ω``. Each stage
    starts plain (ω = 1). At its 12th sweep the plain rate is taken as
    θ = (r₁₂ / r₄)^(1/8) from the residuals, and ω set to Young's optimum
    2 / (1 + √(1 − θ)), at most ``OMEGA_MAX``; below ``OMEGA_MIN`` the
    stage stays plain and estimates again 12 sweeps on. Every 10 relaxed
    sweeps the rate ρ over them is measured: if the residual did not fall,
    or fell at a rate within ``PAST_OPTIMUM`` of ω − 1 (ω at or past its
    optimum), the stage returns to plain sweeps and estimates afresh;
    otherwise θ is recovered from ρ by Young's relation and ω raised if
    θ's optimum is larger (:func:`_next_omega`). After a relaxed v-update
    the columns are no longer exact, so the residual then counts rows and
    columns of the current plan, the columns once the rows alone are within
    tol.

    When ``max(C)/reg`` exceeds ``EPS_START``, the solve is annealed
    (ε-scaling; Schmitzer 2019, Feydy et al. 2019): it starts at
    ``reg * EPS_FACTOR**s``, the smallest such reg with ``max(C)/reg`` at
    most ``EPS_START``, and divides reg by ``EPS_FACTOR`` per stage down to
    ``reg``, each stage warm-started from the previous stage's potentials:
    it opens by building ``K`` from them in one exp pass, and runs its first
    sweep on log-domain potentials only if a row or column of that ``K``
    underflows. An intermediate stage stops at residual ``max(tol,
    STAGE_TOL)``. The stages share the ``max_iter`` budget:
    ``SinkhornInfo.iterations`` counts every sweep of every stage, each
    stage's opening sweep included, and never exceeds ``max_iter``.
    ``residual`` and ``converged`` describe the final stage, at ``reg``.

    Large solves sweep in float32, which halves the memory traffic of each
    matrix-vector product. When the reduced problem has at least
    ``F32_CELLS`` cells, every positive mass is at least ``F32_MASS``
    (float32's tiny times ``SCALING_BOUND``, so that ``K v`` and ``Kᵀ u``
    stay normal float32 numbers while the scalings are within their bound)
    and ``tol`` is at least ``ROUNDING_FLOOR`` (a float32 run could not
    meet a smaller one, and would start over after its whole budget), the
    kernel, the scalings, the per-sweep vectors and the marginals used in
    the sweeps are float32; the cost, the potentials, the plan and its
    cost stay float64. The float32 kernel sits in the first half of the
    float64 buffer that becomes the plan, so no n×m array is added, and its
    subnormal entries are set to zero. The final stage's float32 sweeps
    stop at residual ``max(tol, F32_FLOOR)``; the kernel is then widened in
    place and float64 sweeps go on from that plan to ``tol``. Float32 work
    is kept only when the solve converges: any other float32 run (one that
    would rebuild the kernel, runs out of ``max_iter``, or does not reach
    ``tol`` after the floor) starts over as the float64 solve, byte for
    byte, with the whole ``max_iter``. So a float32-eligible solve either
    converges, or returns or raises exactly as the float64 solve does.
    Smaller solves run in float64 throughout. ``SinkhornInfo.float32_exit``
    says which: ``"float64"`` (never swept in float32), ``"floor"`` (float32
    to the floor hand-over, then converged in float64) or ``"restart"``.

    A cost with negative entries is solved as ``C - min(C)``, which has the
    same plans. Returns the coupling as a :class:`TransportPlan`; the
    reported cost is its transport cost against ``C``, excluding the
    entropy term. With ``return_info=True`` a ``(plan, SinkhornInfo)``
    pair is returned.

    Raises
    ------
    ValueError
        If the cost is not a finite 2-D array, a marginal is not a
        probability vector of its length (``_transport_problem``), or reg,
        ``max_iter`` or ``tol`` is out of range.
    SinkhornDivergenceError
        If ``max_iter`` is reached with a marginal violation above
        ``max(100 * tol, ROUNDING_FLOOR)``. A violation within
        ``ROUNDING_FLOOR`` (100 times float64's eps) is rounding, so a tol
        below it returns unconverged.
    """
    cost, a, b, top, low = _transport_problem(cost_matrix, a, b)
    n, m = cost.shape
    # Checked after the cost: a relative reg resolved against a NaN cost is NaN.
    _check_solver(reg, max_iter, tol)
    # The ε-schedule starts from the cost's span max(C) - min(min(C), 0) over
    # reg; in Python floats an overflow of either gives inf, without a warning.
    if not math.isfinite((top - min(low, 0.0)) / float(reg)):
        raise ValueError("cost range over reg overflows float64")

    # Zero-mass atoms receive zero plan rows/columns; solve the reduced
    # problem so that every scaling and potential stays finite.
    rows = np.flatnonzero(a > 0)
    cols = np.flatnonzero(b > 0)
    full = rows.size == n and cols.size == m
    if full:
        cost_r, a_r, b_r = cost, a, b
    else:
        cost_r, a_r, b_r = cost[np.ix_(rows, cols)], a[rows], b[cols]
        top = float(cost_r.max())
    if low < 0:
        # A shift of the cost leaves every plan as it is; solve on C ≥ 0.
        cost_r = cost_r - low
        top = float(cost_r.max())

    # The reduced plan's buffer is the solve's one array of its size. A
    # large solve whose masses are all at least F32_MASS sweeps in float32,
    # its kernel in the first half of the buffer, unless it starts over; one
    # at a tol below ROUNDING_FLOOR, which float32 sweeps cannot meet, does not.
    buffer = np.empty_like(cost_r)
    solve = (buffer, cost_r, a_r, b_r, reg, top, max_iter, tol)
    single = (tol >= ROUNDING_FLOOR and cost_r.size >= F32_CELLS
              and min(a_r.min(), b_r.min()) >= F32_MASS)
    solved = single and _sweeps(*solve, np.float32)
    u, v, iterations, residual, converged = solved or _sweeps(*solve, float)
    coupling = buffer
    coupling *= u[:, None]
    coupling *= v
    if not full:
        coupling = np.zeros((n, m))
        coupling[np.ix_(rows, cols)] = buffer
    plan = _plan(coupling, a, b, cost)
    if not converged:
        residual = plan.marginal_residual()
        if not residual <= max(100 * tol, ROUNDING_FLOOR):  # NaN included
            raise SinkhornDivergenceError(residual, iterations)
    if return_info:
        float32_exit = "floor" if solved else "restart" if single else "float64"
        return plan, SinkhornInfo(iterations, residual, converged, float32_exit)
    return plan


def effective_reg(cost: np.ndarray, reg: float, reg_mode: str) -> float:
    """Resolve a regularization strength against a cost matrix.

    ``absolute`` uses ``reg`` as-is; ``relative`` scales it by the mean
    entry of the cost matrix, which makes the entropic blur proportional
    to the typical pair distance and keeps the solver well-conditioned
    whatever the data scale. The mean (rather than a quantile) stays on
    the dominant scale when the cost distribution is multimodal.
    """
    if not _relative(reg_mode):
        return reg
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
    arguments: the pair is put in a canonical order before solving (by
    shape, then by the first value in which the clouds differ), and the
    transport cost is invariant under transposing the plan.
    """
    x, y = as_features(x, "x"), as_features(y, "y")
    if not (x.size and y.size):
        raise ValueError("empty sample set")
    first = np.flatnonzero(x != y)[:1] if x.shape == y.shape else []
    if (y.shape, list(y.flat[first])) < (x.shape, list(x.flat[first])):
        x, y = y, x
    plan, _, _ = uniform_plan(x, y, reg, max_iter, tol, reg_mode)
    return plan.cost


def _pair_table(items_a, items_b, distance) -> np.ndarray:
    """``distance(x, y)`` from every item of ``items_a`` (rows) to every
    item of ``items_b`` (columns), filled row by row."""
    dist = np.zeros((len(items_a), len(items_b)))
    for i, x in enumerate(items_a):
        for j, y in enumerate(items_b):
            dist[i, j] = distance(x, y)
    return dist


# ---------------------------------------------------------------------------
# Gaussian closed forms and mixtures
# ---------------------------------------------------------------------------


def _spd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition. Negative
    eigenvalues count as zero: the callers pass validated covariances, whose
    negative eigenvalues are within ``PSD_TOL``, or products of them."""
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def _scale_exp(scale: float) -> int:
    """The power of two in whose units a problem of this scale is solved, exactly:
    the exponent of ``scale`` if past ``2**±SCALE_EXP``, else 0."""
    k = math.frexp(scale)[1]
    return k if abs(k) > SCALE_EXP else 0


def _unscale(value, k: int, what: str) -> float:
    """``value`` in units of ``2**k`` back in float64; past its range raises."""
    with np.errstate(over="ignore"):
        value = float(np.ldexp(value, k))
    if not math.isfinite(value):
        raise ValueError(f"{what} overflows float64")
    return value


def gaussian_w2(p: GaussianComponent, q: GaussianComponent) -> float:
    """Closed-form W2 between two Gaussians (Bures metric on covariances).

    W2^2 = |m1 - m2|^2 + tr(S1 + S2 - 2 (S1^{1/2} S2 S1^{1/2})^{1/2}).
    By Jensen's inequality this upper-bounds W1, which is how it is used
    inside the analytic mixture distance.

    W2 scales with the mean gap and the covariances' square roots, so a pair
    whose larger scale is past ``2**±SCALE_EXP`` is solved in units of the
    power of two at that scale, where its products neither overflow nor
    underflow; other pairs are solved as given. Negative eigenvalues of the
    cross term count as zero, so the value is the same in either order.
    A W2 past float64's range raises.
    """
    if p.dim != q.dim:
        raise ValueError("dimension mismatch between Gaussians")
    with np.errstate(over="ignore"):  # a mean gap past float64 raises below
        diff = p.mean - q.mean
    cov_top = max(np.abs(c.covariance).max(initial=0.0) for c in (p, q))
    k = _scale_exp(max(np.abs(diff).max(initial=0.0), math.sqrt(cov_top)))
    diff = np.ldexp(diff, -k)
    cov_p, cov_q = np.ldexp(p.covariance, -2 * k), np.ldexp(q.covariance, -2 * k)
    mean_sq = float(np.sum(diff**2))
    root_p = _spd_sqrt(cov_p)
    cross = _spd_sqrt(root_p @ cov_q @ root_p)
    bures = float(np.trace(cov_p) + np.trace(cov_q) - 2.0 * np.trace(cross))
    return _unscale(np.sqrt(max(mean_sq + bures, 0.0)), k, "W2 between the Gaussians")


def sample_gaussian(comp: GaussianComponent, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n samples from one Gaussian component. A covariance whose
    scale is past ``2**±SCALE_EXP`` is factored in units of that power of two,
    as in :func:`gaussian_w2`."""
    k = _scale_exp(math.sqrt(np.abs(comp.covariance).max(initial=0.0)))
    cov = np.ldexp(comp.covariance, -2 * k)
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        # Singular but PSD covariances (validated at construction) still
        # need a factor; fall back to the eigendecomposition root.
        factor = _spd_sqrt(cov)
    factor = np.ldexp(factor, k)
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
    deterministic); ``sampled`` draws ``n_samples`` (at least 1) per component
    and runs the entropic solver on each pair, reusing one cloud per component.
    """
    if mix_s.dim != mix_t.dim:
        raise ValueError("dimension mismatch between mixtures")
    if pairwise == "analytic":
        return _pair_table(mix_s.components, mix_t.components, gaussian_w2)
    if pairwise != "sampled":
        raise ValueError(f"unknown pairwise mode {pairwise!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(seed)
    clouds_s = [sample_gaussian(c, n_samples, rng) for c in mix_s.components]
    clouds_t = [sample_gaussian(c, n_samples, rng) for c in mix_t.components]
    return _pair_table(clouds_s, clouds_t,
                       lambda x, y: w1_empirical(x, y, reg, max_iter, tol, reg_mode))


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
    miss classes, so this is not an error unless every pair is empty. The
    non-empty parts of both lists share one feature space.
    """
    return _subdomain_sum(
        source_parts, target_parts, w_t,
        lambda xs, xt: w1_empirical(xs, xt, reg, max_iter, tol, reg_mode),
    )


def _subdomain_sum(source_parts, target_parts, w_t, distance) -> WeightedSubdomainW1:
    """:func:`weighted_subdomain_w1` with ``distance(xs, xt)`` as each pair's
    W1: ``bounds.discrepancy_terms`` passes :func:`w1_exact_1d` on one column."""
    if len(source_parts) != w_t.k:
        raise ValueError("weights do not match the number of sub-domains")
    source_parts, d = as_parts(source_parts, "source_parts")
    target_parts = as_parts(target_parts, "target_parts", d)[0]
    aligned, skipped = aligned_classes(source_parts, target_parts)
    if not aligned:
        raise ValueError("no aligned sub-domains")
    total = 0.0
    per_class = [0.0] * w_t.k
    for k in aligned:
        per_class[k] = distance(source_parts[k], target_parts[k])
        total += w_t[k] * per_class[k]
    return WeightedSubdomainW1(float(total), skipped, tuple(per_class))
