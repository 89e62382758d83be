"""Tests for the optimal-transport solvers and Gaussian-mixture distances."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.special import logsumexp

from darsa.ot import (
    EPS_FACTOR,
    EPS_START,
    STAGE_TOL,
    GaussianComponent,
    GaussianMixture,
    SinkhornDivergenceError,
    euclidean_cost_matrix,
    gaussian_w2,
    mw1_gmm,
    ot_exact_discrete,
    pairwise_component_w1,
    sample_gmm,
    sinkhorn,
    w1_empirical,
    w1_exact_1d,
    w1_matrix,
    weighted_subdomain_w1,
)
from darsa.weights import ClassWeights
from helpers import bruteforce_ot_cost

FIGURE1_SOURCE = GaussianMixture(
    ClassWeights(np.array([0.7, 0.3])),
    (
        GaussianComponent(np.array([-1.5]), np.array([[0.0025]])),
        GaussianComponent(np.array([1.5]), np.array([[0.0025]])),
    ),
)
FIGURE1_TARGET = GaussianMixture(
    ClassWeights(np.array([0.3, 0.7])),
    (
        GaussianComponent(np.array([-1.4]), np.array([[0.0025]])),
        GaussianComponent(np.array([1.6]), np.array([[0.0025]])),
    ),
)


# ---------------------------------------------------------------------------
# w1_exact_1d
# ---------------------------------------------------------------------------


def test_w1_exact_1d_point_masses():
    assert w1_exact_1d([0.0], [1.0]) == pytest.approx(1.0)


def test_w1_exact_1d_identical_samples():
    assert w1_exact_1d([0.3, -1.2, 5.0], [0.3, -1.2, 5.0]) == 0.0


def test_w1_exact_1d_translation():
    assert w1_exact_1d([0.0, 2.0], [1.0, 3.0]) == pytest.approx(1.0)


def test_w1_exact_1d_errors():
    with pytest.raises(ValueError, match="empty sample set"):
        w1_exact_1d([], [1.0])
    with pytest.raises(ValueError, match="non-finite"):
        w1_exact_1d([0.0, np.nan], [1.0])


def test_w1_exact_1d_unequal_lengths_symmetric():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=37), rng.normal(size=61) + 0.5
    assert w1_exact_1d(a, b) == w1_exact_1d(b, a)
    assert w1_exact_1d(a, a[:20]) >= 0.0


@pytest.mark.parametrize("n, m, seed", [(3, 2, 0), (7, 4, 1), (5, 12, 2)])
def test_w1_exact_1d_matches_lp_for_unequal_counts(n, m, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=n), rng.normal(size=m)
    plan = ot_exact_discrete(
        np.abs(a[:, None] - b[None, :]), np.full(n, 1.0 / n), np.full(m, 1.0 / m)
    )
    assert w1_exact_1d(a, b) == pytest.approx(plan.cost, abs=1e-12)


# ---------------------------------------------------------------------------
# ot_exact_discrete
# ---------------------------------------------------------------------------


def test_exact_diagonal_matching():
    plan = ot_exact_discrete([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
    assert plan.cost == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(plan.coupling, np.diag([0.5, 0.5]))


def test_exact_single_cell():
    plan = ot_exact_discrete([[3.7]], [1.0], [1.0])
    assert np.allclose(plan.coupling, [[1.0]])
    assert plan.cost == pytest.approx(3.7)


def test_exact_matches_assignment_oracle():
    # Uniform square instances reduce to assignment problems, giving an
    # independent exact oracle.
    rng = np.random.default_rng(1)
    for _ in range(5):
        cost = rng.random((5, 5))
        plan = ot_exact_discrete(cost, np.full(5, 0.2), np.full(5, 0.2))
        rows, cols = linear_sum_assignment(cost)
        assert plan.cost == pytest.approx(cost[rows, cols].sum() / 5, abs=1e-9)


def test_exact_matches_bruteforce_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(3):
        cost = rng.random((3, 3))
        a = rng.random(3)
        a /= a.sum()
        b = rng.random(3)
        b /= b.sum()
        plan = ot_exact_discrete(cost, a, b)
        assert plan.cost == pytest.approx(bruteforce_ot_cost(cost, a, b), abs=1e-9)


def test_exact_marginal_feasibility():
    rng = np.random.default_rng(3)
    cost = rng.random((6, 4))
    a = rng.dirichlet(np.ones(6))
    b = rng.dirichlet(np.ones(4))
    plan = ot_exact_discrete(cost, a, b)
    assert plan.coupling.min() >= 0.0
    assert np.abs(plan.coupling.sum(axis=1) - a).max() <= 1e-9
    assert np.abs(plan.coupling.sum(axis=0) - b).max() <= 1e-9
    assert plan.cost == pytest.approx(np.sum(plan.coupling * cost), abs=1e-9)


def test_exact_invalid_marginals():
    with pytest.raises(ValueError, match="invalid marginals"):
        ot_exact_discrete([[1.0, 2.0]], [0.9], [0.5, 0.5])
    with pytest.raises(ValueError, match="invalid marginals"):
        ot_exact_discrete([[1.0, 2.0]], [1.0], [0.8, 0.1])


# ---------------------------------------------------------------------------
# sinkhorn
# ---------------------------------------------------------------------------


def test_sinkhorn_forced_coupling():
    for reg in (0.01, 1.0, 50.0):
        plan = sinkhorn([[2.5]], [1.0], [1.0], reg=reg)
        assert np.allclose(plan.coupling, [[1.0]])
        assert plan.cost == pytest.approx(2.5)


def test_sinkhorn_identical_clouds_small_cost():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(40, 3))
    cost = euclidean_cost_matrix(x, x)
    a = np.full(40, 1.0 / 40)
    plan = sinkhorn(cost, a, a, reg=0.01, max_iter=5000, tol=1e-7)
    assert plan.cost <= 0.05


def test_sinkhorn_oracle_equivalence():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n, m = rng.integers(2, 9, size=2)
        cost = rng.random((n, m))
        a = np.full(n, 1.0 / n)
        b = np.full(m, 1.0 / m)
        exact = ot_exact_discrete(cost, a, b).cost
        approx = sinkhorn(cost, a, b, reg=0.005, max_iter=20000, tol=1e-6).cost
        assert abs(approx - exact) <= max(0.05 * exact, 0.01)


def test_sinkhorn_8x8_example_tolerance():
    rng = np.random.default_rng(50)
    cost = rng.random((8, 8))
    a = np.full(8, 1.0 / 8)
    exact = ot_exact_discrete(cost, a, a).cost
    approx = sinkhorn(cost, a, a, reg=0.005, max_iter=20000, tol=1e-6).cost
    assert abs(approx - exact) <= 0.05 * (exact + 0.01)


def test_sinkhorn_marginal_feasibility():
    rng = np.random.default_rng(6)
    cost = rng.random((12, 9))
    a = rng.dirichlet(np.ones(12))
    b = rng.dirichlet(np.ones(9))
    plan = sinkhorn(cost, a, b, reg=0.05, max_iter=20000, tol=1e-7)
    assert plan.coupling.min() >= 0.0
    assert plan.marginal_residual() <= 1e-6


def test_sinkhorn_zero_mass_atoms():
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    plan = sinkhorn(cost, [1.0, 0.0], [0.0, 1.0], reg=0.1)
    assert np.allclose(plan.coupling, [[0.0, 1.0], [0.0, 0.0]])
    assert plan.cost == pytest.approx(1.0)


def test_sinkhorn_divergence_error():
    rng = np.random.default_rng(7)
    cost = rng.random((6, 6))
    a = np.full(6, 1.0 / 6)
    with pytest.raises(SinkhornDivergenceError) as excinfo:
        sinkhorn(cost, a, a, reg=0.001, max_iter=1, tol=1e-12)
    assert excinfo.value.residual > 0.0


def _log_domain_sinkhorn(cost, a, b, reg, max_iter, tol):
    """Reference: the same ε-scaling schedule, sweeps, residual and stopping
    rule, run entirely on log-domain potentials. Returns ``(cost,
    iterations, residual, converged)`` or raises
    :class:`SinkhornDivergenceError`."""
    rows, cols = np.flatnonzero(a > 0), np.flatnonzero(b > 0)
    cost_r = cost[np.ix_(rows, cols)]
    log_a, log_b = np.log(a[rows]), np.log(b[cols])
    ratio = float(cost_r.max()) / (EPS_START * reg)
    stages = int(np.ceil(np.log(ratio) / np.log(EPS_FACTOR))) if ratio > 1 else 0
    stages = min(stages, max_iter - 1)
    f, g = np.zeros(rows.size), np.zeros(cols.size)
    iterations = 0
    for stage in range(stages, -1, -1):
        scaled = -cost_r / (reg * EPS_FACTOR**stage)
        stage_tol = max(tol, STAGE_TOL) if stage else tol
        # Every stage still to come needs its opening sweep.
        budget = max_iter - stage - iterations
        converged = False
        for sweep in range(budget):
            lse_rows = logsumexp(scaled + g[None, :], axis=1)
            if sweep > 0:
                residual = float(np.abs(np.exp(f + lse_rows) - a[rows]).sum())
                if residual <= stage_tol:
                    converged = True
                    break
            f = log_a - lse_rows
            g = log_b - logsumexp(scaled + f[:, None], axis=0)
            iterations += 1
        if stage:
            f, g = f * EPS_FACTOR, g * EPS_FACTOR
    plan = np.exp(f[:, None] + scaled + g[None, :])
    if not converged:
        residual = float(
            np.abs(plan.sum(axis=1) - a[rows]).sum() + np.abs(plan.sum(axis=0) - b[cols]).sum()
        )
        if residual > 100 * tol:
            raise SinkhornDivergenceError(residual, iterations)
    return float(np.sum(plan * cost_r)), iterations, residual, converged


def _outcome(solve):
    try:
        return solve()
    except SinkhornDivergenceError as exc:
        return ("diverged", exc.iterations)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 40),
    m=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.3]),
    log_ratio=st.floats(-1.0, 4.0),
    log_tol=st.floats(-9.0, -3.0),
    max_iter=st.integers(1, 2000),
)
# A budget too small for every ε-scaling stage's opening sweep.
@example(n=5, m=5, seed=0, zero_share=0.0, log_ratio=4.0, log_tol=-6.0, max_iter=3)
def test_sinkhorn_matches_log_domain_reference(
    n, m, seed, zero_share, log_ratio, log_tol, max_iter
):
    # Random clouds and marginals with zero-mass atoms, at C/reg from 0.1
    # up to 1e4, where the stabilized scaling must absorb its scalings.
    rng = np.random.default_rng(seed)
    cost = euclidean_cost_matrix(rng.normal(size=(n, 2)), rng.normal(size=(m, 2)) + rng.normal())
    a = rng.random(n) * (rng.random(n) >= zero_share)
    b = rng.random(m) * (rng.random(m) >= zero_share)
    a[rng.integers(n)] += 0.1
    b[rng.integers(m)] += 0.1
    a, b = a / a.sum(), b / b.sum()
    reg = max(float(cost.max()), 1e-3) / 10.0**log_ratio
    tol = 10.0**log_tol

    def solve():
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            plan, info = sinkhorn(cost, a, b, reg, max_iter=max_iter, tol=tol, return_info=True)
        return plan.cost, info.iterations, info.residual, info.converged, plan

    got = _outcome(solve)
    want = _outcome(lambda: _log_domain_sinkhorn(cost, a, b, reg, max_iter, tol))
    if want[0] == "diverged":
        assert got == want
        return
    assert got[0] != "diverged", got
    cost_got, iterations, residual, converged, plan = got
    cost_want, iterations_want, _, converged_want = want
    assert (iterations, converged) == (iterations_want, converged_want)
    assert iterations <= max_iter
    assert cost_got == pytest.approx(cost_want, rel=1e-9, abs=1e-12)
    if converged:
        assert residual <= tol
        assert plan.marginal_residual() <= tol + 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 20),
    m=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
    log_ratio=st.floats(0.0, 3.0),
    log_tol=st.floats(-6.0, -3.0),
)
def test_sinkhorn_approaches_lp_as_reg_shrinks(n, m, seed, log_ratio, log_tol):
    # The entropic plan is optimal for its own marginals, whose L1 distance
    # to (a, b) is at most tol, and its entropy lies in [0, log(n m)], so
    # its transport cost is the LP's up to reg * log(n m) above. C/reg runs
    # up to 1e3, where the solve anneals through ε-scaling stages.
    rng = np.random.default_rng(seed)
    cost = euclidean_cost_matrix(rng.normal(size=(n, 3)), rng.normal(size=(m, 3)) + rng.normal())
    a = rng.random(n) + 0.05
    b = rng.random(m) + 0.05
    a, b = a / a.sum(), b / b.sum()
    top = max(float(cost.max()), 1e-3)
    reg = top / 10.0**log_ratio
    tol = 10.0**log_tol
    try:
        plan = sinkhorn(cost, a, b, reg, max_iter=5000, tol=tol)
    except SinkhornDivergenceError:
        return
    lp = ot_exact_discrete(cost, a, b).cost
    slack = tol * top
    assert lp - slack <= plan.cost <= lp + reg * np.log(n * m) + slack


# ---------------------------------------------------------------------------
# w1_empirical
# ---------------------------------------------------------------------------


def test_w1_empirical_self_distance_entropic_bias():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(100, 2))
    value = w1_empirical(x, x.copy(), reg=0.01, max_iter=5000, tol=1e-7)
    assert value <= 0.01 * np.log(100) + 1e-6


def test_w1_empirical_translation():
    rng = np.random.default_rng(9)
    x = rng.normal(scale=1e-3, size=(200, 3))
    y = x + np.array([1.0, 0.0, 0.0])
    assert w1_empirical(x, y, reg=0.01, max_iter=5000, tol=1e-7) == pytest.approx(1.0, abs=0.05)


def test_w1_empirical_matches_1d_oracle():
    rng = np.random.default_rng(10)
    for _ in range(3):
        a = rng.normal(size=(80, 1))
        b = rng.normal(size=(60, 1)) + rng.normal()
        est = w1_empirical(a, b, reg=0.01, max_iter=20000, tol=1e-6)
        assert abs(est - w1_exact_1d(a.ravel(), b.ravel())) <= 0.05


def test_w1_empirical_exactly_symmetric():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(30, 2))
    y = rng.normal(size=(45, 2)) + 0.7
    assert w1_empirical(x, y) == w1_empirical(y, x)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 40),
    m=st.integers(1, 40),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    reg_mode=st.sampled_from(["absolute", "relative"]),
)
@example(n=8, m=36, d=1, seed=166, reg_mode="absolute")
def test_w1_empirical_symmetric_over_random_shapes(n, m, d, seed, reg_mode):
    # Both orders run the same solve, so they agree bitwise. Some small
    # random draws do not converge at the defaults; such a draw must then
    # fail identically either way.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = rng.normal(size=(m, d)) + rng.normal(size=d)

    def outcome(a, b):
        try:
            return w1_empirical(a, b, reg_mode=reg_mode)
        except SinkhornDivergenceError as exc:
            return exc.residual, exc.iterations

    assert outcome(x, y) == outcome(y, x)


def test_w1_empirical_triangle_inequality_1d():
    rng = np.random.default_rng(12)
    slack = 2 * 0.05
    for _ in range(5):
        x = rng.normal(size=(50, 1))
        y = rng.normal(size=(50, 1)) + rng.normal()
        z = rng.normal(size=(50, 1)) + rng.normal()
        dxz = w1_empirical(x, z, reg=0.01, max_iter=20000, tol=1e-6)
        dxy = w1_empirical(x, y, reg=0.01, max_iter=20000, tol=1e-6)
        dyz = w1_empirical(y, z, reg=0.01, max_iter=20000, tol=1e-6)
        assert dxz <= dxy + dyz + slack
        # The exact 1-D oracle is a metric.
        assert w1_exact_1d(x.ravel(), z.ravel()) <= (
            w1_exact_1d(x.ravel(), y.ravel()) + w1_exact_1d(y.ravel(), z.ravel()) + 1e-12
        )


# ---------------------------------------------------------------------------
# Gaussian closed forms
# ---------------------------------------------------------------------------


def test_gaussian_w2_identical():
    comp = GaussianComponent(np.zeros(3), np.eye(3))
    assert gaussian_w2(comp, comp) == pytest.approx(0.0, abs=1e-9)


def test_gaussian_w2_translation():
    a = GaussianComponent(np.array([0.0]), np.array([[0.04]]))
    b = GaussianComponent(np.array([-2.5]), np.array([[0.04]]))
    assert gaussian_w2(a, b) == pytest.approx(2.5, abs=1e-9)


def test_gaussian_w2_variance_difference():
    a = GaussianComponent(np.array([0.0]), np.array([[0.04]]))
    b = GaussianComponent(np.array([0.0]), np.array([[0.09]]))
    assert gaussian_w2(a, b) == pytest.approx(0.1, abs=1e-9)


def test_gaussian_component_validation():
    with pytest.raises(ValueError, match="symmetric"):
        GaussianComponent(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="semi-definite"):
        GaussianComponent(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))


# ---------------------------------------------------------------------------
# Mixture distance
# ---------------------------------------------------------------------------


def test_mw1_identical_mixtures():
    value, plan = mw1_gmm(FIGURE1_SOURCE, FIGURE1_SOURCE, pairwise="analytic")
    assert value == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(plan.coupling, np.diag([0.7, 0.3]))


def test_mw1_single_component_reduces_to_pairwise():
    mix_a = GaussianMixture(
        ClassWeights(np.array([1.0])),
        (GaussianComponent(np.zeros(2), 0.01 * np.eye(2)),),
    )
    mix_b = GaussianMixture(
        ClassWeights(np.array([1.0])),
        (GaussianComponent(np.array([3.0, 4.0]), 0.01 * np.eye(2)),),
    )
    value, _ = mw1_gmm(mix_a, mix_b, pairwise="analytic")
    assert value == pytest.approx(gaussian_w2(mix_a.components[0], mix_b.components[0]))


def _mw1_bruteforce_figure1():
    # Exhaustive coupling search: the 2x2 transport polytope with marginals
    # (0.7, 0.3) and (0.3, 0.7) is the segment w11 = t, t in [0, 0.3].
    dist = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            xs, _ = sample_gmm(
                GaussianMixture(
                    ClassWeights(np.array([1.0])), (FIGURE1_SOURCE.components[i],)
                ),
                4000,
                seed=20 + i,
            )
            xt, _ = sample_gmm(
                GaussianMixture(
                    ClassWeights(np.array([1.0])), (FIGURE1_TARGET.components[j],)
                ),
                4000,
                seed=40 + j,
            )
            dist[i, j] = w1_exact_1d(xs.ravel(), xt.ravel())
    best = np.inf
    for t in np.linspace(0.0, 0.3, 301):
        coupling = np.array([[t, 0.7 - t], [0.3 - t, t + 0.7 - 0.7]])
        coupling[1, 1] = 0.3 - coupling[1, 0]
        best = min(best, float(np.sum(coupling * dist)))
    return best


def test_mw1_figure1_value():
    oracle = _mw1_bruteforce_figure1()
    value, _ = mw1_gmm(FIGURE1_SOURCE, FIGURE1_TARGET, pairwise="analytic")
    assert value == pytest.approx(1.30, abs=0.05)
    assert value == pytest.approx(oracle, abs=0.05)
    sampled, _ = mw1_gmm(
        FIGURE1_TARGET, FIGURE1_SOURCE, pairwise="sampled", n_samples=400, reg=0.005, seed=3
    )
    assert sampled == pytest.approx(1.30, abs=0.05)


def test_mw1_sampled_deterministic():
    kwargs = dict(pairwise="sampled", n_samples=200, reg=0.01, seed=9)
    v1, _ = mw1_gmm(FIGURE1_SOURCE, FIGURE1_TARGET, **kwargs)
    v2, _ = mw1_gmm(FIGURE1_SOURCE, FIGURE1_TARGET, **kwargs)
    assert v1 == v2


def _random_separated_pair(rng, k, d, eps):
    # Paired mixtures: shared well-separated means, small common offset,
    # covariance traces below eps, satisfying the paired-distance property.
    means = 6.0 * np.arange(k)[:, None] * np.ones(d) / np.sqrt(d)
    offset = rng.normal(size=d)
    offset *= 0.3 / np.linalg.norm(offset)
    comps_s, comps_t = [], []
    for i in range(k):
        scale_s = rng.uniform(0.2, 1.0) * eps
        scale_t = rng.uniform(0.2, 1.0) * eps
        comps_s.append(GaussianComponent(means[i], scale_s / d * np.eye(d)))
        comps_t.append(GaussianComponent(means[i] + offset, scale_t / d * np.eye(d)))
    w_s = ClassWeights(rng.dirichlet(np.full(k, 5.0)))
    w_t = ClassWeights(rng.dirichlet(np.full(k, 5.0)))
    return GaussianMixture(w_s, tuple(comps_s)), GaussianMixture(w_t, tuple(comps_t))


def test_mw1_dominance_chain():
    # weighted paired sum <= MW1 <= pooled W1 + 4 sqrt(eps), within
    # sampling slack.
    rng = np.random.default_rng(13)
    for trial in range(3):
        k, d, eps = int(rng.integers(2, 4)), int(rng.integers(1, 4)), 0.04
        mix_s, mix_t = _random_separated_pair(rng, k, d, eps)
        dist = pairwise_component_w1(
            mix_s, mix_t, pairwise="sampled", n_samples=250, reg=0.01,
            max_iter=20000, tol=1e-5, seed=trial,
        )
        paired = float(mix_t.weights.w @ np.diag(dist))
        value, _ = mw1_gmm(
            mix_s, mix_t, pairwise="sampled", n_samples=250, reg=0.01,
            max_iter=20000, tol=1e-5, seed=trial,
        )
        assert paired <= value + 0.05
        xs, _ = sample_gmm(mix_s, 600, seed=100 + trial)
        xt, _ = sample_gmm(mix_t, 600, seed=200 + trial)
        pooled = w1_empirical(xs, xt, reg=0.01, max_iter=20000, tol=1e-5)
        assert value <= pooled + 4 * np.sqrt(eps) + 0.05


# ---------------------------------------------------------------------------
# weighted_subdomain_w1
# ---------------------------------------------------------------------------


def test_weighted_subdomain_identical_parts():
    rng = np.random.default_rng(14)
    parts = [rng.normal(size=(50, 2)), rng.normal(size=(30, 2))]
    result = weighted_subdomain_w1(
        parts, [p.copy() for p in parts], ClassWeights(np.array([0.4, 0.6])),
        reg=0.01, max_iter=5000, tol=1e-7,
    )
    assert result.value <= 0.01 * np.log(50)
    assert result.skipped == ()


def test_weighted_subdomain_figure1():
    xs, ys = sample_gmm(FIGURE1_SOURCE, 2000, seed=15)
    xt, yt = sample_gmm(FIGURE1_TARGET, 2000, seed=16)
    parts_s = [xs[ys == k] for k in range(2)]
    parts_t = [xt[yt == k] for k in range(2)]
    result = weighted_subdomain_w1(
        parts_s, parts_t, ClassWeights(np.array([0.3, 0.7])),
        reg=0.005, max_iter=5000, tol=1e-7,
    )
    oracle = 0.3 * w1_exact_1d(parts_s[0].ravel(), parts_t[0].ravel()) + 0.7 * w1_exact_1d(
        parts_s[1].ravel(), parts_t[1].ravel()
    )
    assert result.value == pytest.approx(0.10, abs=0.03)
    assert result.value == pytest.approx(oracle, abs=0.01)


def test_weighted_subdomain_single_class():
    rng = np.random.default_rng(17)
    xs, xt = rng.normal(size=(40, 2)), rng.normal(size=(35, 2)) + 0.5
    result = weighted_subdomain_w1([xs], [xt], ClassWeights(np.array([1.0])))
    assert result.value == pytest.approx(w1_empirical(xs, xt))


def test_weighted_subdomain_skips_and_errors():
    rng = np.random.default_rng(18)
    xs = rng.normal(size=(20, 2))
    result = weighted_subdomain_w1(
        [xs, np.empty((0, 2))], [xs + 0.1, rng.normal(size=(5, 2))],
        ClassWeights(np.array([0.5, 0.5])),
    )
    assert result.skipped == (1,)
    with pytest.raises(ValueError, match="no aligned sub-domains"):
        weighted_subdomain_w1(
            [np.empty((0, 2))], [np.empty((0, 2))], ClassWeights(np.array([1.0]))
        )


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    sizes=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_per_class_and_w1_matrix_match_w1_empirical(sizes, seed):
    # Bitwise: per_class[k] is the pair's own w1_empirical (0.0 when a side
    # is empty), value is the in-order weighted sum of per_class, and
    # w1_matrix is the double w1_empirical loop.
    rng = np.random.default_rng(seed)
    k = len(sizes)
    parts_s = [rng.normal(size=(n, 2)) for n, _ in sizes]
    parts_t = [rng.normal(size=(m, 2)) + 0.5 for _, m in sizes]
    w_t = ClassWeights(rng.dirichlet(np.ones(k)))
    kwargs = dict(reg=0.05, max_iter=2000, tol=1e-5)
    skipped = tuple(c for c, (n, m) in enumerate(sizes) if n == 0 or m == 0)
    if len(skipped) == k:
        with pytest.raises(ValueError, match="no aligned sub-domains"):
            weighted_subdomain_w1(parts_s, parts_t, w_t, **kwargs)
        return
    result = weighted_subdomain_w1(parts_s, parts_t, w_t, **kwargs)
    assert result.skipped == skipped
    total = 0.0
    for c in range(k):
        if c in skipped:
            assert result.per_class[c] == 0.0
            continue
        want = w1_empirical(parts_s[c], parts_t[c], **kwargs)
        assert result.per_class[c] == want
        total += w_t[c] * want
    assert result.value == total

    clouds_s = [p for p in parts_s if len(p)]
    clouds_t = [p for p in parts_t if len(p)]
    table = w1_matrix(clouds_s, clouds_t, **kwargs)
    assert table.shape == (len(clouds_s), len(clouds_t))
    for i, x in enumerate(clouds_s):
        for j, y in enumerate(clouds_t):
            assert table[i, j] == w1_empirical(x, y, **kwargs)


# ---------------------------------------------------------------------------
# sample_gmm
# ---------------------------------------------------------------------------


def test_sample_gmm_single_component():
    mix = GaussianMixture(
        ClassWeights(np.array([1.0])), (GaussianComponent(np.zeros(2), np.eye(2)),)
    )
    samples, labels = sample_gmm(mix, 3, seed=19)
    assert samples.shape == (3, 2)
    assert np.all(labels == 0)
    again, _ = sample_gmm(mix, 3, seed=19)
    assert np.array_equal(samples, again)


def test_sample_gmm_degenerate_weights():
    mix = GaussianMixture(
        ClassWeights(np.array([1.0, 0.0])),
        (
            GaussianComponent(np.zeros(1), np.eye(1)),
            GaussianComponent(np.ones(1), np.eye(1)),
        ),
    )
    _, labels = sample_gmm(mix, 50, seed=20)
    assert np.all(labels == 0)


def test_sample_gmm_component_frequencies():
    _, labels = sample_gmm(FIGURE1_SOURCE, 10000, seed=21)
    assert np.mean(labels == 0) == pytest.approx(0.70, abs=0.02)


def test_gmm_manifest_roundtrip():
    restored = GaussianMixture.from_dict(FIGURE1_SOURCE.to_dict())
    assert np.array_equal(restored.weights.w, FIGURE1_SOURCE.weights.w)
    assert np.array_equal(
        restored.components[0].covariance, FIGURE1_SOURCE.components[0].covariance
    )
