"""Tests for the optimal-transport solvers and Gaussian-mixture distances."""

import importlib.machinery
import math
import re
import sys
import tracemalloc
import types
import warnings
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

from darsa import ot
from darsa.ot import (
    EPS_FACTOR,
    EPS_START,
    OMEGA_MAX,
    OMEGA_MIN,
    PAST_OPTIMUM,
    PLAIN_OPEN,
    PLAIN_WINDOW,
    RELAXED_WINDOW,
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
    uniform_plan,
    w1_empirical,
    w1_exact_1d,
    weighted_subdomain_w1,
)
from darsa.weights import ClassWeights
from helpers import bruteforce_ot_cost, in_float32

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
# euclidean_cost_matrix
# ---------------------------------------------------------------------------

# Coordinates of magnitude 1e-170 to 1e200, either sign: differences whose
# squares overflow to inf, are subnormal, or underflow to zero.
COORD = st.builds(lambda sign, exp: sign * 10.0**exp, st.sampled_from([-1.0, 1.0]),
                  st.floats(-170.0, 200.0))
COORDS_1D = st.lists(COORD, min_size=1, max_size=40)


def test_cost_matrix_1d_inf_and_subnormal_square():
    cost = euclidean_cost_matrix([[1e200], [1e-160]], [[-1e200], [-1e-161]])
    assert cost[0, 0] == np.inf and 0.0 < cost[1, 1] ** 2 < np.finfo(float).tiny


def _laid_out(rows, layout):
    """``rows`` as a C-ordered or Fortran-ordered array, or as every other
    column of a wider one (not contiguous, and not copied by ``as_features``)."""
    x = np.array(rows)
    if layout == "sliced":
        wide = np.zeros((x.shape[0], 2 * x.shape[1]))
        wide[:, ::2] = x
        return wide[:, ::2]
    return np.asarray(x, order=layout)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data(), st.integers(1, 9))
def test_cost_matrix_equals_cdist(data, d):
    # Every cost, one column included, comes from cdist's own Euclidean
    # kernel, so the bytes are cdist's for any layout: inf where a square
    # overflows, subnormal squares kept, and no RuntimeWarning.
    rows = st.lists(st.lists(COORD, min_size=d, max_size=d), min_size=1, max_size=40)
    x, y = (_laid_out(data.draw(rows), data.draw(st.sampled_from(["C", "F", "sliced"])))
            for _ in range(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cost = euclidean_cost_matrix(x, y)
    expected = cdist(x, y)
    assert cost.dtype == expected.dtype and cost.shape == expected.shape
    assert cost.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name, solve", [
    ("scipy.spatial._distance_pybind",
     lambda: euclidean_cost_matrix(np.zeros((2, 2)), np.zeros((3, 2)))),
    ("scipy.spatial._distance_pybind",
     lambda: euclidean_cost_matrix(np.zeros((2, 1)), np.zeros((3, 1)))),
    ("scipy.optimize._highspy._core", lambda: ot_exact_discrete([[1.0]], [1.0], [1.0])),
], ids=["cost", "one-column-cost", "exact"])
def test_solve_without_its_compiled_scipy_module_raises(monkeypatch, name, solve):
    # There is no second path through cdist, numpy or linprog: a scipy without
    # the compiled module says which module and which scipy.
    find_spec = importlib.machinery.PathFinder.find_spec
    monkeypatch.delitem(sys.modules, name)
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        lambda fullname, *args: None if fullname == name else find_spec(fullname, *args))
    with pytest.raises(ImportError, match=rf"^{re.escape(name)} not found in scipy \d"):
        solve()


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


def test_w1_exact_1d_rejects_multi_column_clouds():
    # Flattening (5, 2) and (4, 2) clouds would read 10 and 8 coordinates
    # as samples on one axis.
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="exact1d requires one-dimensional clouds"):
        w1_exact_1d(rng.normal(size=(5, 2)), rng.normal(size=(4, 2)))
    with pytest.raises(ValueError, match="exact1d requires one-dimensional clouds"):
        w1_exact_1d([0.0, 1.0], np.zeros((3, 2)))
    # Lists, scalars, 1-D arrays and single columns are one-dimensional.
    assert w1_exact_1d(0.0, [1.0]) == pytest.approx(1.0)
    assert w1_exact_1d(np.array([[0.0], [2.0]]), np.array([1.0, 3.0])) == pytest.approx(1.0)


def test_w1_exact_1d_unequal_lengths_symmetric():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=37), rng.normal(size=61) + 0.5
    assert w1_exact_1d(a, b) == w1_exact_1d(b, a)
    assert w1_exact_1d(a, a[:20]) >= 0.0


def _rational_w1(xs, ys):
    """The W1 of two 1-D samples in exact rational arithmetic: the integral of
    |F - G| over the merged sorted samples."""
    xs, ys = sorted(map(Fraction, xs)), sorted(map(Fraction, ys))
    grid = sorted(xs + ys)
    return sum(abs(Fraction(bisect_right(xs, t), len(xs)) - Fraction(bisect_right(ys, t), len(ys)))
               * (u - t) for t, u in zip(grid, grid[1:]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(COORDS_1D, COORDS_1D)
@example([1e-300, 2e-300, 1e308], [1e-300, 3e-300, 1e308])  # 2**1024 units would flush 1e-300
@example([1e-250, 2e-250, 1e61], [1e-250, 3e-250, 1e61])  # 2**203 units would round 1e-250
def test_w1_exact_1d_keeps_tiny_samples_next_to_huge_ones(xs, ys):
    # Only a tiny cloud, or one whose span overflows float64, is scaled by a
    # power of two, so no sample is flushed here. |F - G| is 0 or at least
    # 1/(n m), so each term |F - G| dx carries a relative error of at most
    # (n m + 2) eps, and the sum of these nonnegative terms adds (n + m) eps.
    n, m = len(xs), len(ys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = w1_exact_1d(xs, ys)
    expected = float(_rational_w1(xs, ys))
    assert math.isclose(value, expected, rel_tol=(n * m + n + m + 2) * np.finfo(float).eps)


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
    with pytest.raises(ValueError, match=r"^marginal a must sum to 1, got 0\.9$"):
        ot_exact_discrete([[1.0, 2.0]], [0.9], [0.5, 0.5])
    with pytest.raises(ValueError, match=r"^marginal b must sum to 1, got 0\.9$"):
        ot_exact_discrete([[1.0, 2.0]], [1.0], [0.8, 0.1])


def _linprog_plan(cost, a, b):
    """The transport LP in ``linprog``'s own formulation: dense row-sum and
    column-sum blocks over the flattened plan."""
    n, m = cost.shape
    res = linprog(cost.ravel(), A_eq=np.vstack([np.kron(np.eye(n), np.ones((1, m))),
                                                np.kron(np.ones((1, n)), np.eye(m))]),
                  b_eq=np.concatenate([a, b]), bounds=(0, None), method="highs")
    assert res.success
    coupling = np.maximum(res.x.reshape(n, m), 0.0)
    return coupling, float(np.einsum("ij,ij->", coupling, cost))


def _marginal(rng, size, zero_share):
    p = rng.random(size) * (rng.random(size) >= zero_share)
    p[rng.integers(size)] += 0.5
    return p / p.sum()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 64), st.integers(1, 64), st.sampled_from(["random", "tied", "constant"]),
       st.sampled_from([0.0, 0.3, 0.8]), st.integers(0, 2**32 - 1))
@example(64, 64, "tied", 0.3, 0)
def test_exact_plan_is_linprogs(n, m, kind, zero_share, seed):
    # ot_exact_discrete hands HiGHS linprog's model and options itself, so its
    # plan and cost have linprog's bytes, ties and zero-mass atoms included.
    rng = np.random.default_rng(seed)
    cost = {"random": lambda: rng.random((n, m)) * 10.0 ** rng.uniform(-3, 3),
            "tied": lambda: rng.integers(0, 3, size=(n, m)).astype(float),
            "constant": lambda: np.full((n, m), 1.5)}[kind]()
    a, b = _marginal(rng, n, zero_share), _marginal(rng, m, zero_share)
    plan = ot_exact_discrete(cost, a, b)
    coupling, value = _linprog_plan(cost, a, b)
    assert plan.coupling.tobytes() == coupling.tobytes()
    assert plan.cost == value


def _stub_core(monkeypatch, status=None, solution=None):
    """Make ot_exact_discrete solve through a HiGHS core whose solver reports
    ``status`` or returns ``solution`` (the real ones where None)."""
    core = ot._scipy_extension("scipy.optimize._highspy._core")

    class Highs:
        def __init__(self):
            self.real = core._Highs()

        def __getattr__(self, name):
            return getattr(self.real, name)

        def getModelStatus(self):
            return self.real.getModelStatus() if status is None else status

        def getSolution(self):
            return self.real.getSolution() if solution is None else solution

    stub = types.SimpleNamespace(**{name: getattr(core, name) for name in dir(core)})
    stub._Highs = Highs
    monkeypatch.setattr(ot, "_scipy_extension", lambda name: stub)


DIAGONAL = ([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5])


@pytest.mark.parametrize("status, text", [("kInfeasible", "Infeasible"),
                                          ("kIterationLimit", "Iteration limit reached")])
def test_exact_raises_on_a_model_status_other_than_optimal(monkeypatch, status, text):
    core = ot._scipy_extension("scipy.optimize._highspy._core")
    _stub_core(monkeypatch, status=getattr(core.HighsModelStatus, status))
    with pytest.raises(RuntimeError, match=rf"^exact transport LP failed: {text}$"):
        ot_exact_discrete(*DIAGONAL)


@pytest.mark.parametrize("col_value, row_value", [
    ([0.5, np.nan, 0.0, 0.5], [0.5, 0.5, 0.5, 0.5]),
    ([0.5, -1e-3, 1e-3, 0.5], [0.5, 0.5, 0.5, 0.5]),
    ([0.5, 0.0, 0.0, 0.5], [0.5, 0.5, 0.5, 0.5 - 1e-3]),
], ids=["non-finite x", "x below -tol", "residual above tol"])
def test_exact_raises_on_a_solution_outside_linprogs_tolerance(monkeypatch, col_value, row_value):
    # linprog's own check after HiGHS: x within tol of its bounds and every
    # equality within tol, tol = 10 * sqrt(1e-9).
    solution = types.SimpleNamespace(col_value=col_value, row_value=row_value)
    _stub_core(monkeypatch, solution=solution)
    with pytest.raises(RuntimeError, match=r"^exact transport LP failed: solution outside "
                                           r"tolerance 3\.16e-04$"):
        ot_exact_discrete(*DIAGONAL)


def test_exact_keeps_a_solution_within_linprogs_tolerance(monkeypatch):
    # A value above -tol is clipped to 0, as after linprog.
    _stub_core(monkeypatch, solution=types.SimpleNamespace(
        col_value=[0.5, -1e-4, 1e-4, 0.5], row_value=[0.5, 0.5, 0.5, 0.5]))
    plan = ot_exact_discrete(*DIAGONAL)
    assert plan.coupling.tolist() == [[0.5, 0.0], [1e-4, 0.5]]


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


def test_relative_reg_of_a_degenerate_cost_falls_back_to_reg():
    # A cost of mean 0 gives no scale: relative reg is then taken as absolute.
    assert ot.effective_reg(np.zeros((2, 3)), 0.05, "relative") == 0.05
    x = np.ones((3, 2))
    plan, _, info = ot.uniform_plan(x, x, 0.05, 1000, 1e-6, "relative")
    assert plan.cost == 0.0
    assert info.converged


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


@pytest.mark.parametrize("order", ["C", "F"])
def test_plan_cost_matches_elementwise_sum(order):
    # Plan costs are computed without an n x m temporary; they must agree
    # with the elementwise sum for either memory order, with and without
    # zero-mass atoms sliced out.
    rng = np.random.default_rng(14)
    cost = euclidean_cost_matrix(rng.normal(size=(9, 2)), rng.normal(size=(7, 2)))
    cost = np.asarray(cost, order=order)
    a = rng.random(9)
    a[[1, 4]] = 0.0
    b = rng.random(7)
    b[3] = 0.0
    a, b = a / a.sum(), b / b.sum()
    uniform_a, uniform_b = np.full(9, 1.0 / 9), np.full(7, 1.0 / 7)
    plans = [
        sinkhorn(cost, a, b, reg=0.05, max_iter=5000, tol=1e-9),
        sinkhorn(cost, uniform_a, uniform_b, reg=0.05, max_iter=5000, tol=1e-9),
        ot_exact_discrete(cost, a, b),
        ot_exact_discrete(cost, uniform_a, uniform_b),
    ]
    for plan in plans:
        assert plan.cost == pytest.approx(float(np.sum(plan.coupling * cost)), rel=1e-12)


def test_sinkhorn_divergence_error():
    rng = np.random.default_rng(7)
    cost = rng.random((6, 6))
    a = np.full(6, 1.0 / 6)
    with pytest.raises(SinkhornDivergenceError) as excinfo:
        sinkhorn(cost, a, a, reg=0.001, max_iter=1, tol=1e-12)
    assert excinfo.value.residual > 0.0


def test_sinkhorn_tol_below_rounding_returns_unconverged():
    # No float64 plan gets within 1e-300: a residual within 100 eps is
    # rounding, so the solve returns unconverged instead of raising.
    rng = np.random.default_rng(0)
    cost = euclidean_cost_matrix(rng.normal(size=(40, 2)), rng.normal(size=(30, 2)))
    a, b = np.full(40, 1 / 40), np.full(30, 1 / 30)
    plan, info = sinkhorn(cost, a, b, reg=0.05 * cost.mean(), max_iter=300, tol=1e-300,
                          return_info=True)
    assert not info.converged and info.iterations == 300
    assert info.residual == plan.marginal_residual() <= 100 * np.finfo(float).eps


@pytest.mark.parametrize("tol", [1e-300, 0.0, ot.ROUNDING_FLOOR / 2])
def test_sinkhorn_tol_below_rounding_is_not_float32_eligible(monkeypatch, tol):
    # Float32 sweeps cannot meet a tol below ROUNDING_FLOOR: a float32 run
    # would spend the whole max_iter and start over as the float64 solve.
    # Such a solve sweeps once, in float64, whatever its size.
    rng = np.random.default_rng(0)
    cost = euclidean_cost_matrix(rng.normal(size=(40, 2)), rng.normal(size=(30, 2)))
    problem = (cost, np.full(40, 1 / 40), np.full(30, 1 / 30), 0.05 * cost.mean(), 300, tol)
    monkeypatch.setattr(ot, "F32_CELLS", math.inf)
    want = _exact_outcome(*problem)
    monkeypatch.setattr(ot, "F32_CELLS", 1)
    runs = []
    sweeps = ot._sweeps
    monkeypatch.setattr(ot, "_sweeps", lambda *args: runs.append(args[-1]) or sweeps(*args))
    got = _exact_outcome(*problem)
    assert _apart_from_exit(got) == _apart_from_exit(want)
    assert got[0].float32_exit == want[0].float32_exit == "float64"
    assert runs == [float]


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"reg": 0.0}, "reg must be positive"),
        ({"max_iter": 0}, "max_iter must be positive"),
        ({"tol": -1e-6}, "tol must be non-negative"),
        ({"tol": np.nan}, "tol must be non-negative"),
        ({"reg": np.nan}, "reg must be positive"),
        ({"reg": np.inf}, "reg must be positive and finite"),
    ],
)
def test_sinkhorn_rejects_bad_settings(kwargs, message):
    # A residual of exactly 0 never meets a negative or NaN tol, and the
    # over-relaxation's rate estimate would then divide by it. A NaN reg
    # would run to max_iter and return a NaN cost; an infinite one returns
    # the product coupling.
    with pytest.raises(ValueError, match=message):
        sinkhorn([[2.5]], [1.0], [1.0], **{"reg": 1.0, **kwargs})


def test_non_finite_features_name_the_cost_not_the_reg():
    # A relative reg resolved against a NaN cost matrix is NaN itself; the
    # features are checked before the cost is built, so the error names the cause.
    x = np.array([[0.0], [np.nan], [1.0]])
    with pytest.raises(ValueError, match="non-finite value in x"):
        uniform_plan(x, np.array([[0.5], [2.0]]), 0.05, 100, 1e-3, reg_mode="relative")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 5, 11])
def test_sinkhorn_rejects_non_finite_cost(bad, where):
    # The check reads only max and min, through which NaN propagates.
    cost = np.random.default_rng(8).random((3, 4))
    cost.flat[where] = bad
    with pytest.raises(ValueError, match="finite 2-D array"):
        sinkhorn(cost, np.full(3, 1 / 3), np.full(4, 0.25), reg=0.1)


@pytest.mark.parametrize(
    "cost, a, reg",
    [([[0.0, 1e300]], [1.0], 1e-300), ([[-1e308, 1e308], [0.0, 1.0]], [0.5, 0.5], 1.0)],
    ids=["span-over-reg", "span"],
)
def test_sinkhorn_rejects_a_schedule_past_float64(cost, a, reg):
    # The ε-schedule starts from the span max(C) - min(min(C), 0) over reg.
    # Past float64, its stage count cannot be a float ("span-over-reg") and
    # the shifted cost is inf ("span"): input errors both, before any sweep.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="cost range over reg overflows float64"):
            sinkhorn(cost, a, [0.5, 0.5], reg)


def test_sinkhorn_solves_the_largest_finite_schedule():
    # 1e300 over 1e-8 is finite: 510 stages of one sweep each.
    plan, info = sinkhorn([[0.0, 1e300]], [1.0], [0.5, 0.5], 1e-8, return_info=True)
    assert info.converged and info.iterations == 510
    np.testing.assert_array_equal(plan.coupling, [[0.5, 0.5]])


def _reference_omega(omega, rate):
    """The over-relaxation rule: the plain rate is ``rate`` after plain
    sweeps and follows from Young's relation after relaxed ones; the factor
    rises to 2 / (1 + sqrt(1 - rate)), capped, and falls back to 1 when a
    relaxed window's residual did not fall or fell at about ω - 1 per sweep."""
    if omega != 1.0 and (rate >= 1.0 or rate < omega - 1.0 + PAST_OPTIMUM):
        return 1.0
    theta = rate if omega == 1.0 else (rate + omega - 1.0) ** 2 / (omega**2 * rate)
    if not 0.0 <= theta < 1.0:
        return omega
    best = min(2.0 / (1.0 + np.sqrt(1.0 - theta)), OMEGA_MAX)
    return best if best > omega and best >= OMEGA_MIN else omega


def _log_domain_sinkhorn(cost, a, b, reg, max_iter, tol):
    """Reference: the same ε-scaling schedule, sweeps, over-relaxation
    rule, budget rule, residual and stopping rule, run entirely on
    log-domain potentials.
    Returns ``(cost, iterations, residual, converged)`` or raises
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
        # Each stage starts plain: the rate over sweeps 4 to 12 sets the
        # factor, and a relaxed one is re-estimated every 10 sweeps.
        omega, relaxed = 1.0, False
        probe, ref, window = iterations + PLAIN_OPEN, None, 0
        for sweep in range(budget):
            lse_rows = logsumexp(scaled + g[None, :], axis=1)
            if sweep > 0:
                residual = float(np.abs(np.exp(f + lse_rows) - a[rows]).sum())
                if residual <= stage_tol and relaxed:
                    lse_cols = logsumexp(scaled + f[:, None], axis=0)
                    residual += float(np.abs(np.exp(g + lse_cols) - b[cols]).sum())
                if residual <= stage_tol:
                    converged = True
                    break
                if iterations == probe:
                    if ref is not None:
                        omega = _reference_omega(omega, (residual / ref) ** (1.0 / window))
                    if omega != 1.0:
                        ref, window = residual, RELAXED_WINDOW
                    elif ref is None:
                        ref, window = residual, PLAIN_WINDOW
                    else:
                        ref, window = None, PLAIN_OPEN
                    probe = iterations + window
            f = (1.0 - omega) * f + omega * (log_a - lse_rows)
            # The sweep that spends the last of the budget updates g plainly.
            w = omega if sweep < budget - 1 else 1.0
            g = (1.0 - w) * g + w * (log_b - logsumexp(scaled + f[:, None], axis=0))
            relaxed = omega != 1.0
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


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("ratio", [1e3, 1e5])
def test_sinkhorn_underflowing_stage_opening(ratio, transpose):
    # A warm stage opens on the fourth power of the last stage's plan, so
    # the rows and columns of atoms of mass 1e-200 and 1e-300 underflow to
    # zero; the opening must then fall back to a log-domain sweep.
    rng = np.random.default_rng(3)
    cost = euclidean_cost_matrix(rng.normal(size=(6, 2)), rng.normal(size=(7, 2)))
    a = rng.random(6) + 0.1
    a[2] = 0.0
    a = a / a.sum()
    a[2] = 1e-200
    b = rng.random(7) + 0.1
    b[4] = 0.0
    b = b / b.sum()
    b[4] = 1e-300
    if transpose:
        cost, a, b = cost.T.copy(), b, a
    reg = float(cost.max()) / ratio
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        plan, info = sinkhorn(cost, a, b, reg, max_iter=5000, tol=1e-9, return_info=True)
    cost_want, iterations_want, _, converged_want = _log_domain_sinkhorn(
        cost, a, b, reg, 5000, 1e-9
    )
    assert (info.iterations, info.converged) == (iterations_want, converged_want)
    assert info.converged
    assert plan.cost == pytest.approx(cost_want, rel=1e-9)


def _exact_outcome(cost, a, b, reg, max_iter, tol):
    """Everything a solve returns, bit for bit, with RuntimeWarning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            plan, info = sinkhorn(cost, a, b, reg, max_iter=max_iter, tol=tol, return_info=True)
        except SinkhornDivergenceError as exc:
            return ("diverged", exc.iterations, float(exc.residual).hex())
    return info, float(plan.cost).hex(), plan.coupling.tobytes()


def _apart_from_exit(outcome):
    """An ``_exact_outcome`` with its info's iterations, residual and converged
    by name, and without ``float32_exit``: the float64 solve's, on a restart."""
    if outcome[0] == "diverged":
        return outcome
    info = outcome[0]
    return (info.iterations, info.residual, info.converged), *outcome[1:]


@pytest.mark.parametrize("empty_row", [None, 4])
def test_sinkhorn_solves_a_negative_cost_on_its_shift(empty_row):
    # A constant shift of the cost leaves every plan as it is. This matrix,
    # far below zero, overflowed exp at its top stage and ran NaN sweeps to
    # max_iter; it is solved on C - min(C), ε-schedule included, and its
    # cost is taken against C.
    cost = np.random.default_rng(0).random((30, 20)) - 100
    a, b = np.full(30, 1 / 30), np.full(20, 1 / 20)
    if empty_row is not None:
        a[empty_row] = 0.0
        a /= a.sum()
    got = _exact_outcome(cost, a, b, 0.1, 5000, 1e-6)
    want = _exact_outcome(cost - cost.min(), a, b, 0.1, 5000, 1e-6)
    assert _apart_from_exit(got)[0] == _apart_from_exit(want)[0] and got[0].converged
    assert got[0].float32_exit == want[0].float32_exit == "float64"
    assert got[2] == want[2]
    plan = sinkhorn(cost, a, b, 0.1, max_iter=5000)
    assert plan.cost == float(np.einsum("ij,ij->", plan.coupling, cost))


def test_sinkhorn_absorbs_a_few_sweeps_into_a_stage():
    # At C/reg 1e5, with an atom of mass 1e-20, a scaling leaves
    # SCALING_BOUND a few sweeps after a stage opens; absorbing on exactly
    # that sweep matches the log-domain reference.
    rng = np.random.default_rng(10)
    cost = euclidean_cost_matrix(rng.normal(size=(4, 2)), rng.normal(size=(6, 2)))
    a = rng.random(4) + 0.1
    a[0] = 0.0
    a = a / a.sum()
    a[0] = 1e-20
    b = rng.random(6) + 0.1
    b = b / b.sum()
    reg = float(cost.max()) / 1e5
    got = _exact_outcome(cost, a, b, reg, 5000, 1e-3)
    info = got[0]
    cost_want, iterations_want, _, converged_want = _log_domain_sinkhorn(
        cost, a, b, reg, 5000, 1e-3
    )
    assert (info.iterations, info.converged) == (iterations_want, converged_want)
    assert info.converged
    assert float.fromhex(got[1]) == pytest.approx(cost_want, rel=1e-9)


@pytest.mark.parametrize("rel_reg, tol", [(0.05, 1e-3), (0.05, 1e-6), (0.03, 1e-3)])
def test_sinkhorn_relaxing_a_stall_costs_few_sweeps(monkeypatch, rel_reg, tol):
    # Figure 1's setting: two clusters whose weights swap from 0.7/0.3 to
    # 0.3/0.7. From a cold start the residual stalls near 0.8 while mass
    # crosses between the clusters, and the stall reads as a plain rate of
    # 1, so the stage relaxes at the cap. At relative reg 0.05 the stall
    # ends just after: the relaxed rate then sits at ω - 1 and the stage
    # must go back to plain sweeps, not take twice the plain count.
    rng = np.random.default_rng(0)
    x = np.concatenate([-1.5 + 0.05 * rng.normal(size=42), 1.5 + 0.05 * rng.normal(size=18)])
    y = np.concatenate([-1.4 + 0.05 * rng.normal(size=18), 1.6 + 0.05 * rng.normal(size=42)])
    cost = euclidean_cost_matrix(x[:, None], y[:, None])
    a = np.full(60, 1.0 / 60)
    reg = ot.effective_reg(cost, rel_reg, "relative")
    relaxed = sinkhorn(cost, a, a, reg, max_iter=5000, tol=tol, return_info=True)[1]
    monkeypatch.setattr(ot, "OMEGA_MAX", 1.0)
    plain = sinkhorn(cost, a, a, reg, max_iter=5000, tol=tol, return_info=True)[1]
    assert relaxed.converged and plain.converged
    assert relaxed.iterations <= 1.25 * plain.iterations


@pytest.mark.parametrize("seed", range(10))
def test_sinkhorn_relaxed_sweeps_absorb_like_the_reference(monkeypatch, seed):
    # With SCALING_BOUND at 1.5 nearly every relaxed sweep absorbs, the
    # converging one included; its residual must still be that of the
    # current plan, so the solve matches the log-domain reference.
    rng = np.random.default_rng(seed)
    n, m = rng.integers(2, 30, size=2)
    cost = euclidean_cost_matrix(rng.normal(size=(n, 2)), rng.normal(size=(m, 2)))
    a, b = rng.random(n) + 0.05, rng.random(m) + 0.05
    a, b = a / a.sum(), b / b.sum()
    reg = float(cost.max()) / 10.0 ** rng.uniform(2.0, 3.0)
    tol = 10.0 ** rng.uniform(-9.0, -5.0)
    monkeypatch.setattr(ot, "SCALING_BOUND", 1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        plan, info = sinkhorn(cost, a, b, reg, max_iter=3000, tol=tol, return_info=True)
    cost_want, iterations_want, _, converged_want = _log_domain_sinkhorn(
        cost, a, b, reg, 3000, tol
    )
    assert (info.iterations, info.converged) == (iterations_want, converged_want)
    assert plan.cost == pytest.approx(cost_want, rel=1e-9)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 40),
    m=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.3]),
    log_tiny=st.sampled_from([None, -17.0, -20.0, -32.0, -37.0, -150.0, -290.0, -300.0, -306.0]),
    log_ratio=st.floats(-1.0, 5.0),
    log_tol=st.floats(-9.0, -3.0),
    max_iter=st.integers(1, 3000),
)
def test_sinkhorn_solves_keep_their_contracts(
    n, m, seed, zero_share, log_tiny, log_ratio, log_tol, max_iter
):
    # C/reg from 0.1 to 1e5, zero-mass atoms and one atom of tiny mass (1e-17
    # down to 1e-306) on each side, RuntimeWarning an error. Most solves stay
    # plain; about one draw in eight over-relaxes (large C/reg, tight tol).
    rng = np.random.default_rng(seed)
    cost = euclidean_cost_matrix(rng.normal(size=(n, 2)), rng.normal(size=(m, 2)) + rng.normal())
    a = rng.random(n) * (rng.random(n) >= zero_share)
    b = rng.random(m) * (rng.random(m) >= zero_share)
    a[0] += 0.1
    b[0] += 0.1
    a, b = a / a.sum(), b / b.sum()
    if log_tiny is not None:
        for p in (a, b):
            if p.size > 1:
                p[0] += p[-1] - 10.0**log_tiny
                p[-1] = 10.0**log_tiny
    reg = max(float(cost.max()), 1e-3) / 10.0**log_ratio
    tol = 10.0**log_tol
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            plan, info = sinkhorn(cost, a, b, reg, max_iter=max_iter, tol=tol, return_info=True)
        except SinkhornDivergenceError as exc:
            plan, info = None, exc
    if plan is None:
        assert info.residual > 100 * tol and info.iterations == max_iter
        return
    # A solve sweeps in float32 exactly when its reduced problem has at least
    # F32_CELLS cells and no positive mass below F32_MASS.
    a_r, b_r = a[a > 0], b[b > 0]
    single = a_r.size * b_r.size >= ot.F32_CELLS and min(a_r.min(), b_r.min()) >= ot.F32_MASS
    assert (info.float32_exit == "float64") == (not single)
    assert info.float32_exit != "floor" or info.converged
    assert np.all(np.isfinite(plan.coupling)) and np.isfinite(plan.cost)
    assert info.iterations <= max_iter
    if info.converged:
        assert info.residual <= tol
        assert plan.marginal_residual() <= tol + 1e-12
    else:
        assert info.iterations == max_iter
        assert info.residual == plan.marginal_residual() <= 100 * tol


# The same contracts with every solve sweeping in float32 that its masses
# allow: a mass of 1e-17 can make a warm stage opening thin in float32, and
# an absorption would rebuild the kernel (either starts the solve over in
# float64), masses below F32_MASS (1e-20 and down, 1e-32 and 1e-37 among
# them) keep the solve in float64, and tols down to 1e-9 need the float64
# finish below the float32 floor.
test_sinkhorn_float32_solves_keep_their_contracts = in_float32(
    test_sinkhorn_solves_keep_their_contracts
)
test_sinkhorn_float32_underflowing_stage_opening = in_float32(
    test_sinkhorn_underflowing_stage_opening
)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (3, 5), (7, 1), (64, 65), (257, 300)])
def test_widen_matches_astype(shape, order):
    # The float32 kernel in the first half of the plan's buffer, widened in
    # place, equals its float64 copy bit for bit, in either memory order.
    buffer = np.empty(shape, order=order)
    kernel = ot._sweep_arrays(buffer, np.ones(shape[0]), np.ones(shape[1]), np.float32)[0]
    kernel[...] = np.random.default_rng(shape[0] * shape[1]).random(shape) * 10.0 ** np.arange(
        -44, -44 + shape[1]
    ).clip(max=30)
    want = kernel.astype(float)
    ot._widen(buffer)
    assert buffer.tobytes() == want.tobytes()


@pytest.mark.parametrize("scale, float32_exit", [(1.0, "floor"), (0.5, "float64")])
def test_sinkhorn_sweeps_in_float32_from_masses_of_f32_mass(monkeypatch, scale, float32_exit):
    # A mass below F32_MASS (float32's tiny times SCALING_BOUND) keeps a
    # solve in float64 from the start: K v and Kᵀ u may leave float32's
    # normal range on its row or column before an absorption catches it.
    monkeypatch.setattr(ot, "F32_CELLS", 1)
    a = np.array([0.5, 0.5 - scale * ot.F32_MASS, scale * ot.F32_MASS])
    b = np.full(4, 0.25)
    cost = np.abs(np.arange(3.0)[:, None] - np.arange(4.0))
    plan, info = sinkhorn(cost, a, b, 0.5, max_iter=1000, tol=1e-9, return_info=True)
    assert info.float32_exit == float32_exit and info.converged


def _absorbing_draw():
    # With SCALING_BOUND lowered to 1e3, a row of mass 1.5e-3 makes this
    # one-stage solve absorb.
    rng = np.random.default_rng(1442)
    n, m = rng.integers(2, 30, size=2)
    cost = euclidean_cost_matrix(rng.normal(size=(n, 2)), rng.normal(size=(m, 2)) + rng.normal())
    a, b = rng.random(n) + 0.05, rng.random(m) + 0.05
    a, b = a / a.sum(), b / b.sum()
    tiny = 10.0 ** rng.uniform(-2.95, -2.5)
    a[0] += a[-1] - tiny
    a[-1] = tiny
    reg = float(cost.max()) / 10.0 ** rng.uniform(0, 4)
    assert float(cost.max()) / reg <= ot.EPS_START
    return cost, a, b, reg, 3000, 1e-8


@pytest.mark.parametrize(
    "bound, problem",
    [pytest.param(1e3, _absorbing_draw(), id="absorption")]
    + [
        pytest.param(
            ot.SCALING_BOUND, (np.ones((1, 1)), [1.0], [1.0], reg, 1, 1e-6), id=f"opening-{reg:g}"
        )
        for reg in (1 / 100, 1 / 500, 1 / 700)
    ],
)
def test_sinkhorn_float32_restarts_as_the_float64_solve(monkeypatch, bound, problem):
    # Float32 sweeps never rebuild their kernel. Where they would, at an
    # absorption or at an opening whose float32 kernel underflows (exp(-1/reg)
    # is below float32's tiny but a normal float64 number), the solve starts
    # over in float64, carrying nothing, and returns the float64 solve bit
    # for bit, its iteration count included. The one float32 kernel is the
    # opening's.
    monkeypatch.setattr(ot, "SCALING_BOUND", bound)
    monkeypatch.setattr(ot, "F32_CELLS", math.inf)
    want = _exact_outcome(*problem)
    monkeypatch.setattr(ot, "F32_CELLS", 1)
    fills = []
    fill = ot._fill_kernel
    monkeypatch.setattr(
        ot, "_fill_kernel", lambda kernel, *args: fills.append(kernel.dtype) or fill(kernel, *args)
    )
    got = _exact_outcome(*problem)
    assert _apart_from_exit(got) == _apart_from_exit(want)
    assert (got[0].float32_exit, want[0].float32_exit) == ("restart", "float64")
    assert fills.count(np.float32) == 1


def _slow_draw(seed):
    # A small problem at max(C)/reg from 1e3 to 1e4.2, annealed through
    # several ε-stages, with a tol and a max_iter that often leave it
    # unconverged.
    rng = np.random.default_rng(seed)
    n, m = rng.integers(2, 41, size=2)
    d = rng.integers(1, 3)
    x = rng.normal(size=(n, d))
    y = rng.normal(size=(m, d)) + rng.normal(size=d)
    cost = euclidean_cost_matrix(x, y)
    a, b = rng.random(n) + 0.05, rng.random(m) + 0.05
    a, b = a / a.sum(), b / b.sum()
    reg = float(cost.max()) / 10.0 ** rng.uniform(3, 4.2)
    tol = 10.0 ** rng.uniform(-9, -3)
    max_iter = int(10.0 ** rng.uniform(2.5, 3.7))
    return cost, a, b, reg, max_iter, tol


@pytest.mark.parametrize(
    "seed, floor",
    [
        pytest.param(31, False, id="budget-31"),
        pytest.param(432, False, id="budget-432"),
        pytest.param(218, True, id="floor-218"),
        pytest.param(520, True, id="floor-520"),
    ],
)
def test_sinkhorn_unconverged_float32_restarts_as_the_float64_solve(monkeypatch, seed, floor):
    # Float32 work is kept only when the solve converges. Two of these draws
    # run out of max_iter in float32 sweeps (and raised on the float32
    # residual where the float64 solve ends unconverged), and two hand over
    # at the floor but end unconverged in float64 (where the float64 solve
    # converges). Each starts over as the float64 solve and returns it bit
    # for bit; the kernel is widened only at the floor hand-over.
    problem = _slow_draw(seed)
    monkeypatch.setattr(ot, "F32_CELLS", math.inf)
    want = _exact_outcome(*problem)
    monkeypatch.setattr(ot, "F32_CELLS", 1)
    widens = []
    widen = ot._widen
    monkeypatch.setattr(ot, "_widen", lambda buffer: widens.append(1) or widen(buffer))
    got = _exact_outcome(*problem)
    assert _apart_from_exit(got) == _apart_from_exit(want)
    assert (got[0].float32_exit, want[0].float32_exit) == ("restart", "float64")
    assert len(widens) == floor


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_ratio=st.floats(3.0, 4.2),
    log_tol=st.floats(-9.0, -3.0),
    max_iter=st.integers(300, 5000),
)
def test_sinkhorn_float32_converges_or_is_the_float64_solve(seed, log_ratio, log_tol, max_iter):
    # Forced into float32, a slow solve either converges, or returns or
    # raises exactly as the float64 solve does.
    cost, a, b = _slow_draw(seed)[:3]
    problem = (cost, a, b, float(cost.max()) / 10.0**log_ratio, max_iter, 10.0**log_tol)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ot, "F32_CELLS", 1)
        got = _exact_outcome(*problem)
        patch.setattr(ot, "F32_CELLS", math.inf)
        want = _exact_outcome(*problem)
    # A solve that raises has no info; float32 work is kept only when the
    # solve converges, so it restarted.
    if got[0] == "diverged" or got[0].float32_exit == "restart":
        assert _apart_from_exit(got) == _apart_from_exit(want)
    else:
        assert got[0].float32_exit == "floor" and got[0].converged


def test_sinkhorn_does_not_return_a_nan_plan(monkeypatch):
    # A plan the sweeps leave NaN has no residual within 100 * tol: it raises.
    fill = ot._fill_kernel

    def poisoned(kernel, *args):
        fill(kernel, *args)
        kernel[0, 0] = np.nan

    monkeypatch.setattr(ot, "_fill_kernel", poisoned)
    third = np.full(3, 1.0 / 3.0)
    with pytest.raises(SinkhornDivergenceError) as err:
        sinkhorn(1.0 - np.eye(3), third, third, 0.5, max_iter=20)
    assert math.isnan(err.value.residual) and err.value.iterations == 20


def test_float32_kernel_flushes_subnormal_entries():
    # Entries of a float32 kernel below float32's tiny are zero; the rest
    # are float32 exp of the float32 exponent.
    cost = np.linspace(0.0, 110.0, 2000).reshape(40, 50)
    kernel = np.empty(cost.shape, np.float32)
    ot._fill_kernel(kernel, cost, 1.0)
    want = np.exp(-cost.astype(np.float32))
    tiny = np.finfo(np.float32).tiny
    assert np.any((want > 0) & (want < tiny))
    assert np.array_equal(kernel, np.where(want < tiny, 0.0, want))


def test_sinkhorn_allocates_one_plan_array():
    # Beyond the caller's arrays, a solve allocates the plan, one n x m
    # float64 array in whose first half a large solve keeps its float32
    # kernel, and O(n + m); a float32 kernel of its own would add n m 4
    # bytes (1.44 MB here).
    rng = np.random.default_rng(21)
    n = m = 600
    cost = euclidean_cost_matrix(rng.normal(size=(n, 2)), rng.normal(size=(m, 2)))
    a = np.full(n, 1.0 / n)
    reg = ot.effective_reg(cost, 0.01, "relative")
    assert n * m >= ot.F32_CELLS
    tracemalloc.start()
    try:
        plan, info = sinkhorn(cost, a, a, reg, max_iter=5000, tol=1e-6, return_info=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.converged
    assert peak <= plan.coupling.nbytes + 64 * 8 * (n + m)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 40),
    m=st.integers(1, 40),
    crossing=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    log_ratio=st.floats(0.0, 3.0),
    log_tol=st.floats(-9.0, -3.0),
)
def test_sinkhorn_float32_plan_cost_agrees_with_float64(n, m, crossing, seed, log_ratio, log_tol):
    # The float32 path against float64 sweeps on the same problem: half the
    # draws are 261 to 300 atoms a side, above the default threshold, and
    # the rest run with the threshold forced to their size.
    # Bound: each solve stops with its plan's marginals within tol (L1) of
    # (a, b), so the two plans' marginals differ by at most 2 tol, and that
    # much mass moves a transport cost by at most 2 tol max C. Float32
    # holds each kernel exponent f - C/reg + g, whose terms are about
    # max C / reg at most, to within a few units of 2**-24 times that: the
    # float32 kernel is the kernel of a cost within 4 * 2**-24 (reg + max C)
    # of C, and a cost perturbation of d changes the entropic plan by d/reg
    # in log, so its transport cost by at most d max C / reg.
    if crossing:
        n, m = n + 260, m + 260
    rng = np.random.default_rng(seed)
    cost = euclidean_cost_matrix(rng.normal(size=(n, 2)), rng.normal(size=(m, 2)) + rng.normal())
    a, b = rng.random(n) + 0.05, rng.random(m) + 0.05
    a, b = a / a.sum(), b / b.sum()
    top = max(float(cost.max()), 1e-3)
    reg = top / 10.0**log_ratio
    tol = 10.0**log_tol

    def solve(cells):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ot, "F32_CELLS", cells)
            try:
                return sinkhorn(cost, a, b, reg, max_iter=5000, tol=tol, return_info=True)
            except SinkhornDivergenceError:
                return None, None

    plan, info = solve(min(ot.F32_CELLS, n * m))
    if info is not None:
        assert abs(info.residual - plan.marginal_residual()) <= 1e-12
        assert info.residual <= tol or not info.converged
    wide, wide_info = solve(math.inf)
    if info is None or not (info.converged and wide_info is not None and wide_info.converged):
        return
    slack = 2.0 * tol * top + 4.0 * 2.0**-24 * (1.0 + top / reg) * top
    assert abs(plan.cost - wide.cost) <= slack


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


@pytest.mark.parametrize(
    "n, m, seed, reg_mode", [(8, 36, 166, "absolute"), (17, 17, 17, "relative")]
)
def test_w1_empirical_defaults_on_a_slow_small_1d_draw(n, m, seed, reg_mode):
    # Small 1-D draws at C/reg in the hundreds: plain sweeps stop above
    # 100 * tol after 5000 and raise; over-relaxed, the solve ends within
    # 100 * tol (it may stop short of tol), so the estimate is returned,
    # and it lies within 1e-3 of the exact value.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 1))
    y = rng.normal(size=(m, 1)) + rng.normal(size=1)
    value = w1_empirical(x, y, reg_mode=reg_mode)
    assert value == w1_empirical(y, x, reg_mode=reg_mode)
    assert abs(value - w1_exact_1d(x.ravel(), y.ravel())) <= 1e-3


@pytest.mark.parametrize(
    "n, m, seed, reg_mode", [(8, 36, 166, "absolute"), (17, 17, 17, "relative")]
)
@in_float32
def test_w1_empirical_float32_defaults_on_a_slow_small_1d_draw(n, m, seed, reg_mode):
    test_w1_empirical_defaults_on_a_slow_small_1d_draw(n, m, seed, reg_mode)


@pytest.mark.parametrize("index", [0, 5, 23])
@pytest.mark.parametrize("nudged", ["x", "y"])
def test_w1_empirical_orientation_ignores_last_digits(monkeypatch, index, nudged):
    # Equal shapes: the cloud with the smaller first differing value is the
    # row side. 1.0 and 2.0 differ only in their high bytes, so an order by
    # raw bytes would not follow their values. A one-ulp change to that
    # value or to a later one must not move the row side.
    rng = np.random.default_rng(13)
    x = rng.normal(size=(12, 2))
    y = rng.normal(size=(12, 2))
    x[0, 0], y[0, 0] = 1.0, 2.0
    row_sides = []
    solve = ot.uniform_plan

    def recording(rows, cols, *args, **kwargs):
        row_sides.append(rows)
        return solve(rows, cols, *args, **kwargs)

    monkeypatch.setattr(ot, "uniform_plan", recording)
    for direction in (-np.inf, np.inf):
        x_, y_ = x.copy(), y.copy()
        cloud = x_ if nudged == "x" else y_
        cloud.flat[index] = np.nextafter(cloud.flat[index], direction)
        assert w1_empirical(x_, y_, reg=0.1, tol=1e-4) == w1_empirical(y_, x_, reg=0.1, tol=1e-4)
        assert all(np.array_equal(rows, x_) for rows in row_sides[-2:])


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


def test_gaussian_w2_large_covariances_finite():
    # Unscaled, the cross term of these overflowed and W2 came out NaN.
    comp = GaussianComponent([0.0, 0.0], np.diag([1e300, 1e300]))
    assert gaussian_w2(comp, comp) == pytest.approx(0.0, abs=1e-8 * 1e150)
    wide = GaussianComponent([0.0, 0.0], np.diag([4e300, 4e300]))
    assert gaussian_w2(comp, wide) == pytest.approx(math.sqrt(2) * 1e150, rel=1e-12)


def test_gaussian_w2_tiny_covariances_keep_precision():
    # Unscaled, the cross term underflowed to zero and W2 read 2.2e-100.
    a = GaussianComponent([0.0], [[1e-200]])
    b = GaussianComponent([0.0], [[4e-200]])
    assert gaussian_w2(a, b) == pytest.approx(1e-100, rel=1e-12)


def test_gaussian_w2_psd_edge_symmetric():
    # q's eigenvalue -1e-9 is within PSD_TOL; p's 1e12 scales it to -1e3 in
    # the cross term, which counts as zero in either order.
    p = GaussianComponent([0.0, 0.0], np.diag([1.0, 1e12]))
    q = GaussianComponent([0.0, 0.0], np.diag([1.0, -1e-9]))
    assert gaussian_w2(p, q) == gaussian_w2(q, p) == pytest.approx(1e6, rel=1e-12)


@pytest.mark.parametrize(
    "cov", [np.diag([1e308, 0.0]), np.full((2, 2), 1e308)], ids=["diagonal", "rank-one"]
)
def test_sample_gaussian_huge_singular_covariance_finite(cov):
    # Unscaled, the diagonal one's symmetrization overflowed in _spd_sqrt and
    # its samples came out NaN, and the rank-one one's eigenvalue 2e308 gave
    # an inf factor. Each is factored in units of 2**512: its samples are
    # those of the covariance times 2**-1024, times 2**512, bit for bit.
    got = ot.sample_gaussian(GaussianComponent([0.0, 0.0], cov), 50, np.random.default_rng(0))
    unit = GaussianComponent([0.0, 0.0], np.ldexp(cov, -1024))
    want = np.ldexp(ot.sample_gaussian(unit, 50, np.random.default_rng(0)), 512)
    assert np.isfinite(got).all() and got.tobytes() == want.tobytes()


def test_gaussian_w2_large_mean_gap():
    near = GaussianComponent([0.0, 0.0], np.eye(2))
    assert gaussian_w2(near, GaussianComponent([1e200, 0.0], np.eye(2))) == pytest.approx(1e200)
    assert gaussian_w2(near, GaussianComponent([1e308, 1e308], np.eye(2))) == pytest.approx(
        math.sqrt(2) * 1e308
    )
    with pytest.raises(ValueError, match="^W2 between the Gaussians overflows float64$"):
        gaussian_w2(near, GaussianComponent([1.5e308, 1.5e308], np.eye(2)))
    with pytest.raises(ValueError, match="^W2 between the Gaussians overflows float64$"):
        gaussian_w2(GaussianComponent([-1e308], [[1.0]]), GaussianComponent([1e308], [[1.0]]))


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


def _random_mixture(rng, k, d):
    comps = []
    for _ in range(k):
        root = rng.normal(size=(d, d))
        comps.append(GaussianComponent(rng.normal(size=d), root @ root.T / d + 0.05 * np.eye(d)))
    return GaussianMixture(ClassWeights(rng.dirichlet(np.ones(k))), tuple(comps))


@pytest.mark.parametrize("pairwise", ["analytic", "sampled"])
def test_pairwise_component_w1_fills_its_table_with_its_pair_distance(pairwise):
    # Bitwise, source components as rows. Analytic: each entry is the pair's
    # gaussian_w2. Sampled: the w1_empirical, at the given settings, of the
    # clouds drawn from default_rng(seed), source components first.
    rng = np.random.default_rng(21)
    mix_s, mix_t = _random_mixture(rng, 3, 2), _random_mixture(rng, 2, 2)
    solver = dict(reg=0.05, max_iter=2000, tol=1e-5, reg_mode="relative")
    table = pairwise_component_w1(mix_s, mix_t, pairwise, n_samples=40, seed=7, **solver)
    if pairwise == "analytic":
        want = [[gaussian_w2(p, q) for q in mix_t.components] for p in mix_s.components]
    else:
        draw = np.random.default_rng(7)
        clouds_s = [ot.sample_gaussian(c, 40, draw) for c in mix_s.components]
        clouds_t = [ot.sample_gaussian(c, 40, draw) for c in mix_t.components]
        want = [[w1_empirical(x, y, **solver) for y in clouds_t] for x in clouds_s]
    assert table.dtype == np.float64
    assert table.tolist() == want


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
def test_per_class_matches_w1_empirical(sizes, seed):
    # Bitwise: per_class[k] is the pair's own w1_empirical (0.0 when a side
    # is empty), and value is the in-order weighted sum of per_class.
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
