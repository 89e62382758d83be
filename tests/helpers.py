"""Shared test oracles: finite differences and brute-force transport."""

import functools
from itertools import combinations

import numpy as np
import pytest

from darsa import ot

# A test that overflows the network's forward or backward pass on purpose
# ignores the RuntimeWarnings darsa.nn raises there, and only those.
NN_OVERFLOWS = pytest.mark.filterwarnings("ignore::RuntimeWarning:darsa.nn")


def fd_gradient(func, x, h=1e-5):
    """Central finite differences of a scalar function w.r.t. array x.

    Mutates x in place entry by entry and restores it; returns an array
    shaped like x.
    """
    flat = x.ravel()
    base = flat.copy()
    grad = np.zeros_like(base)
    for i in range(base.size):
        flat[i] = base[i] + h
        up = func()
        flat[i] = base[i] - h
        down = func()
        flat[i] = base[i]
        grad[i] = (up - down) / (2.0 * h)
    return grad.reshape(x.shape)


def max_rel_error(approx, exact):
    """Max abs difference over the max magnitude of either argument."""
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    scale = max(np.abs(approx).max(initial=0.0), np.abs(exact).max(initial=0.0), 1e-8)
    return float(np.abs(approx - exact).max() / scale)


def bruteforce_ot_cost(cost, a, b):
    """Exact transport cost by enumerating basis supports.

    Vertices of the transport polytope have at most n + m - 1 nonzero
    cells; every support of that size is tried, the flows solved by least
    squares, and infeasible candidates discarded. Exponential, so keep
    n * m small.
    """
    cost = np.asarray(cost, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n, m = cost.shape
    cells = [(i, j) for i in range(n) for j in range(m)]
    # Row and column sum constraints (one redundant row kept; lstsq copes).
    rows = np.zeros((n + m, n * m))
    for idx, (i, j) in enumerate(cells):
        rows[i, idx] = 1.0
        rows[n + j, idx] = 1.0
    rhs = np.concatenate([a, b])
    best = np.inf
    for support in combinations(range(n * m), n + m - 1):
        sol, _, _, _ = np.linalg.lstsq(rows[:, support], rhs, rcond=None)
        if np.any(sol < -1e-9):
            continue
        full = np.zeros(n * m)
        full[list(support)] = np.maximum(sol, 0.0)
        if np.abs(rows @ full - rhs).max() > 1e-8:
            continue
        best = min(best, float(cost.ravel() @ full))
    return best


def in_float32(test):
    """A copy of ``test`` that runs with the Sinkhorn solver's float32 cell
    threshold at 1, so that every solve whose masses are normal float32
    numbers sweeps in float32. Parametrizations and hypothesis draws carry
    over."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ot, "F32_CELLS", 1)
            test(*args, **kwargs)

    return run
