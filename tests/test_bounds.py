"""Tests for the generalization-bound estimators."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darsa import ot
from darsa.bounds import (
    BoundReport,
    SubdomainPartition,
    bound_report,
    check_decomposition,
    delta_c,
    discrepancy_terms,
    source_risk,
    split_by_class,
    subdomain_risks,
)
from darsa.nn import loss_discrepancy_weighted
from darsa.ot import w1_empirical, w1_exact_1d, weighted_subdomain_w1
from darsa.synthdata import make_figure1_task
from darsa.weights import ClassWeights


# ---------------------------------------------------------------------------
# Risks
# ---------------------------------------------------------------------------


def test_source_risk_perfect():
    assert source_risk([0, 1, 2], [0, 1, 2]) == 0.0


def test_source_risk_all_wrong():
    assert source_risk([1, 1, 1], [0, 0, 0]) == 1.0


def test_source_risk_constant_on_balanced():
    assert source_risk([0, 0, 0, 0], [0, 0, 1, 1]) == 0.5


def test_source_risk_length_mismatch():
    with pytest.raises(ValueError, match="differ in length"):
        source_risk([0, 1], [0, 1, 1])


def test_subdomain_risks_perfect():
    part = SubdomainPartition([0, 1, 2, 0], 3)
    result = subdomain_risks([0, 1, 2, 0], [0, 1, 2, 0], part)
    assert np.array_equal(result.risks, np.zeros(3))


def test_subdomain_risks_single_class_matches_overall():
    preds = [0, 1, 1, 0]
    labels = [0, 0, 1, 1]
    part = SubdomainPartition([0, 0, 0, 0], 1)
    result = subdomain_risks(preds, labels, part)
    assert result.risks[0] == source_risk(preds, labels)


def test_subdomain_risks_hand_count():
    labels = np.array([0, 0, 1, 1])
    preds = np.array([0, 1, 1, 1])
    part = SubdomainPartition(labels, 2)
    result = subdomain_risks(preds, labels, part)
    assert np.allclose(result.risks, [0.5, 0.0])
    assert result.skipped == ()


def test_subdomain_risks_empty_class_skipped():
    part = SubdomainPartition([0, 0], 3)
    result = subdomain_risks([0, 0], [0, 1], part)
    assert result.skipped == (1, 2)
    assert result.risks[1] == result.risks[2] == 0.0


def test_partition_validation():
    with pytest.raises(ValueError, match="K must be positive"):
        SubdomainPartition([0], 0)
    with pytest.raises(ValueError, match="label outside 0..2"):
        SubdomainPartition([0, 3], 3)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 6), n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
def test_class_counts_equal_the_per_class_means(k, n, seed):
    # Sizes and error counts taken by counting give the per-class means of
    # the grouped rows bit for bit, also where a draw leaves classes empty.
    rng = np.random.default_rng(seed)
    labels = rng.choice(rng.choice(k, size=rng.integers(1, k + 1), replace=False), size=n)
    preds = np.where(rng.random(n) < rng.random(), labels + 1, labels)
    rows = [np.flatnonzero(labels == c) for c in range(k)]
    result = subdomain_risks(preds, labels, SubdomainPartition(labels, k))
    assert result.risks.tolist() == [np.mean(preds[r] != labels[r]) if r.size else 0.0 for r in rows]
    assert result.skipped == tuple(c for c in range(k) if rows[c].size == 0)
    sizes = np.array([r.size for r in rows], dtype=float)
    assert ClassWeights.from_labels(labels, k).w.tolist() == (sizes / sizes.sum()).tolist()


# ---------------------------------------------------------------------------
# Decomposition identity
# ---------------------------------------------------------------------------


def test_decomposition_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 1001))
        k = int(rng.integers(1, 11))
        labels = rng.integers(0, k, size=n)
        preds = rng.integers(0, k, size=n)
        residual = check_decomposition(preds, labels, SubdomainPartition(labels, k))
        assert residual <= 1e-12


def test_decomposition_perfect_predictions():
    labels = np.array([0, 1, 2, 1])
    assert check_decomposition(labels, labels, SubdomainPartition(labels, 3)) == 0.0


def test_decomposition_single_class():
    preds = np.array([0, 1, 0])
    labels = np.array([1, 1, 0])
    assert check_decomposition(preds, labels, SubdomainPartition([0, 0, 0], 1)) <= 1e-15


# ---------------------------------------------------------------------------
# delta_c
# ---------------------------------------------------------------------------


def test_delta_c_single_points():
    assert delta_c([np.array([[1.0, 3.0]]), np.array([[5.0, 2.0]])]) == 0.0


def test_delta_c_dominant_1d_variance():
    # Two points with sample variance exactly 0.0025.
    part = np.array([[0.0], [np.sqrt(0.005)]])
    assert delta_c([part, np.array([[9.0]])]) == pytest.approx(0.2)


def test_delta_c_isotropic_2d():
    a = np.sqrt(0.0075)
    part = np.array([[a, a], [a, -a], [-a, a], [-a, -a]])
    assert delta_c([part]) == pytest.approx(4 * np.sqrt(0.02))


def test_delta_c_all_empty():
    with pytest.raises(ValueError, match="all parts empty"):
        delta_c([np.empty((0, 2))])


def test_delta_c_past_the_square_of_float64_scales_by_powers_of_two():
    # The covariance of features near 1e200 overflows, but 4*sqrt(trace) does
    # not: it is 2**600 times delta_c of the parts over 2**600, where power-of-two
    # scaling is exact. It used to be inf, with an overflow warning.
    rng = np.random.default_rng(0)
    parts = [1e200 * rng.standard_normal((50, 2)), 1e199 * rng.standard_normal((30, 2))]
    value = delta_c(parts)
    assert np.isfinite(value)
    assert value == 2.0**600 * delta_c([p / 2.0**600 for p in parts])
    with pytest.raises(ValueError, match="delta_c overflows float64"):
        delta_c([np.array([[1e308], [-1e308]])])
    # Near 1e-170 the squared deviations would underflow to a slack of 0.
    tiny = 1e-170 * rng.standard_normal((50, 1))
    assert delta_c([tiny]) == math.ldexp(delta_c([np.ldexp(tiny, 565)]), -565) > 0.0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), e=st.integers(-10, 23),
       j=st.integers(-1000, 1000))
@example(seed=9, d=1, e=23, j=1000)  # both values pass float64
def test_delta_c_and_w1_exact_1d_scale_by_powers_of_two_exactly(seed, d, e, j):
    # Both values are homogeneous of degree one, and both are computed in units
    # of a power of two at the inputs' scale, where scaling is exact. So the
    # value at 2**j times the inputs is 2**j times the value while that is a
    # normal float, and past float64 it raises; nothing warns. The inputs are
    # multiples of 2**-22 below 2**24, so times 2**j they stay normal floats.
    rng = np.random.default_rng(seed)

    def draw(*shape):
        values = np.round(np.ldexp(rng.standard_normal(shape), e + 22))
        return np.ldexp(np.clip(values, 1 - 2.0**46, 2.0**46 - 1), -22)

    cases = [
        ("delta_c", lambda *parts: delta_c(list(parts)),
         [draw(rng.integers(1, 9), d) for _ in range(rng.integers(1, 4))]),
        ("W1", w1_exact_1d, [draw(rng.integers(1, 21)) for _ in range(2)]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for what, func, args in cases:
            value = func(*args)
            scaled = [np.ldexp(a, j) for a in args]
            try:
                expected = math.ldexp(value, j)
            except OverflowError:
                with pytest.raises(ValueError, match=f"^{what} overflows float64$"):
                    func(*scaled)
                continue
            if expected == 0.0 or expected >= np.finfo(float).tiny:
                assert func(*scaled) == expected


# ---------------------------------------------------------------------------
# bound_report
# ---------------------------------------------------------------------------


def test_bound_report_identical_domains():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(80, 2))
    labels = rng.integers(0, 2, size=80)
    w_t = ClassWeights.from_labels(labels, 2)
    report = bound_report(
        feats, labels, labels, feats, labels, w_t, reg=0.01, max_iter=5000, tol=1e-7
    )
    bias = 0.01 * np.log(80)
    assert report.gamma_s == 0.0
    assert report.gamma_s_weighted == 0.0
    assert report.disc_overall <= bias
    assert report.disc_weighted <= bias
    assert report.eps_c_partial <= bias
    assert report.eps_g_partial <= bias


def test_bound_report_figure1_raw_features():
    source, target = make_figure1_task(0.05, 2000, seed=2)
    w_t = target.class_proportions()
    report = bound_report(
        source.features, source.labels, source.labels,
        target.features, target.labels, w_t,
        reg=0.005, max_iter=5000, tol=1e-7,
    )
    pooled_oracle = w1_exact_1d(source.features.ravel(), target.features.ravel())
    assert report.disc_weighted == pytest.approx(0.10, abs=0.03)
    assert report.disc_overall == pytest.approx(pooled_oracle, abs=0.05)
    assert report.disc_overall >= 1.0
    assert report.disc_weighted <= report.disc_overall + report.delta_c


def test_bound_report_single_subdomain_collapse():
    rng = np.random.default_rng(3)
    feat_s = rng.normal(size=(60, 3))
    feat_t = rng.normal(size=(50, 3)) + 0.4
    labels = np.zeros(60, dtype=int)
    pseudo = np.zeros(50, dtype=int)
    preds = rng.integers(0, 1, size=60)
    report = bound_report(
        feat_s, preds, labels, feat_t, pseudo, ClassWeights(np.array([1.0])),
        reg=0.01, max_iter=5000, tol=1e-7,
    )
    assert report.gamma_s_weighted == report.gamma_s
    assert report.disc_weighted == pytest.approx(report.disc_overall, abs=1e-9)


def test_bound_report_reweighting_collapse():
    rng = np.random.default_rng(4)
    k = 4
    labels = rng.integers(0, k, size=500)
    preds = rng.integers(0, k, size=500)
    feats = rng.normal(size=(500, 2))
    w_source = ClassWeights.from_labels(labels, k)
    report = bound_report(
        feats, preds, labels, feats, labels, w_source,
        reg=0.05, max_iter=2000, tol=1e-5,
    )
    assert report.gamma_s_weighted == pytest.approx(report.gamma_s, abs=1e-12)


def test_bound_report_internal_sums_exact():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(40, 2))
    labels = rng.integers(0, 2, size=40)
    preds = rng.integers(0, 2, size=40)
    report = bound_report(
        feats, preds, labels, feats + 0.3, labels, ClassWeights.from_labels(labels, 2),
        reg=0.05, max_iter=2000, tol=1e-5,
    )
    assert report.eps_g_partial == report.gamma_s + report.disc_overall
    assert report.eps_c_partial == report.gamma_s_weighted + report.disc_weighted


def test_bound_report_serialization_field_names():
    report = BoundReport(
        gamma_s=0.1, gamma_s_weighted=0.2, disc_overall=1.0, disc_weighted=0.5,
        delta_c=0.3, eps_g_partial=1.1, eps_c_partial=0.7, skipped_subdomains=1,
    )
    obj = json.loads(report.to_json())
    assert set(obj) == {
        "gamma_s", "gamma_s_weighted", "disc_overall", "disc_weighted",
        "delta_c", "eps_g_partial", "eps_c_partial", "skipped_subdomains",
    }
    with pytest.raises(ValueError, match="reconstruct"):
        BoundReport(
            gamma_s=0.1, gamma_s_weighted=0.2, disc_overall=1.0, disc_weighted=0.5,
            delta_c=0.3, eps_g_partial=2.0, eps_c_partial=0.7, skipped_subdomains=0,
        )


@pytest.mark.parametrize("with_risks", [False, True], ids=["discrepancy_terms", "bound_report"])
def test_feature_dimension_mismatch_raises(with_risks):
    rng = np.random.default_rng(6)
    labels = np.arange(10) % 2
    feat_s, feat_t = rng.normal(size=(10, 2)), rng.normal(size=(10, 3))
    w_t = ClassWeights.uniform(2)
    with pytest.raises(ValueError, match="feature spaces differ in dimension"):
        if with_risks:
            bound_report(feat_s, labels, labels, feat_t, labels, w_t)
        else:
            discrepancy_terms(feat_s, labels, feat_t, labels, w_t)


def test_split_by_class():
    feats = np.arange(8, dtype=float).reshape(4, 2)
    labels = np.array([1, 0, 1, 1])
    parts = split_by_class(feats, labels, 3)
    assert np.array_equal(parts[0], feats[[1]])
    assert np.array_equal(parts[1], feats[[0, 2, 3]])
    assert parts[2].shape == (0, 2)


@pytest.mark.parametrize("bad_label", [2, -1])
@pytest.mark.parametrize("call", ["bound_report", "split_by_class", "loss_discrepancy_weighted"])
def test_label_outside_classes_raises(call, bad_label):
    # A pseudo-label outside 0..K-1 belongs to no sub-domain; it must raise
    # rather than drop its rows from every per-class term.
    rng = np.random.default_rng(6)
    feat_s, feat_t = rng.normal(size=(40, 2)), rng.normal(size=(40, 2))
    labels = np.arange(40) % 2
    pseudo = labels.copy()
    pseudo[:10] = bad_label
    w_t = ClassWeights(np.array([0.5, 0.5]))
    calls = {
        "bound_report": lambda: bound_report(
            feat_s, labels, labels, feat_t, pseudo, w_t, reg=0.05
        ),
        "split_by_class": lambda: split_by_class(feat_t, pseudo, 2),
        "loss_discrepancy_weighted": lambda: loss_discrepancy_weighted(
            feat_s, labels, feat_t, pseudo, w_t
        ),
    }
    with pytest.raises(ValueError, match="label outside 0..1"):
        calls[call]()


@pytest.mark.parametrize("side", ["source", "target"])
def test_discrepancy_labels_must_cover_features(side):
    # A label vector shorter than its features would leave the extra rows
    # out of every class, with zero gradient; it must raise instead.
    rng = np.random.default_rng(7)
    feat_s, feat_t = rng.normal(size=(10, 2)), rng.normal(size=(10, 2))
    labels_s = labels_t = np.arange(10) % 2
    if side == "source":
        labels_s = labels_s[:8]
    else:
        labels_t = labels_t[:8]
    w_t = ClassWeights(np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="labels do not cover"):
        loss_discrepancy_weighted(feat_s, labels_s, feat_t, labels_t, w_t)


# ---------------------------------------------------------------------------
# discrepancy_terms: exact on one column, entropic on more
# ---------------------------------------------------------------------------


def _outcome(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return call()
    except (ValueError, ot.SinkhornDivergenceError) as exc:
        return type(exc), str(exc)


def _class_draw(k, empty_share, d, seed):
    """Features with ``d`` columns and shuffled labels of ``k`` classes, each
    class 1 to 15 rows a domain or, with probability ``empty_share``, none;
    the target is shifted off the source."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 16, size=(2, k)) * (rng.random((2, k)) >= empty_share)
    labels_s, labels_t = (rng.permutation(np.repeat(np.arange(k), side)) for side in sizes)
    feat_s = rng.normal(size=(labels_s.size, d))
    feat_t = rng.normal(size=(labels_t.size, d)) + rng.normal()
    return feat_s, labels_s, feat_t, labels_t, ClassWeights(rng.dirichlet(np.ones(k)))


CLASS_DRAW = dict(
    k=st.integers(1, 4),
    empty_share=st.sampled_from([0.0, 0.3, 0.6]),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(**CLASS_DRAW)
def test_one_column_terms_are_exact(k, empty_share, seed):
    # Every W1 term of one-column features is w1_exact_1d's, empty classes
    # and all-empty pairs included; the weighted value is summed in class order.
    feat_s, labels_s, feat_t, labels_t, w_t = _class_draw(k, empty_share, 1, seed)
    got = _outcome(lambda: discrepancy_terms(feat_s, labels_s, feat_t, labels_t, w_t))
    if not (labels_s.size and labels_t.size):
        assert got == (ValueError, "empty sample set")
        return
    parts_s, parts_t = split_by_class(feat_s, labels_s, k), split_by_class(feat_t, labels_t, k)
    skipped = tuple(c for c in range(k) if not (parts_s[c].size and parts_t[c].size))
    if len(skipped) == k:
        assert got == (ValueError, "no aligned sub-domains")
        return
    pooled, weighted, slack = got
    assert pooled == w1_exact_1d(feat_s, feat_t)
    per_class = tuple(0.0 if c in skipped else w1_exact_1d(parts_s[c], parts_t[c])
                      for c in range(k))
    total = 0.0
    for c in range(k):
        if c not in skipped:
            total += w_t[c] * per_class[c]
    assert weighted == (total, skipped, per_class)
    assert weighted == ot._subdomain_sum(parts_s, parts_t, w_t, w1_exact_1d)
    assert slack == delta_c(parts_s + parts_t)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(**CLASS_DRAW)
def test_multi_column_terms_are_the_entropic_solves(k, empty_share, seed):
    # With two columns every W1 term is w1_empirical's, as the public
    # entropic functions return it called directly.
    feat_s, labels_s, feat_t, labels_t, w_t = _class_draw(k, empty_share, 2, seed)
    solver = dict(reg=0.05, max_iter=2000, tol=1e-5, reg_mode="relative")
    got = _outcome(lambda: discrepancy_terms(feat_s, labels_s, feat_t, labels_t, w_t, **solver))
    pooled = _outcome(lambda: w1_empirical(feat_s, feat_t, **solver))
    if not isinstance(pooled, float):
        assert got == pooled
        return
    parts_s, parts_t = split_by_class(feat_s, labels_s, k), split_by_class(feat_t, labels_t, k)
    weighted = _outcome(lambda: weighted_subdomain_w1(parts_s, parts_t, w_t, **solver))
    if not isinstance(weighted, ot.WeightedSubdomainW1):
        assert got == weighted
        return
    assert got == (pooled, weighted, delta_c(parts_s + parts_t))


@pytest.mark.parametrize(
    "solver, message",
    [
        ({"reg": 0.0}, "reg must be positive and finite"),
        ({"reg": np.nan}, "reg must be positive and finite"),
        ({"max_iter": 0}, "max_iter must be positive"),
        ({"tol": -1.0}, "tol must be non-negative"),
        ({"reg_mode": "x"}, "unknown reg_mode 'x'"),
    ],
)
def test_one_column_terms_check_the_solver_settings(solver, message):
    # The exact terms run no solve, but settings a solve would reject are
    # still an input error, with the solve's message.
    labels = np.arange(10) % 2
    feats = np.linspace(0.0, 1.0, 10)[:, None]
    with pytest.raises(ValueError, match=f"^{message}$"):
        discrepancy_terms(feats, labels, feats + 0.5, labels, ClassWeights.uniform(2), **solver)
