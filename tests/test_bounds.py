"""Tests for the generalization-bound estimators."""

import json

import numpy as np
import pytest

from darsa.bounds import (
    BoundReport,
    SubdomainPartition,
    bound_report,
    check_decomposition,
    delta_c,
    source_risk,
    split_by_class,
    subdomain_risks,
)
from darsa.nn import loss_discrepancy_weighted
from darsa.ot import w1_exact_1d
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
    with pytest.raises(ValueError, match="assignment outside"):
        SubdomainPartition([0, 3], 3)


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
    assert delta_c([np.array([[1.0]]), np.array([[5.0, 2.0]])]) == 0.0


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
