"""Tests for the synthetic task generators and dataset plumbing."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from darsa.ot import w1_empirical, w1_exact_1d
from darsa.synthdata import (
    AuditError,
    Dataset,
    capped_indices,
    make_figure1_task,
    make_shifted_gmm,
    resample_with_props,
)
from darsa.weights import ClassWeights


# ---------------------------------------------------------------------------
# Figure-one style task
# ---------------------------------------------------------------------------


def test_figure1_source_label_fractions():
    source, target = make_figure1_task(0.05, 2000, seed=0)
    assert np.mean(source.labels == 0) == pytest.approx(0.70, abs=0.02)
    assert np.mean(target.labels == 0) == pytest.approx(0.30, abs=0.02)


def test_figure1_small_sigma_concentration():
    sigma = 1e-3
    source, _ = make_figure1_task(sigma, 500, seed=1)
    class0 = source.features[source.labels == 0].ravel()
    assert np.all(np.abs(class0 - (-1.5)) <= 5 * sigma)


def test_figure1_paired_cluster_distance():
    source, target = make_figure1_task(0.05, 2000, seed=2)
    dist = w1_exact_1d(
        source.features[source.labels == 0].ravel(),
        target.features[target.labels == 0].ravel(),
    )
    assert dist == pytest.approx(0.1, abs=0.02)


def test_figure1_deterministic():
    a_src, a_tgt = make_figure1_task(0.05, 100, seed=3)
    b_src, b_tgt = make_figure1_task(0.05, 100, seed=3)
    assert np.array_equal(a_src.features, b_src.features)
    assert np.array_equal(a_tgt.labels, b_tgt.labels)
    c_src, _ = make_figure1_task(0.05, 100, seed=4)
    assert not np.array_equal(a_src.features, c_src.features)


def test_figure1_validation():
    with pytest.raises(ValueError, match="sigma"):
        make_figure1_task(0.0, 100, seed=0)
    with pytest.raises(ValueError, match="two samples"):
        make_figure1_task(0.05, 1, seed=0)


# ---------------------------------------------------------------------------
# Shifted GMM task
# ---------------------------------------------------------------------------


def test_shifted_gmm_no_shift_same_distribution():
    props = ClassWeights(np.array([0.5, 0.5]))
    source, target = make_shifted_gmm(2, 2, 3.0, 0.0, props, props, 800, 0.2, seed=5)
    for k in range(2):
        mean_s = source.features[source.labels == k].mean(axis=0)
        mean_t = target.features[target.labels == k].mean(axis=0)
        assert np.abs(mean_s - mean_t).max() <= 0.1


def test_shifted_gmm_three_to_one_ratio():
    source, target = make_shifted_gmm(
        2, 2, 3.0, 0.3,
        ClassWeights(np.array([0.75, 0.25])), ClassWeights(np.array([0.25, 0.75])),
        2000, 0.2, seed=6,
    )
    assert np.mean(source.labels == 0) == pytest.approx(0.75, abs=0.03)
    assert np.mean(target.labels == 0) == pytest.approx(0.25, abs=0.03)


def test_shifted_gmm_paired_distance_audit():
    source, target = make_shifted_gmm(
        3, 2, 1.2, 0.5,
        ClassWeights(np.array([0.6, 0.2, 0.2])), ClassWeights(np.array([0.2, 0.2, 0.6])),
        600, 0.3, seed=7,
    )
    dist = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            dist[i, j] = w1_empirical(
                source.features[source.labels == i][:150],
                target.features[target.labels == j][:150],
                reg=0.05, max_iter=2000, tol=1e-5,
            )
    for i in range(3):
        assert dist[i, i] <= np.delete(dist[i], i).min()


def test_shifted_gmm_covariance_trace_bound():
    sigma, d = 0.3, 2
    source, _ = make_shifted_gmm(
        3, d, 2.0, 0.4,
        ClassWeights(np.array([0.4, 0.3, 0.3])), ClassWeights(np.array([0.3, 0.3, 0.4])),
        1500, sigma, seed=8,
    )
    for k in range(3):
        part = source.features[source.labels == k]
        trace = float(np.trace(np.atleast_2d(np.cov(part, rowvar=False))))
        assert trace <= d * sigma**2 * 1.3


def test_shifted_gmm_deterministic_and_seed_sensitive():
    args = (3, 2, 1.5, 0.4)
    props = (ClassWeights(np.array([0.6, 0.2, 0.2])), ClassWeights(np.array([0.2, 0.2, 0.6])))
    a_src, _ = make_shifted_gmm(*args, *props, 300, 0.3, seed=9)
    b_src, _ = make_shifted_gmm(*args, *props, 300, 0.3, seed=9)
    c_src, _ = make_shifted_gmm(*args, *props, 300, 0.3, seed=10)
    assert np.array_equal(a_src.features, b_src.features)
    assert not np.array_equal(a_src.features, c_src.features)


def test_shifted_gmm_audit_failure_is_error():
    props = ClassWeights(np.array([0.5, 0.5]))
    with pytest.raises(RuntimeError, match="paired-distance audit"):
        # Offset larger than the class gap cannot satisfy the paired
        # property in any direction.
        make_shifted_gmm(2, 1, 0.5, 2.0, props, props, 200, 0.05, seed=11)


@pytest.mark.parametrize("scale", [1e-3, 1e3, 1e6])
def test_shifted_gmm_generates_in_any_unit(scale):
    # The audit solves at a reg relative to each cost, so the README task
    # generates in any unit of length, with the labels of the unit task.
    props = (ClassWeights(np.array([0.6, 0.2, 0.2])), ClassWeights(np.array([0.2, 0.2, 0.6])))
    for seed in range(4):
        unit = make_shifted_gmm(3, 2, 1.0, 0.5, *props, 600, 0.3, seed=seed)
        scaled = make_shifted_gmm(3, 2, scale, 0.5 * scale, *props, 600, 0.3 * scale, seed=seed)
        for a, b in zip(unit, scaled):
            assert np.array_equal(b.labels, a.labels)
            np.testing.assert_allclose(b.features, scale * a.features, rtol=1e-12)


@pytest.mark.parametrize("domain", ["source", "target"])
def test_shifted_gmm_zero_proportion_names_empty_class(domain):
    # A class of proportion 0 is empty in every draw, so no retry can pass
    # the audit; the error names the class instead of advising on the means.
    props = {"source_props": ClassWeights(np.array([0.6, 0.2, 0.2])),
             "target_props": ClassWeights(np.array([0.2, 0.2, 0.6]))}
    props[f"{domain}_props"] = ClassWeights(np.array([0.5, 0.0, 0.5]))
    with pytest.raises(AuditError, match="paired-distance audit failed") as info:
        make_shifted_gmm(3, 2, 1.2, 0.5, n_per_domain=60, sigma=0.3, seed=0, **props)
    message = str(info.value)
    assert f"class 1 has proportion 0 in the {domain} domain" in message
    assert "mean_separation" not in message


@pytest.mark.parametrize("n, props", [(2, [0.6, 0.2, 0.2]), (300, [0.998, 0.001, 0.001])])
def test_shifted_gmm_class_empty_by_chance_names_class(n, props):
    # With two points per domain, or proportions of 0.001 at 300 points, a
    # class is empty by chance in every draw; the error names the class
    # most often empty and advises more points or a larger proportion for
    # it, not a change of the means.
    with pytest.raises(AuditError, match="every draw left a class empty") as info:
        make_shifted_gmm(
            3, 2, 1.2, 0.5, ClassWeights(np.array(props)), ClassWeights(np.array([0.2, 0.2, 0.6])),
            n_per_domain=n, sigma=0.3, seed=0,
        )
    message = str(info.value)
    assert re.search(
        r"class (\d) of the (source|target) domain in \d+ of them; "
        r"raise n_per_domain or the \2 proportion of class \1$",
        message,
    ), message
    assert "mean_separation" not in message


@pytest.mark.parametrize("n, cap", [(0, 4), (3, 4), (4, 4)])
def test_capped_indices_keeps_all_without_drawing(n, cap):
    rng = np.random.default_rng(7)
    assert np.array_equal(capped_indices(rng, n, cap), np.arange(n))
    assert rng.random() == np.random.default_rng(7).random()


@pytest.mark.parametrize("n, cap", [(5, 4), (600, 128)])
def test_capped_indices_draws_a_subset_without_replacement(n, cap):
    expected = np.random.default_rng(7).choice(n, cap, replace=False)
    assert np.array_equal(capped_indices(np.random.default_rng(7), n, cap), expected)


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------


def _labeled_dataset(rng, n=400, k=3):
    labels = rng.integers(0, k, size=n)
    return Dataset(rng.normal(size=(n, 2)), labels, k)


def test_resample_exact_counts():
    rng = np.random.default_rng(12)
    data = _labeled_dataset(rng)
    out = resample_with_props(data, ClassWeights(np.array([0.75, 0.25, 0.0])), 1000, seed=13)
    counts = np.bincount(out.labels, minlength=3)
    assert tuple(counts) == (750, 250, 0)


def test_resample_one_hot():
    rng = np.random.default_rng(14)
    data = _labeled_dataset(rng)
    out = resample_with_props(data, ClassWeights(np.array([1.0, 0.0, 0.0])), 50, seed=15)
    assert np.all(out.labels == 0)


def test_resample_preserves_empirical_proportions():
    rng = np.random.default_rng(16)
    data = _labeled_dataset(rng)
    props = data.class_proportions()
    out = resample_with_props(data, props, data.n, seed=17)
    expected = np.round(data.n * props.w).astype(int)
    assert np.array_equal(np.bincount(out.labels, minlength=3), expected)


def test_resample_missing_class_error():
    data = Dataset(np.zeros((4, 1)), np.array([0, 0, 0, 0]), 2)
    with pytest.raises(ValueError, match="class 1"):
        resample_with_props(data, ClassWeights(np.array([0.5, 0.5])), 10, seed=18)


def test_resample_deterministic():
    rng = np.random.default_rng(19)
    data = _labeled_dataset(rng)
    props = ClassWeights(np.array([0.2, 0.3, 0.5]))
    a = resample_with_props(data, props, 200, seed=20)
    b = resample_with_props(data, props, 200, seed=20)
    assert np.array_equal(a.features, b.features)


# ---------------------------------------------------------------------------
# Dataset plumbing
# ---------------------------------------------------------------------------


def test_dataset_csv_roundtrip_labeled(tmp_path):
    rng = np.random.default_rng(21)
    data = _labeled_dataset(rng, n=50)
    path = tmp_path / "data.csv"
    data.to_csv(path)
    restored = Dataset.from_csv(path)
    assert np.array_equal(restored.features, data.features)
    assert np.array_equal(restored.labels, data.labels)
    assert restored.k == data.k


def test_dataset_csv_roundtrip_unlabeled(tmp_path):
    data = Dataset(np.array([[0.25, -1.5], [3.0, 2.0]]), None, 1)
    path = tmp_path / "data.csv"
    data.to_csv(path)
    restored = Dataset.from_csv(path)
    assert restored.labels is None
    assert np.array_equal(restored.features, data.features)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    features=st.integers(1, 12).flatmap(
        lambda n: arrays(np.float64, (n, 3), elements=st.floats(allow_nan=False, allow_infinity=False))
    ),
    d=st.integers(1, 3),
    k=st.integers(1, 4),
    labeled=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_dataset_csv_roundtrip_exact_property(tmp_path_factory, features, d, k, labeled, seed):
    # Any finite values, subnormals, -0.0 and the largest doubles included,
    # come back bit for bit; labels and K come back exactly.
    features = features[:, :d]
    labels = None
    if labeled:
        labels = np.random.default_rng(seed).integers(0, k, size=len(features))
        labels[0] = k - 1
    data = Dataset(features, labels, k if labeled else 1)
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    data.to_csv(path)
    restored = Dataset.from_csv(path)
    assert restored.features.shape == data.features.shape
    assert restored.features.tobytes() == data.features.tobytes()
    assert (restored.labels is None) == (labels is None)
    if labeled:
        assert np.array_equal(restored.labels, data.labels)
    assert restored.k == data.k


def test_dataset_csv_malformed_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1\n0.0,1.0\n")
    with pytest.raises(ValueError, match="malformed CSV header"):
        Dataset.from_csv(path)


@pytest.mark.parametrize("header", ["f0,f1\n", "f0,label\n"])
def test_dataset_csv_header_only_rejected(tmp_path, header):
    path = tmp_path / "empty.csv"
    path.write_text(header)
    with pytest.raises(ValueError, match="no data rows"):
        Dataset.from_csv(path)


def test_dataset_manifest_fields():
    data = Dataset(np.zeros((7, 3)), np.zeros(7, dtype=int), 1)
    manifest = data.manifest(seed=42, generator={"name": "figure1"})
    assert manifest == {"k": 1, "d": 3, "n": 7, "seed": 42, "generator": {"name": "figure1"}}


def test_dataset_validation():
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(np.array([[np.nan]]), None, 1)
    with pytest.raises(ValueError, match="label outside"):
        Dataset(np.zeros((2, 1)), np.array([0, 5]), 2)
    with pytest.raises(ValueError, match="labels do not cover"):
        Dataset(np.zeros((3, 1)), np.array([0]), 1)
