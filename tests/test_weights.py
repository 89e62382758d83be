"""Label vectors, feature matrices, probability vectors and transport costs: the one
conversion and check of each, and every public entry point that takes one."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darsa.bounds import (
    SubdomainPartition,
    bound_report,
    delta_c,
    discrepancy_terms,
    source_risk,
    split_by_class,
    subdomain_risks,
)
from darsa.nn import (
    cross_entropy,
    loss_classification_weighted,
    loss_discrepancy_weighted,
    loss_inter,
    loss_intra,
)
from darsa.ot import (
    GaussianComponent,
    GaussianMixture,
    euclidean_cost_matrix,
    ot_exact_discrete,
    sample_gmm,
    sinkhorn,
    w1_empirical,
    w1_exact_1d,
    weighted_subdomain_w1,
)
from darsa.synthdata import Dataset
from darsa.training import (
    DarsaConfig,
    accuracy,
    apply_models,
    default_networks,
    estimate_target_weights,
    fit,
    predict,
)
from darsa.weights import ClassWeights, aligned_classes, as_features, as_labels, class_rows

# ---------------------------------------------------------------------------
# as_labels
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-(2**53), 2**53), max_size=20))
def test_as_labels_whole_floats_map_to_their_ints(values):
    labels = as_labels(np.array(values, dtype=float))
    assert labels.dtype == np.int_
    assert labels.tolist() == values


def _not_a_label(value):
    return not (math.isfinite(value) and value == math.trunc(value) and abs(value) < 2.0**63)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=20),
    st.floats(allow_nan=True, allow_infinity=True).filter(_not_a_label),
    st.integers(0, 19),
)
def test_as_labels_rejects_non_integral_values_without_warning(values, bad, position):
    labels = np.array(values, dtype=float)
    labels[position % labels.size] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="labels must be whole numbers"):
            as_labels(labels)


def test_as_labels_int_and_bool_input():
    labels = np.arange(6).reshape(2, 3)
    # Int input is flattened without a copy.
    assert np.shares_memory(as_labels(labels), labels)
    assert as_labels(labels).tolist() == list(range(6))
    assert as_labels([True, False]).tolist() == [1, 0]
    assert as_labels([]).dtype == np.int_


def test_as_labels_checks_length_and_range_when_given():
    assert as_labels([0, 2], k=3, n=2).tolist() == [0, 2]
    with pytest.raises(ValueError, match="labels do not cover"):
        as_labels([0, 1], n=3)
    with pytest.raises(ValueError, match="label outside 0..1"):
        as_labels([0, 2], k=2)
    with pytest.raises(ValueError, match="label outside 0..1"):
        as_labels([-1.0, 1.0], k=2)


# ---------------------------------------------------------------------------
# aligned_classes
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=6), st.integers(-1, 1))
def test_aligned_classes_pairs_the_classes_non_empty_on_both_sides(sizes, extra):
    # Source classes as feature parts, target classes as row indices; ``extra``
    # adds a target class or drops one.
    source = [np.zeros((n, 2)) for n, _ in sizes]
    target = [np.arange(m) for _, m in sizes]
    if extra > 0:
        target.append(np.arange(1))
    elif extra < 0 and target:
        target.pop()
    if len(source) != len(target):
        with pytest.raises(ValueError, match="^source and target class lists differ in length$"):
            aligned_classes(source, target)
        return
    aligned, skipped = aligned_classes(source, target)
    assert aligned == [c for c, (n, m) in enumerate(sizes) if n and m]
    assert skipped == tuple(c for c, (n, m) in enumerate(sizes) if not (n and m))
    assert sorted(aligned + list(skipped)) == list(range(len(sizes)))


# ---------------------------------------------------------------------------
# Every public label entry point
# ---------------------------------------------------------------------------

_RNG = np.random.default_rng(12)
Y = np.array([1, 0, 1, 1, 0, 0, 1, 0])
FEAT = _RNG.normal(size=(8, 2))
LOGITS = _RNG.normal(size=(8, 2))
W = ClassWeights(np.array([0.4, 0.6]))
CONFIG = DarsaConfig(epochs=1, pretrain_epochs=1, batch_size=8, snapshot_max=8, seed=0)
NETS = default_networks(2, 2, CONFIG, np.random.default_rng(0))


def _report(preds=Y, labels=Y, pseudo=Y):
    return bound_report(FEAT, preds, labels, FEAT + 0.5, pseudo, W, reg=0.05).to_dict()


ENTRY_POINTS = {
    "class_rows": lambda y: class_rows(y, 2),
    "ClassWeights.from_labels": lambda y: ClassWeights.from_labels(y, 2).w,
    "cross_entropy": lambda y: cross_entropy(LOGITS, y),
    "loss_classification_weighted": lambda y: loss_classification_weighted(LOGITS, y, W, W),
    "loss_intra": lambda y: loss_intra(FEAT, y, 1.0),
    "loss_discrepancy_weighted[labels_s]": lambda y: loss_discrepancy_weighted(
        FEAT, y, FEAT + 0.5, Y, W
    ),
    "loss_discrepancy_weighted[pseudo_t]": lambda y: loss_discrepancy_weighted(
        FEAT, Y, FEAT + 0.5, y, W
    ),
    "SubdomainPartition": lambda y: SubdomainPartition(y, 2).assignments,
    "source_risk[predictions]": lambda y: source_risk(y, Y),
    "source_risk[labels]": lambda y: source_risk(Y, y),
    "subdomain_risks": lambda y: subdomain_risks(Y[::-1], y, SubdomainPartition(Y, 2)),
    "split_by_class": lambda y: split_by_class(FEAT, y, 2),
    "bound_report[predictions]": lambda y: _report(preds=y),
    "bound_report[labels]": lambda y: _report(labels=y),
    "bound_report[pseudo_labels]": lambda y: _report(pseudo=y),
    "Dataset": lambda y: Dataset(FEAT, y, 2).labels,
    "fit[eval_labels]": lambda y: fit(
        Dataset(FEAT, Y, 2), Dataset(FEAT + 0.5, None, 2), CONFIG, eval_labels=y
    )[1].to_jsonl(),
    "training.accuracy": lambda y: accuracy(*NETS, FEAT, y),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_label_entry_point_rejects_a_fractional_label(entry):
    # A fractional label belongs to no sub-domain; truncating it would move
    # its row into another one.
    labels = Y.astype(float)
    labels[0] = 0.5
    with pytest.raises(ValueError, match="labels must be whole numbers"):
        ENTRY_POINTS[entry](labels)


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_label_entry_point_reads_whole_floats_as_ints(entry):
    np.testing.assert_equal(ENTRY_POINTS[entry](Y.astype(float)), ENTRY_POINTS[entry](Y))


# Entries that know no class count: their labels are only compared.
WITHOUT_K = {
    "loss_intra", "source_risk[predictions]", "source_risk[labels]", "subdomain_risks",
    "bound_report[predictions]",
}


@pytest.mark.parametrize("bad", [-1, 2])
@pytest.mark.parametrize("entry", [e for e in ENTRY_POINTS if e not in WITHOUT_K])
def test_label_entry_point_rejects_a_label_outside_its_classes(entry, bad):
    # A label outside 0..K-1 matches no prediction: accuracy and fit's
    # target_accuracy used to count it as a miss and report 0.0.
    labels = Y.copy()
    labels[0] = bad
    with pytest.raises(ValueError, match=r"^(label|assignment) outside 0\.\.1$"):
        ENTRY_POINTS[entry](labels)


# ---------------------------------------------------------------------------
# as_features, and every public feature entry point
# ---------------------------------------------------------------------------


def test_as_features_does_not_copy_float64_input():
    assert np.shares_memory(as_features(FEAT, "x"), FEAT)
    row = as_features(FEAT[0], "x")
    assert row.shape == (1, 2) and np.shares_memory(row, FEAT)
    assert as_features([[1, 2]], "x").dtype == np.float64


X1 = FEAT[:, 0].copy()
FEATURE_ENTRY_POINTS = {
    # entry: (call on the matrix under test, that matrix when valid, its name in errors)
    "euclidean_cost_matrix[x]": (lambda x: euclidean_cost_matrix(x, FEAT), FEAT, "x"),
    "euclidean_cost_matrix[y]": (lambda x: euclidean_cost_matrix(FEAT, x), FEAT, "y"),
    "w1_empirical[x]": (lambda x: w1_empirical(x, FEAT + 0.5), FEAT, "x"),
    "w1_empirical[y]": (lambda x: w1_empirical(FEAT, x), FEAT, "y"),
    "w1_exact_1d[samples_a]": (lambda x: w1_exact_1d(x, X1), X1, "samples_a"),
    "w1_exact_1d[samples_b]": (lambda x: w1_exact_1d(X1, x), X1, "samples_b"),
    "split_by_class": (lambda x: split_by_class(x, Y, 2), FEAT, "features"),
    "delta_c": (lambda x: delta_c([x, FEAT]), FEAT, "parts"),
    "weighted_subdomain_w1[source_parts]": (
        lambda x: weighted_subdomain_w1([x, FEAT], [FEAT + 0.5, FEAT], W, reg=0.05),
        FEAT,
        "source_parts",
    ),
    "weighted_subdomain_w1[target_parts]": (
        lambda x: weighted_subdomain_w1([FEAT, FEAT], [x, FEAT + 0.5], W, reg=0.05),
        FEAT,
        "target_parts",
    ),
    # Cross-class: each pair holds one feature space, the two pairs differ.
    "weighted_subdomain_w1[cross-class]": (
        lambda x: weighted_subdomain_w1([FEAT, x], [FEAT + 0.5, x + 0.5], W, reg=0.05),
        FEAT,
        "source_parts",
    ),
    "discrepancy_terms[source]": (
        lambda x: discrepancy_terms(x, Y, FEAT + 0.5, Y, W), FEAT, "source_features"
    ),
    "discrepancy_terms[target]": (
        lambda x: discrepancy_terms(FEAT, Y, x, Y, W), FEAT, "target_features"
    ),
    "bound_report[source]": (
        lambda x: bound_report(x, Y, Y, FEAT + 0.5, Y, W), FEAT, "source_features"
    ),
    "bound_report[target]": (
        lambda x: bound_report(FEAT, Y, Y, x, Y, W), FEAT, "target_features"
    ),
    "loss_discrepancy_weighted[feat_s]": (
        lambda x: loss_discrepancy_weighted(x, Y, FEAT + 0.5, Y, W), FEAT, "feat_s"
    ),
    "loss_discrepancy_weighted[feat_t]": (
        lambda x: loss_discrepancy_weighted(FEAT, Y, x, Y, W), FEAT, "feat_t"
    ),
    "loss_intra": (lambda x: loss_intra(x, Y, 1.0), FEAT, "features"),
    "loss_inter[parts_s]": (lambda x: loss_inter([x, FEAT], [FEAT + 0.5, FEAT]), FEAT, "parts_s"),
    "loss_inter[parts_t]": (lambda x: loss_inter([FEAT, FEAT], [x, FEAT + 0.5]), FEAT, "parts_t"),
    "loss_inter[cross-class]": (
        lambda x: loss_inter([FEAT, x], [FEAT + 0.5, x + 0.5]), FEAT, "parts_s"
    ),
    "apply_models": (lambda x: apply_models(*NETS, x), FEAT, "x"),
    "predict": (lambda x: predict(*NETS, x), FEAT, "x"),
    "estimate_target_weights": (lambda x: estimate_target_weights(*NETS, x, 1e-3), FEAT, "x"),
    "Dataset": (lambda x: Dataset(x, Y, 2), FEAT, "features"),
}
# Where the matrix meets no other one; w1_exact_1d rejects a second column
# with its own message. A part list holds one feature space, so delta_c's
# parts meet each other.
ALONE = {"split_by_class", "loss_intra", "Dataset"}
PAIRED = [e for e in FEATURE_ENTRY_POINTS if e not in ALONE and not e.startswith("w1_exact_1d")]


def _raises_without_warning(call, x, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", list(FEATURE_ENTRY_POINTS))
def test_feature_entry_point_rejects_a_non_finite_value(entry, bad):
    # A non-finite feature has no distance, variance or class score: NaN
    # parts used to drop out of delta_c, and a NaN row was predicted class 0.
    _, valid, name = FEATURE_ENTRY_POINTS[entry]
    x = valid.copy()
    x.flat[3] = bad
    _raises_without_warning(FEATURE_ENTRY_POINTS[entry][0], x, f"non-finite value in {name}")


@pytest.mark.parametrize("entry", list(FEATURE_ENTRY_POINTS))
def test_feature_entry_point_rejects_a_3d_array(entry):
    _, valid, name = FEATURE_ENTRY_POINTS[entry]
    x = valid.reshape(len(valid), -1, 1)
    _raises_without_warning(
        FEATURE_ENTRY_POINTS[entry][0], x, f"{name} must be a 2-D feature matrix, got 3 dimensions"
    )


@pytest.mark.parametrize("entry", PAIRED)
def test_feature_entry_point_rejects_a_column_mismatch(entry):
    _raises_without_warning(
        FEATURE_ENTRY_POINTS[entry][0], FEAT[:, :1], "feature spaces differ in dimension"
    )


# ---------------------------------------------------------------------------
# as_simplex, and every public probability-vector entry point; the transport
# cost check, and both solvers that take a cost
# ---------------------------------------------------------------------------

HALF = [0.5, 0.5]
LINE = {"mean": [0.0], "covariance": [[1.0]]}
SIMPLEX_ENTRY_POINTS = {
    # entry: (call on the vector under test, returning the vector it keeps; its name in errors)
    "ClassWeights": (lambda p: ClassWeights(p).w, "class weights"),
    "sinkhorn[a]": (
        lambda p: sinkhorn(np.ones((len(p), 2)), p, HALF, 0.1).row_marginal, "marginal a"
    ),
    "sinkhorn[b]": (
        lambda p: sinkhorn(np.ones((2, len(p))), HALF, p, 0.1).col_marginal, "marginal b"
    ),
    "ot_exact_discrete[a]": (
        lambda p: ot_exact_discrete(np.ones((len(p), 2)), p, HALF).row_marginal, "marginal a"
    ),
    "ot_exact_discrete[b]": (
        lambda p: ot_exact_discrete(np.ones((2, len(p))), HALF, p).col_marginal, "marginal b"
    ),
    "GaussianMixture.from_dict": (
        lambda p: GaussianMixture.from_dict({"weights": p, "components": [LINE] * len(p)})
        .weights.w,
        "class weights",
    ),
}


@pytest.mark.parametrize(
    "p, message",
    [
        # A NaN atom used to pass the sum check: sinkhorn sliced it out as a
        # zero mass and reported converged, or reduced an empty problem.
        ([np.nan, 1.0], "non-finite value in {name}"),
        ([np.nan], "non-finite value in {name}"),
        ([0.5, np.inf], "non-finite value in {name}"),
        ([1.001, -1e-3], "negative value in {name}"),
        ([0.25, 0.25], "{name} must sum to 1, got 0.5"),
        ([], "{name} must be non-empty"),
        # The sum of these finite entries overflows: no warning, the same check.
        ([1e308, 1e308], "{name} must sum to 1, got inf"),
    ],
    ids=["nan", "nan-alone", "inf", "negative", "sum", "empty", "overflow"],
)
@pytest.mark.parametrize("entry", list(SIMPLEX_ENTRY_POINTS))
def test_simplex_entry_point_rejects_a_vector_off_the_simplex(entry, p, message):
    call, name = SIMPLEX_ENTRY_POINTS[entry]
    _raises_without_warning(call, np.array(p), re.escape(message.format(name=name)))


@pytest.mark.parametrize("entry", list(SIMPLEX_ENTRY_POINTS))
def test_simplex_entry_point_sets_a_tolerated_negative_entry_to_zero(entry):
    kept = SIMPLEX_ENTRY_POINTS[entry][0](np.array([1 + 5e-10, -5e-10]))
    assert kept.tolist() == [1 + 5e-10, 0.0] and not np.signbit(kept).any()


def test_sample_gmm_with_a_tolerated_negative_weight():
    # rng.choice rejects any negative probability; the weight is 0 once checked.
    comp = GaussianComponent([0.0], [[1.0]])
    mix = GaussianMixture(ClassWeights([1 + 5e-10, -5e-10]), (comp, comp))
    assert sample_gmm(mix, 5, 0)[1].tolist() == [0] * 5


COST_ENTRY_POINTS = {
    "sinkhorn": lambda cost: sinkhorn(cost, HALF, HALF, 0.1),
    "ot_exact_discrete": lambda cost: ot_exact_discrete(cost, HALF, HALF),
}
COST_MESSAGE = "cost matrix must be a finite 2-D array"


@pytest.mark.parametrize("position", [0, 1, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", list(COST_ENTRY_POINTS))
def test_cost_entry_point_rejects_a_non_finite_value(entry, bad, position):
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    cost.flat[position] = bad
    _raises_without_warning(COST_ENTRY_POINTS[entry], cost, COST_MESSAGE)


@pytest.mark.parametrize("entry", list(COST_ENTRY_POINTS))
def test_cost_entry_point_rejects_a_1d_cost(entry):
    _raises_without_warning(COST_ENTRY_POINTS[entry], np.ones(2), COST_MESSAGE)
