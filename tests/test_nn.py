"""Tests for the network stack, the four losses, and the optimizer."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from darsa.nn import (
    ACTIVATIONS,
    LEAKY_SLOPE,
    GradientBlowupError,
    Layer,
    LossBundle,
    NetworkParams,
    backward,
    cross_entropy,
    forward,
    init_network,
    loss_classification_weighted,
    loss_discrepancy_weighted,
    loss_inter,
    loss_intra,
    sgd_momentum_step,
    zero_velocity,
)
from darsa.ot import euclidean_cost_matrix, ot_exact_discrete
from darsa.weights import ClassWeights
from helpers import fd_gradient, max_rel_error


def _identity_net(dim):
    return NetworkParams((Layer(np.eye(dim), np.zeros(dim), "identity"),))


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------


def test_forward_identity_layer():
    x = np.array([[1.0, -2.0], [3.0, 4.0]])
    out, _ = forward(_identity_net(2), x)
    assert np.array_equal(out, x)


def test_forward_relu_on_negative_input():
    net = NetworkParams((Layer(np.eye(2), np.zeros(2), "relu"),))
    out, _ = forward(net, -np.ones((3, 2)))
    assert np.array_equal(out, np.zeros((3, 2)))


def test_forward_two_layers_hand_computed():
    w1 = np.array([[1.0, 2.0], [0.0, -1.0]])
    b1 = np.array([0.5, 0.0])
    w2 = np.array([[1.0, 1.0]])
    b2 = np.array([-1.0])
    net = NetworkParams((Layer(w1, b1, "relu"), Layer(w2, b2, "identity")))
    x = np.array([[1.0, 1.0], [2.0, -3.0]])
    hidden = np.maximum(x @ w1.T + b1, 0.0)
    expected = hidden @ w2.T + b2
    out, _ = forward(net, x)
    assert np.abs(out - expected).max() <= 1e-12


@pytest.mark.parametrize(
    "tag, value, slope",
    [
        ("relu", lambda z: np.maximum(z, 0.0), lambda z: (z > 0).astype(float)),
        ("leaky-relu", lambda z: np.where(z > 0, z, LEAKY_SLOPE * z),
         lambda z: np.where(z > 0, 1.0, LEAKY_SLOPE)),
        ("softplus", lambda z: np.logaddexp(0.0, z), lambda z: 1.0 / (1.0 + np.exp(-z))),
        ("identity", lambda z: z, np.ones_like),
    ],
)
def test_activation_value_and_derivative_exact(tag, value, slope):
    # One layer with identity weights, so the pre-activation is the input:
    # forward gives the activation and backward of ones its derivative,
    # both bit for bit.
    z = np.array([[-3.0, -0.5, 0.0], [1e-3, 0.7, 40.0]])
    net = NetworkParams((Layer(np.eye(3), np.zeros(3), tag),))
    out, cache = forward(net, z)
    assert np.array_equal(out, value(z))
    assert np.array_equal(backward(net, cache, np.ones_like(z)).input_grad, slope(z))
    assert tag in ACTIVATIONS


def test_forward_dimension_mismatch():
    with pytest.raises(ValueError, match="input dim"):
        forward(_identity_net(2), np.ones((3, 4)))


# ---------------------------------------------------------------------------
# Weighted classification loss
# ---------------------------------------------------------------------------


def test_weighted_ce_equal_weights_matches_unweighted():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(10, 3))
    labels = rng.integers(0, 3, size=10)
    w = ClassWeights(np.array([0.5, 0.3, 0.2]))
    weighted = loss_classification_weighted(logits, labels, w, w)
    plain = cross_entropy(logits, labels)
    assert weighted.value == pytest.approx(plain.value, abs=1e-12)
    assert np.allclose(weighted.grad, plain.grad)


def test_weighted_ce_ratio_scales_linearly():
    logits = np.array([[2.0, -1.0]])
    labels = np.array([0])
    w_t = ClassWeights(np.array([0.75, 0.25]))
    w_s = ClassWeights(np.array([0.25, 0.75]))
    weighted = loss_classification_weighted(logits, labels, w_t, w_s)
    assert weighted.value == pytest.approx(3.0 * cross_entropy(logits, labels).value)


def test_weighted_ce_confident_correct_is_tiny():
    logits = np.array([[30.0, 0.0], [0.0, 30.0]])
    labels = np.array([0, 1])
    w = ClassWeights(np.array([0.5, 0.5]))
    assert loss_classification_weighted(logits, labels, w, w).value <= 1e-6


def test_weighted_ce_degenerate_source_weight():
    logits = np.zeros((2, 2))
    labels = np.array([0, 1])
    w_t = ClassWeights(np.array([0.5, 0.5]))
    w_s = ClassWeights(np.array([1.0 - 1e-5, 1e-5]))
    with pytest.raises(ValueError, match="degenerate source weight"):
        loss_classification_weighted(logits, labels, w_t, w_s, weight_floor=1e-3)


@pytest.mark.parametrize("label", [-1, 3])
def test_classification_losses_reject_labels_outside_classes(label):
    # Label -1 would read the last class's log-probability and label K
    # would index past the logits.
    logits = [[2.0, 0.0, -1.0]]
    w = ClassWeights(np.full(3, 1.0 / 3.0))
    with pytest.raises(ValueError, match="label outside 0..2"):
        cross_entropy(logits, [label])
    with pytest.raises(ValueError, match="label outside 0..2"):
        loss_classification_weighted(logits, [label], w, w)


@pytest.mark.parametrize(
    "loss", ["cross_entropy", "loss_classification_weighted", "loss_intra"]
)
def test_empty_batch_raises(loss):
    # A mean over no samples has no value: raise rather than return NaN.
    w = ClassWeights(np.array([0.5, 0.5]))
    calls = {
        "cross_entropy": lambda: cross_entropy(np.empty((0, 2)), []),
        "loss_classification_weighted": lambda: loss_classification_weighted(
            np.empty((0, 2)), [], w, w
        ),
        "loss_intra": lambda: loss_intra(np.empty((0, 2)), [], 1.0),
    }
    with pytest.raises(ValueError, match="empty batch"):
        calls[loss]()


def test_weighted_ce_ratio_cap():
    logits = np.array([[0.3, -0.2]])
    labels = np.array([0])
    w_t = ClassWeights(np.array([0.9, 0.1]))
    w_s = ClassWeights(np.array([0.01, 0.99]))
    capped = loss_classification_weighted(logits, labels, w_t, w_s, ratio_cap=10.0)
    assert capped.value == pytest.approx(10.0 * cross_entropy(logits, labels).value)


def test_weighted_ce_gradient_fd():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, size=6)
    w_t = ClassWeights(rng.dirichlet(np.ones(3)))
    w_s = ClassWeights(np.array([0.4, 0.35, 0.25]))
    result = loss_classification_weighted(logits, labels, w_t, w_s)
    fd = fd_gradient(
        lambda: loss_classification_weighted(logits, labels, w_t, w_s).value, logits
    )
    assert max_rel_error(result.grad, fd) <= 1e-6


# ---------------------------------------------------------------------------
# Discrepancy loss
# ---------------------------------------------------------------------------


def test_discrepancy_identical_clouds_entropic_bias():
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(30, 4))
    labels = rng.integers(0, 3, size=30)
    for w in (np.array([0.2, 0.5, 0.3]), np.array([0.8, 0.1, 0.1])):
        result = loss_discrepancy_weighted(
            feats, labels, feats.copy(), labels.copy(), ClassWeights(w),
            reg=0.01, max_iter=10000, tol=1e-6,
        )
        assert result.value <= 0.01 * np.log(30)


def test_discrepancy_translated_class():
    rng = np.random.default_rng(3)
    shift = np.array([3.0, 0.0, 4.0])  # norm 5
    feat_s = rng.normal(scale=1e-3, size=(20, 3))
    labels = np.array([0] * 10 + [1] * 10)
    feat_t = feat_s.copy()
    feat_t[labels == 1] += shift
    result = loss_discrepancy_weighted(
        feat_s, labels, feat_t, labels, ClassWeights(np.array([0.5, 0.5])),
        reg=0.01, max_iter=10000, tol=1e-6,
    )
    assert result.value == pytest.approx(0.5 * 5.0, abs=0.05)


def test_discrepancy_matches_exact_lp():
    rng = np.random.default_rng(4)
    w_t = ClassWeights(np.array([0.3, 0.7]))
    for _ in range(3):
        feat_s = rng.normal(size=(10, 4))
        feat_t = rng.normal(size=(10, 4))
        labels = np.array([0] * 5 + [1] * 5)
        result = loss_discrepancy_weighted(
            feat_s, labels, feat_t, labels, w_t, reg=0.01, max_iter=20000, tol=1e-6
        )
        exact = sum(
            w_t[k]
            * ot_exact_discrete(
                euclidean_cost_matrix(feat_s[labels == k], feat_t[labels == k]),
                np.full(5, 0.2),
                np.full(5, 0.2),
            ).cost
            for k in (0, 1)
        )
        assert abs(result.value - exact) <= 0.05 * exact


def test_discrepancy_skips_missing_classes():
    rng = np.random.default_rng(5)
    feat_s = rng.normal(size=(8, 2))
    feat_t = rng.normal(size=(6, 2))
    result = loss_discrepancy_weighted(
        feat_s, np.zeros(8, dtype=int), feat_t, np.ones(6, dtype=int),
        ClassWeights(np.array([0.5, 0.5])),
    )
    assert result.value == 0.0
    assert result.skipped == (0, 1)
    assert np.array_equal(result.grad_source, np.zeros_like(feat_s))


def test_discrepancy_envelope_gradient_fd():
    rng = np.random.default_rng(6)
    feat_s = rng.normal(size=(9, 3))
    feat_t = rng.normal(size=(7, 3))
    labels_s = rng.integers(0, 2, size=9)
    pseudo_t = rng.integers(0, 2, size=7)
    w_t = ClassWeights(np.array([0.4, 0.6]))
    result = loss_discrepancy_weighted(
        feat_s, labels_s, feat_t, pseudo_t, w_t, reg=0.05, max_iter=20000, tol=1e-7
    )

    def frozen_loss():
        total = 0.0
        for k, coupling in result.couplings.items():
            xs = feat_s[labels_s == k]
            xt = feat_t[pseudo_t == k]
            total += w_t[k] * float(np.sum(coupling * euclidean_cost_matrix(xs, xt)))
        return total

    fd_s = fd_gradient(frozen_loss, feat_s)
    fd_t = fd_gradient(frozen_loss, feat_t)
    assert max_rel_error(result.grad_source, fd_s) <= 1e-4
    assert max_rel_error(result.grad_target, fd_t) <= 1e-4


# ---------------------------------------------------------------------------
# Intra-cluster loss
# ---------------------------------------------------------------------------


def test_intra_identical_same_label_points():
    feats = np.array([[1.0, 2.0], [1.0, 2.0]])
    assert loss_intra(feats, [0, 0], margin=5.0).value == 0.0


def test_intra_hand_computed():
    feats = np.array([[0.0], [np.sqrt(2.0)]])
    assert loss_intra(feats, [0, 1], margin=30.0).value == pytest.approx(14.0)


def test_intra_hinge_inactive_beyond_margin():
    feats = np.array([[0.0], [10.0]])  # squared distance 100 >= margin
    assert loss_intra(feats, [0, 1], margin=30.0).value == 0.0


@pytest.mark.parametrize("margin", [0.0, -1.0, np.nan, np.inf])
def test_intra_rejects_bad_margin(margin):
    with pytest.raises(ValueError, match="margin must be positive and finite"):
        loss_intra(np.zeros((2, 1)), [0, 1], margin)


def test_intra_permutation_invariant():
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(12, 3))
    labels = rng.integers(0, 3, size=12)
    perm = rng.permutation(12)
    assert loss_intra(feats, labels, 10.0).value == pytest.approx(
        loss_intra(feats[perm], labels[perm], 10.0).value, abs=1e-12
    )


def test_intra_gradient_fd():
    rng = np.random.default_rng(8)
    feats = rng.normal(size=(10, 4))
    labels = rng.integers(0, 3, size=10)
    result = loss_intra(feats, labels, margin=6.0)
    fd = fd_gradient(lambda: loss_intra(feats, labels, 6.0).value, feats)
    assert max_rel_error(result.grad, fd) <= 1e-6


# ---------------------------------------------------------------------------
# Inter-cluster loss
# ---------------------------------------------------------------------------


def test_inter_identical_centroids():
    rng = np.random.default_rng(9)
    parts = [rng.normal(size=(6, 2)) for _ in range(3)]
    shuffled = [p[rng.permutation(len(p))] for p in parts]
    result = loss_inter(parts, shuffled)
    assert result.value == pytest.approx(0.0, abs=1e-12)


def test_inter_single_class_offset():
    offset = np.array([1.0, -2.0])
    part = np.array([[0.0, 0.0], [2.0, 2.0]])
    result = loss_inter([part], [part + offset])
    assert result.value == pytest.approx(float(offset @ offset))


def test_inter_within_class_order_invariance():
    rng = np.random.default_rng(10)
    parts_s = [rng.normal(size=(5, 3)), rng.normal(size=(4, 3))]
    parts_t = [rng.normal(size=(6, 3)), rng.normal(size=(3, 3))]
    base = loss_inter(parts_s, parts_t).value
    perm_s = [p[rng.permutation(len(p))] for p in parts_s]
    assert loss_inter(perm_s, parts_t).value == pytest.approx(base, abs=1e-12)


def test_inter_skips_empty_classes():
    rng = np.random.default_rng(11)
    parts_s = [rng.normal(size=(4, 2)), np.empty((0, 2))]
    parts_t = [rng.normal(size=(5, 2)), rng.normal(size=(3, 2))]
    result = loss_inter(parts_s, parts_t)
    assert result.skipped == (1,)
    empty = loss_inter([np.empty((0, 2))], [np.empty((0, 2))])
    assert empty.value == 0.0
    assert empty.skipped == (0,)


def test_inter_gradient_fd():
    rng = np.random.default_rng(12)
    parts_s = [rng.normal(size=(4, 3)), rng.normal(size=(3, 3))]
    parts_t = [rng.normal(size=(5, 3)), rng.normal(size=(2, 3))]
    result = loss_inter(parts_s, parts_t)
    for i in range(2):
        fd = fd_gradient(lambda: loss_inter(parts_s, parts_t).value, parts_s[i])
        assert max_rel_error(result.grads_source[i], fd) <= 1e-4
        fd = fd_gradient(lambda: loss_inter(parts_s, parts_t).value, parts_t[i])
        assert max_rel_error(result.grads_target[i], fd) <= 1e-4


# ---------------------------------------------------------------------------
# All four loss gradients on random shapes
# ---------------------------------------------------------------------------


@st.composite
def _labeled_batches(draw):
    """A source and a target batch of random shape, with one drawn class
    missing from one drawn side, so that every draw has a class empty on
    one side; other classes may be missing by chance."""
    k = draw(st.integers(2, 4))
    d = draw(st.integers(1, 4))
    labels_s = np.array(draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=9)))
    labels_t = np.array(draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=9)))
    gone = draw(st.integers(0, k - 1))
    side = labels_s if draw(st.booleans()) else labels_t
    side[side == gone] = (gone + 1) % k
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feat_s = rng.normal(size=(labels_s.size, d))
    feat_t = rng.normal(size=(labels_t.size, d)) + rng.normal(size=d)
    return k, feat_s, labels_s, feat_t, labels_t, rng


def _scatter(parts, labels, like):
    """Per-class gradient blocks put back onto the rows of their class."""
    full = np.zeros_like(like)
    for c, part in enumerate(parts):
        full[labels == c] = part
    return full


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_labeled_batches(), st.sampled_from([None, 2.0]))
def test_loss_gradients_match_finite_differences(batches, ratio_cap):
    # Every analytic gradient against central differences of its loss:
    # the discrepancy with its couplings held fixed (the envelope gradient),
    # the intra loss away from its hinge, where it is differentiable.
    k, feat_s, labels_s, feat_t, labels_t, rng = batches
    logits = rng.normal(size=(labels_s.size, k))
    w_t = ClassWeights(rng.dirichlet(np.ones(k)))
    w_s = rng.dirichlet(np.ones(k)) + 0.1
    w_s = ClassWeights(w_s / w_s.sum())

    def classification():
        return loss_classification_weighted(logits, labels_s, w_t, w_s, ratio_cap=ratio_cap)

    fd = fd_gradient(lambda: classification().value, logits)
    assert max_rel_error(classification().grad, fd) <= 1e-6

    disc = loss_discrepancy_weighted(
        feat_s, labels_s, feat_t, labels_t, w_t, reg=0.1, max_iter=5000, tol=1e-4,
        reg_mode="relative",
    )

    def class_cost(c):
        return euclidean_cost_matrix(feat_s[labels_s == c], feat_t[labels_t == c])

    # The Euclidean cost has a kink where a source and a target point meet.
    assume(all(class_cost(c).min() > 1e-2 for c in disc.couplings))

    def frozen_discrepancy():
        return sum(w_t[c] * float(np.sum(p * class_cost(c))) for c, p in disc.couplings.items())

    assert max_rel_error(disc.grad_source, fd_gradient(frozen_discrepancy, feat_s)) <= 1e-5
    assert max_rel_error(disc.grad_target, fd_gradient(frozen_discrepancy, feat_t)) <= 1e-5

    margin = 2.0
    for feats, labels in ((feat_s, labels_s), (feat_t, labels_t)):
        sq_dist = euclidean_cost_matrix(feats, feats) ** 2
        other = labels[:, None] != labels[None, :]
        assume(np.abs(sq_dist - margin)[other].min(initial=1.0) > 1e-3)
        intra = loss_intra(feats, labels, margin)
        fd = fd_gradient(lambda: loss_intra(feats, labels, margin).value, feats)
        assert max_rel_error(intra.grad, fd) <= 1e-6

    def parts(feats, labels):
        return [feats[labels == c] for c in range(k)]

    def inter():
        return loss_inter(parts(feat_s, labels_s), parts(feat_t, labels_t))

    result = inter()
    assert result.skipped
    grad_s = _scatter(result.grads_source, labels_s, feat_s)
    grad_t = _scatter(result.grads_target, labels_t, feat_t)
    assert max_rel_error(grad_s, fd_gradient(lambda: inter().value, feat_s)) <= 1e-6
    assert max_rel_error(grad_t, fd_gradient(lambda: inter().value, feat_t)) <= 1e-6


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------


def test_backward_linear_net_closed_form():
    rng = np.random.default_rng(13)
    net = NetworkParams((Layer(rng.normal(size=(2, 3)), rng.normal(size=2), "identity"),))
    x = rng.normal(size=(7, 3))
    targets = rng.normal(size=(7, 2))
    out, cache = forward(net, x)
    residual = out - targets
    result = backward(net, cache, residual)
    d_weight, d_bias = result.param_grads[0]
    assert np.abs(d_weight - residual.T @ x).max() <= 1e-10
    assert np.abs(d_bias - residual.sum(axis=0)).max() <= 1e-10


@pytest.mark.parametrize("sizes", [[3, 0, 2], [0, 2], [3, -1]])
def test_init_network_rejects_a_size_below_one(sizes):
    # A zero fan-in divided by zero in the He limit (ZeroDivisionError).
    acts = ["relu"] * (len(sizes) - 2) + ["identity"]
    with pytest.raises(ValueError, match="layer sizes must be positive"):
        init_network(sizes, acts, np.random.default_rng(0))


def test_backward_zero_upstream():
    rng = np.random.default_rng(14)
    net = init_network([3, 4, 2], ["relu", "identity"], rng)
    out, cache = forward(net, rng.normal(size=(5, 3)))
    result = backward(net, cache, np.zeros_like(out))
    for d_weight, d_bias in result.param_grads:
        assert not d_weight.any()
        assert not d_bias.any()


def test_backward_fd_random_net():
    rng = np.random.default_rng(15)
    net = init_network([3, 5, 2], ["softplus", "identity"], rng)
    x = rng.normal(size=(6, 3))
    targets = rng.normal(size=(6, 2))

    def loss():
        out, _ = forward(net, x)
        return 0.5 * float(np.sum((out - targets) ** 2))

    out, cache = forward(net, x)
    result = backward(net, cache, out - targets)
    for layer, (d_weight, d_bias) in zip(net.layers, result.param_grads):
        assert max_rel_error(d_weight, fd_gradient(loss, layer.weight)) <= 1e-4
        assert max_rel_error(d_bias, fd_gradient(loss, layer.bias)) <= 1e-4


def test_backward_stale_cache():
    rng = np.random.default_rng(16)
    net = init_network([2, 2], ["identity"], rng)
    other = init_network([2, 2], ["identity"], rng)
    out, cache = forward(net, rng.normal(size=(3, 2)))
    with pytest.raises(ValueError, match="stale cache"):
        backward(other, cache, out)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


def test_sgd_zero_momentum_is_plain_descent():
    net = _identity_net(2)
    grads = [(np.full((2, 2), 2.0), np.full(2, 3.0))]
    updated, _ = sgd_momentum_step(net, grads, zero_velocity(net), lr=0.1, momentum=0.0)
    assert np.allclose(updated.layers[0].weight, np.eye(2) - 0.2)
    assert np.allclose(updated.layers[0].bias, -0.3)


def test_sgd_zero_gradient_no_motion():
    net = _identity_net(3)
    updated, vel = sgd_momentum_step(
        net, zero_velocity(net), zero_velocity(net), lr=0.5, momentum=0.9
    )
    assert np.array_equal(updated.layers[0].weight, net.layers[0].weight)
    assert not vel[0][0].any()


def test_sgd_momentum_accumulates():
    net = _identity_net(1)
    grads = [(np.array([[1.0]]), np.array([1.0]))]
    p1, vel = sgd_momentum_step(net, grads, zero_velocity(net), lr=1.0, momentum=0.5)
    p2, _ = sgd_momentum_step(p1, grads, vel, lr=1.0, momentum=0.5)
    assert (net.layers[0].weight - p2.layers[0].weight)[0, 0] == pytest.approx(2.5)


def test_sgd_gradient_blowup():
    net = init_network([2, 3, 2], ["relu", "identity"], np.random.default_rng(17))
    grads = zero_velocity(net)
    grads[1] = (np.full((2, 3), np.nan), np.zeros(2))
    with pytest.raises(GradientBlowupError) as excinfo:
        sgd_momentum_step(net, grads, zero_velocity(net), lr=0.1, momentum=0.5)
    assert excinfo.value.layer_index == 1


# ---------------------------------------------------------------------------
# LossBundle and checkpointing
# ---------------------------------------------------------------------------


def test_all_losses_nonnegative():
    rng = np.random.default_rng(20)
    for _ in range(10):
        n, k, h = 8, 2, 3
        logits = rng.normal(size=(n, k))
        labels = rng.integers(0, k, size=n)
        feats_s = rng.normal(size=(n, h))
        feats_t = rng.normal(size=(n, h))
        pseudo = rng.integers(0, k, size=n)
        w = ClassWeights(rng.dirichlet(np.ones(k)) * 0.8 + 0.1)
        assert loss_classification_weighted(logits, labels, w, w).value >= 0.0
        assert loss_discrepancy_weighted(feats_s, labels, feats_t, pseudo, w).value >= 0.0
        assert loss_intra(feats_s, labels, margin=5.0).value >= 0.0
        assert loss_inter([feats_s[labels == c] for c in range(k)],
                          [feats_t[pseudo == c] for c in range(k)]).value >= 0.0


def test_loss_bundle_total_reconstructs():
    rng = np.random.default_rng(18)
    for _ in range(10):
        parts = rng.random(4)
        lams = rng.random(4)
        bundle = LossBundle.from_parts(*parts, *lams)
        assert abs(bundle.total - float(lams @ parts)) <= 1e-12


def test_checkpoint_roundtrip_and_version():
    rng = np.random.default_rng(19)
    net = init_network([3, 4, 2], ["leaky-relu", "identity"], rng)
    restored = NetworkParams.from_json(net.to_json())
    for original, copy in zip(net.layers, restored.layers):
        assert np.array_equal(original.weight, copy.weight)
        assert np.array_equal(original.bias, copy.bias)
        assert original.activation == copy.activation
    bad = net.to_dict()
    bad["format_version"] = 99
    with pytest.raises(ValueError, match="format version"):
        NetworkParams.from_dict(bad)


def test_network_validation():
    with pytest.raises(ValueError, match="do not chain"):
        NetworkParams(
            (
                Layer(np.zeros((3, 2)), np.zeros(3), "relu"),
                Layer(np.zeros((2, 4)), np.zeros(2), "identity"),
            )
        )
    with pytest.raises(ValueError, match="non-finite"):
        Layer(np.array([[np.inf]]), np.zeros(1), "relu")
    with pytest.raises(ValueError, match="unknown activation"):
        Layer(np.zeros((1, 1)), np.zeros(1), "tanh")
