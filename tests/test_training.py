"""Tests for the training driver: determinism, update scopes, weights."""

import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import darsa
from darsa import bounds, nn, ot
from darsa.ot import euclidean_cost_matrix
from darsa.bounds import split_by_class
from darsa.synthdata import Dataset, make_figure1_task, make_shifted_gmm
from darsa.training import (
    DarsaConfig,
    DarsaModels,
    EpochRecord,
    TrainingError,
    _solver,
    accuracy,
    compute_step_gradients,
    default_networks,
    estimate_target_weights,
    fit,
    predict,
    pretrain,
)
from darsa.weights import ClassWeights
from helpers import fd_gradient, max_rel_error

SCHEMA_DIR = Path(darsa.__file__).parent / "schemas"


def _separable_task(rng, n=300):
    labels = rng.integers(0, 2, size=n)
    feats = rng.normal(scale=0.2, size=(n, 2)) + 4.0 * labels[:, None]
    return Dataset(feats, labels, 2)


QUICK = dict(
    epochs=3, pretrain_epochs=5, batch_size=64,
    lambda_d=0.2, lambda_c=0.3, lambda_a=0.2, margin=10.0,
    snapshot_max=128,
)


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


def test_config_roundtrip():
    config = DarsaConfig(**QUICK, seed=3)
    assert DarsaConfig.from_dict(config.to_dict()) == config


def test_config_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        DarsaConfig(lambda_d=-0.1)
    with pytest.raises(ValueError, match="momentum"):
        DarsaConfig(momentum=1.0)
    with pytest.raises(ValueError, match="reg_mode"):
        DarsaConfig(sinkhorn_reg_mode="adaptive")
    with pytest.raises(ValueError, match="ratio_cap"):
        DarsaConfig(ratio_cap=0.0)
    with pytest.raises(ValueError, match="invalid darsa config"):
        DarsaConfig.from_dict({"epochs": "3"})


# A one-column cloud of two points: against itself, the 2x2 cost [[0, 1], [1, 0]].
X2 = [[0.0], [1.0]]


@pytest.mark.parametrize(
    "setting, value",
    [("reg", 0.0), ("reg", -1.0), ("max_iter", 0), ("tol", -1.0), ("reg_mode", "x")],
)
def test_config_checks_sinkhorn_settings_by_the_solver_rule(setting, value):
    # ``uniform_plan`` resolves reg_mode and hands the 2x2 cost to ``ot.sinkhorn``;
    # the config refuses each setting that the solver refuses, with its message.
    with pytest.raises(ValueError) as solved:
        ot.uniform_plan(X2, X2, **{**_solver(DarsaConfig()), setting: value})
    with pytest.raises(ValueError) as configured:
        DarsaConfig(**{f"sinkhorn_{setting}": value})
    assert str(configured.value) == str(solved.value)


def test_config_and_solver_accept_zero_tol():
    config = DarsaConfig(sinkhorn_tol=0)
    _, _, info = ot.uniform_plan(X2, X2, **_solver(config))
    assert info.residual <= ot.ROUNDING_FLOOR


# ---------------------------------------------------------------------------
# Prediction and weight estimation
# ---------------------------------------------------------------------------


def test_predict_tie_breaks_to_lowest_class():
    encoder = nn.NetworkParams((nn.Layer(np.eye(2), np.zeros(2), "identity"),))
    classifier = nn.NetworkParams((nn.Layer(np.zeros((3, 2)), np.zeros(3), "identity"),))
    preds = predict(encoder, classifier, np.ones((4, 2)))
    assert np.all(preds == 0)


def test_predict_hand_computed_and_permutation():
    encoder = nn.NetworkParams((nn.Layer(np.eye(2), np.zeros(2), "identity"),))
    classifier = nn.NetworkParams(
        (nn.Layer(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2), "identity"),)
    )
    x = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, -1.0]])
    preds = predict(encoder, classifier, x)
    assert np.array_equal(preds, [0, 1, 0])
    perm = np.array([2, 0, 1])
    assert np.array_equal(predict(encoder, classifier, x[perm]), preds[perm])


def test_accuracy_labels_must_cover_the_rows():
    # A single label would broadcast against every prediction.
    encoder = nn.NetworkParams((nn.Layer(np.eye(2), np.zeros(2), "identity"),))
    x = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, -1.0]])
    assert accuracy(encoder, encoder, x, [0, 1, 1]) == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError, match="labels do not cover"):
        accuracy(encoder, encoder, x, [0])


def test_non_finite_network_output_raises():
    # Finite weights of 1e300 overflow to logits inf and inf - inf = NaN;
    # argmax of those is no prediction.
    encoder = nn.NetworkParams((nn.Layer(1e300 * np.eye(2), np.zeros(2), "identity"),))
    weight = np.array([[1e300, 0.0], [1e300, -1e300]])
    classifier = nn.NetworkParams((nn.Layer(weight, np.zeros(2), "identity"),))
    x = np.ones((3, 2))
    with pytest.raises(ValueError, match="non-finite network output"):
        predict(encoder, classifier, x)
    with pytest.raises(ValueError, match="non-finite network output"):
        accuracy(encoder, classifier, x, [0, 1, 1])


def test_estimate_weights_uniform_logits():
    encoder = nn.NetworkParams((nn.Layer(np.eye(2), np.zeros(2), "identity"),))
    classifier = nn.NetworkParams((nn.Layer(np.zeros((4, 2)), np.zeros(4), "identity"),))
    weights = estimate_target_weights(encoder, classifier, np.random.randn(30, 2), 1e-3)
    assert np.allclose(weights.w, 0.25)


def test_estimate_weights_saturated():
    encoder = nn.NetworkParams((nn.Layer(np.eye(1), np.zeros(1), "identity"),))
    classifier = nn.NetworkParams(
        (nn.Layer(np.array([[100.0], [-100.0]]), np.zeros(2), "identity"),)
    )
    weights = estimate_target_weights(encoder, classifier, np.ones((10, 1)), 1e-3)
    assert weights.w[0] == pytest.approx(0.999, abs=1e-3)
    assert weights.w[1] == pytest.approx(0.001, abs=1e-4)


def test_estimate_weights_simplex_and_floor():
    rng = np.random.default_rng(0)
    floor = 0.05
    for trial in range(5):
        encoder = nn.init_network([3, 4], ["identity"], rng)
        classifier = nn.init_network([4, 5], ["identity"], rng)
        weights = estimate_target_weights(
            encoder, classifier, rng.normal(size=(40, 3)), floor
        )
        assert abs(weights.w.sum() - 1.0) <= 1e-9
        assert weights.w.min() >= floor / (1 + 5 * floor) - 1e-12
    with pytest.raises(ValueError, match="floor"):
        estimate_target_weights(encoder, classifier, rng.normal(size=(5, 3)), 0.5)


# ---------------------------------------------------------------------------
# Pretraining
# ---------------------------------------------------------------------------


def test_pretrain_reaches_high_accuracy():
    rng = np.random.default_rng(1)
    source = _separable_task(rng)
    config = DarsaConfig(pretrain_epochs=20, batch_size=64, lr=0.05)
    encoder, classifier = default_networks(2, 2, config, np.random.default_rng(1))
    encoder, classifier = pretrain(encoder, classifier, source, config)
    preds = predict(encoder, classifier, source.features)
    assert np.mean(preds == source.labels) >= 0.99


def test_pretrain_zero_epochs_unchanged():
    rng = np.random.default_rng(2)
    source = _separable_task(rng, n=50)
    config = DarsaConfig(pretrain_epochs=0)
    encoder, classifier = default_networks(2, 2, config, rng)
    enc2, cls2 = pretrain(encoder, classifier, source, config)
    assert enc2 is encoder and cls2 is classifier


def test_pretrain_tiny_lr_barely_moves():
    rng = np.random.default_rng(3)
    source = _separable_task(rng, n=50)
    config = DarsaConfig(pretrain_epochs=3, lr=1e-300, batch_size=32)
    encoder, classifier = default_networks(2, 2, config, rng)
    enc2, _ = pretrain(encoder, classifier, source, config)
    assert np.allclose(enc2.layers[0].weight, encoder.layers[0].weight, atol=1e-290)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_identical_domains_high_accuracy():
    rng = np.random.default_rng(4)
    source = _separable_task(rng)
    target = Dataset(source.features.copy(), source.labels.copy(), 2)
    config = DarsaConfig(**{**QUICK, "epochs": 5, "pretrain_epochs": 10}, seed=5)
    _, metrics = fit(source, target, config, eval_labels=target.labels)
    assert metrics.records[-1].target_accuracy >= 0.99


def test_fit_figure1_task_accuracy():
    source, target = make_figure1_task(0.05, 2000, seed=6)
    config = DarsaConfig(**{**QUICK, "epochs": 10, "pretrain_epochs": 10}, seed=7)
    _, metrics = fit(source, target, config, eval_labels=target.labels)
    assert metrics.records[-1].target_accuracy >= 0.95


def test_fit_class_cardinality_mismatch():
    rng = np.random.default_rng(8)
    source = _separable_task(rng, n=40)
    target = Dataset(source.features, source.labels, 3)
    with pytest.raises(ValueError, match="class cardinality mismatch"):
        fit(source, target, DarsaConfig(**QUICK))


def test_fit_determinism_bit_identical():
    source, target = make_figure1_task(0.05, 200, seed=9)
    config = DarsaConfig(**QUICK, seed=10)
    _, metrics_a = fit(source, target, config, eval_labels=target.labels)
    _, metrics_b = fit(source, target, config, eval_labels=target.labels)
    seq_a = [r.losses for r in metrics_a.records]
    seq_b = [r.losses for r in metrics_b.records]
    assert seq_a == seq_b
    assert metrics_a.to_jsonl() == metrics_b.to_jsonl()


def test_epoch_record_fields_match_metrics_schema():
    # Every field of a record is written to metrics.jsonl: a field that
    # serialization drops would be computed each epoch and read by nothing.
    schema = json.loads((SCHEMA_DIR / "metrics_record.schema.json").read_text())
    assert [fld.name for fld in fields(EpochRecord)] == list(schema["properties"])


def test_fit_w_t_on_simplex_every_epoch():
    source, target = make_figure1_task(0.05, 200, seed=11)
    config = DarsaConfig(**QUICK, weight_floor=0.01, seed=12)
    _, metrics = fit(source, target, config)
    for record in metrics.records:
        assert abs(record.w_t.sum() - 1.0) <= 1e-9
        assert record.w_t.min() >= 0.01 / (1 + 2 * 0.01) - 1e-12


def test_fit_record_count_matches_epochs():
    source, target = make_figure1_task(0.05, 120, seed=13)
    config = DarsaConfig(**{**QUICK, "epochs": 4}, seed=14)
    _, metrics = fit(source, target, config)
    assert [r.epoch for r in metrics.records] == [1, 2, 3, 4]


def test_fit_gradient_blowup_reports_epoch():
    source, target = make_figure1_task(0.05, 120, seed=15)
    config = DarsaConfig(**{**QUICK, "lr": 1e200, "pretrain_epochs": 0}, seed=16)
    with pytest.raises(TrainingError) as excinfo:
        fit(source, target, config)
    assert excinfo.value.epoch >= 1
    assert excinfo.value.batch >= -1


def test_fit_snapshot_floating_point_error_is_training_error(monkeypatch):
    # Under np.seterr(all="raise") an overflow in the snapshot's bound terms is
    # a FloatingPointError; fit reports it as epoch 1's snapshot (batch -1).
    def overflow(*args, **kwargs):
        raise FloatingPointError("overflow encountered")

    monkeypatch.setattr(bounds, "bound_report", overflow)
    source, target = make_figure1_task(0.05, 120, seed=15)
    with pytest.raises(TrainingError, match="epoch 1, batch -1"):
        fit(source, target, DarsaConfig(**QUICK, seed=16))


def test_checkpoint_roundtrip():
    source, target = make_figure1_task(0.05, 120, seed=17)
    config = DarsaConfig(**{**QUICK, "epochs": 1}, seed=18)
    models, _ = fit(source, target, config)
    restored = DarsaModels.from_dict(models.to_dict())
    assert np.array_equal(
        restored.encoder_t.layers[0].weight, models.encoder_t.layers[0].weight
    )
    assert np.array_equal(
        restored.classifier.layers[-1].bias, models.classifier.layers[-1].bias
    )


@st.composite
def _networks(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return nn.NetworkParams(tuple(
        nn.Layer(draw(arrays(np.float64, (fan_out, fan_in), elements=finite)),
                 draw(arrays(np.float64, fan_out, elements=finite)),
                 draw(st.sampled_from(nn.ACTIVATIONS)))
        for fan_in, fan_out in zip(sizes, sizes[1:])
    ))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(encoder_s=_networks(), encoder_t=_networks(), classifier=_networks())
def test_checkpoint_json_roundtrip_exact_property(encoder_s, encoder_t, classifier):
    # Through the checkpoint's JSON text, any finite parameters (subnormals,
    # -0.0 and the largest doubles included) come back bit for bit, with
    # their shapes and activation tags, and serialise to the same text.
    models = DarsaModels(encoder_s, encoder_t, classifier)
    text = json.dumps(models.to_dict())
    restored = DarsaModels.from_dict(json.loads(text))
    for net, back in zip((encoder_s, encoder_t, classifier),
                         (restored.encoder_s, restored.encoder_t, restored.classifier)):
        assert len(back.layers) == len(net.layers)
        for layer, layer_back in zip(net.layers, back.layers):
            assert layer_back.weight.shape == layer.weight.shape
            assert layer_back.weight.tobytes() == layer.weight.tobytes()
            assert layer_back.bias.tobytes() == layer.bias.tobytes()
            assert layer_back.activation == layer.activation
    assert json.dumps(restored.to_dict()) == text


# ---------------------------------------------------------------------------
# Source-only reduction
# ---------------------------------------------------------------------------


def _draw(rng, n, batch):
    if n <= batch:
        return np.arange(n)
    return rng.choice(n, size=batch, replace=False)


def test_zero_lambdas_match_source_only_reference():
    # With the alignment lambdas at zero and the target weights pinned to
    # the source label distribution, fit must follow a plain weighted-CE
    # trajectory with unit ratios. The reference loop below mirrors fit's
    # batch draws (source then target, each step).
    source, target = make_figure1_task(0.05, 150, seed=19)
    config = DarsaConfig(
        epochs=3, pretrain_epochs=2, batch_size=64, lr=0.05,
        lambda_d=0.0, lambda_c=0.0, lambda_a=0.0, estimate_w_t=False, seed=20,
    )
    _, metrics = fit(source, target, config, eval_labels=target.labels)

    rng = np.random.default_rng(config.seed)
    encoder, classifier = default_networks(source.dim, 2, config, rng)
    encoder, classifier = pretrain(encoder, classifier, source, config, rng=rng)
    w_s = ClassWeights.from_labels(source.labels, 2)
    vel_enc = nn.zero_velocity(encoder)
    vel_cls = nn.zero_velocity(classifier)
    steps = max(1, int(np.ceil(source.n / config.batch_size)))
    reference = []
    for _ in range(config.epochs):
        total = 0.0
        for _ in range(steps):
            idx_s = _draw(rng, source.n, config.batch_size)
            _draw(rng, target.n, config.batch_size)  # consumed, unused
            xb, yb = source.features[idx_s], source.labels[idx_s]
            feats, cache_enc = nn.forward(encoder, xb)
            logits, cache_cls = nn.forward(classifier, feats)
            value, dlogits = nn.loss_classification_weighted(
                logits, yb, w_s, w_s,
                weight_floor=config.weight_floor, ratio_cap=config.ratio_cap,
            )
            bp_cls = nn.backward(classifier, cache_cls, config.lambda_y * dlogits)
            bp_enc = nn.backward(encoder, cache_enc, bp_cls.input_grad)
            classifier, vel_cls = nn.sgd_momentum_step(
                classifier, bp_cls.param_grads, vel_cls, config.lr, config.momentum
            )
            encoder, vel_enc = nn.sgd_momentum_step(
                encoder, bp_enc.param_grads, vel_enc, config.lr, config.momentum
            )
            total += value
        reference.append(total / steps)
    fitted = [r.losses.l_y for r in metrics.records]
    assert np.abs(np.array(fitted) - np.array(reference)).max() <= 1e-9


# ---------------------------------------------------------------------------
# Update-scope probe
# ---------------------------------------------------------------------------


def test_target_encoder_gradient_scope():
    # The target encoder's gradient must carry no classification term:
    # with the alignment lambdas zeroed it vanishes identically, and with
    # them active it matches finite differences of the alignment-only
    # objective (couplings and pseudo-labels held fixed).
    source, target = make_shifted_gmm(
        2, 2, 2.0, 0.3,
        ClassWeights(np.array([0.7, 0.3])), ClassWeights(np.array([0.3, 0.7])),
        120, 0.25, seed=21,
    )
    config = DarsaConfig(**QUICK, seed=22)
    rng = np.random.default_rng(config.seed)
    encoder, classifier = default_networks(2, 2, config, rng)
    encoder, classifier = pretrain(encoder, classifier, source, config, rng=rng)
    encoder_t = nn.NetworkParams.from_dict(encoder.to_dict())
    w_s = ClassWeights.from_labels(source.labels, 2)
    w_t = ClassWeights(np.array([0.35, 0.65]))
    xb_s, yb_s = source.features[:64], source.labels[:64]
    xb_t = target.features[:64]

    classification_only = replace(config, lambda_d=0.0, lambda_c=0.0, lambda_a=0.0)
    step0 = compute_step_gradients(
        encoder, encoder_t, classifier, xb_s, yb_s, xb_t, w_s, w_t, classification_only
    )
    for d_weight, d_bias in step0.grads_encoder_t:
        assert not d_weight.any()
        assert not d_bias.any()

    step = compute_step_gradients(
        encoder, encoder_t, classifier, xb_s, yb_s, xb_t, w_s, w_t, config
    )
    # What the step holds fixed, recomputed from its inputs: the source
    # features, the target pseudo-labels and the discrepancy couplings.
    feat_s, _ = nn.forward(encoder, xb_s)
    feat_t0, _ = nn.forward(encoder_t, xb_t)
    pseudo = np.argmax(nn.forward(classifier, feat_t0)[0], axis=1)
    couplings = nn.loss_discrepancy_weighted(
        feat_s, yb_s, feat_t0, pseudo, w_t, **_solver(config)
    ).couplings

    def alignment_objective():
        feat_t, _ = nn.forward(encoder_t, xb_t)
        total = 0.0
        for k, coupling in couplings.items():
            xs = feat_s[yb_s == k]
            xt = feat_t[pseudo == k]
            total += config.lambda_d * w_t[k] * float(
                np.sum(coupling * euclidean_cost_matrix(xs, xt))
            )
        total += config.lambda_c * (
            nn.loss_intra(feat_s, yb_s, config.margin).value
            + nn.loss_intra(feat_t, pseudo, config.margin).value
        )
        total += config.lambda_a * nn.loss_inter(
            split_by_class(feat_s, yb_s, 2),
            split_by_class(feat_t, pseudo, 2),
        ).value
        return total

    for layer, (d_weight, d_bias) in zip(encoder_t.layers, step.grads_encoder_t):
        assert max_rel_error(d_weight, fd_gradient(alignment_objective, layer.weight)) <= 1e-4
        assert max_rel_error(d_bias, fd_gradient(alignment_objective, layer.bias)) <= 1e-4


@pytest.mark.parametrize(
    "lambda_d, lambda_a, expected", [(0.2, 0.2, 3), (0.2, 0.0, 3), (0.0, 0.2, 3), (0.0, 0.0, 0)]
)
def test_skipped_pairs_counts_each_class_once(lambda_d, lambda_a, expected):
    # Source labels {0, 1}, every target pseudo-label 2: each of the three
    # classes misses a side in both the discrepancy and the inter loss, and
    # is still counted once. With neither loss on, nothing is aligned or skipped.
    config = DarsaConfig(**{**QUICK, "lambda_d": lambda_d, "lambda_a": lambda_a}, seed=5)
    rng = np.random.default_rng(config.seed)
    encoder, _ = default_networks(2, 3, config, rng)
    classifier = nn.NetworkParams(
        (nn.Layer(np.zeros((3, config.feature_dim)), np.array([0.0, 0.0, 1.0]), "identity"),)
    )
    xb_s, xb_t = rng.normal(size=(12, 2)), rng.normal(size=(10, 2))
    yb_s = np.arange(12) % 2
    w = ClassWeights(np.full(3, 1.0 / 3))
    step = compute_step_gradients(encoder, encoder, classifier, xb_s, yb_s, xb_t, w, w, config)
    feat_t, _ = nn.forward(encoder, xb_t)
    assert (np.argmax(nn.forward(classifier, feat_t)[0], axis=1) == 2).all()
    assert step.skipped_pairs == expected
