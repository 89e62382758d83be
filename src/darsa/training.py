"""Training driver for rebalanced sub-domain alignment.

Pretrains a source encoder and classifier on labeled source data, clones
the encoder for the target domain, then alternates minibatch updates of
three parameter groups: classifier and source encoder descend the full
weighted objective, the target encoder descends everything except the
classification term. Target class weights are re-estimated from the
classifier's own predictions once per epoch; target sub-domains inside
the losses come from per-minibatch pseudo-labels that are held fixed
within a step.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import bounds, nn, ot
from .synthdata import Dataset, capped_indices
from .weights import ClassWeights, aligned_classes, as_features, as_labels, class_rows


class TrainingError(RuntimeError):
    """Training aborted; carries the failing epoch and batch index."""

    def __init__(self, epoch: int, batch: int, cause: Exception):
        self.epoch = int(epoch)
        self.batch = int(batch)
        super().__init__(f"training failed at epoch {epoch}, batch {batch}: {cause}")


# What ``fit`` reports as a ``TrainingError``: in pretraining, the target-weight
# estimate, a step or the snapshot.
_FAILURES = (nn.GradientBlowupError, FloatingPointError, ValueError, ot.SinkhornDivergenceError)


# Accepted types of a config field, by its annotation.
_CONFIG_KINDS = {"float": numbers.Real, "int": numbers.Integral, "bool": bool, "str": str}


def has_kind(value, kind: str) -> bool:
    """Whether a config or JSON value is of the named kind; a bool is no number, and
    a "tuple" is a flat list of numbers."""
    if kind == "tuple":
        return isinstance(value, (tuple, list)) and all(has_kind(x, "float") for x in value)
    return isinstance(value, _CONFIG_KINDS[kind]) and isinstance(value, bool) == (kind == "bool")


@dataclass(frozen=True)
class DarsaConfig:
    """Hyperparameters for the training loop.

    The four lambdas weight the classification, discrepancy, clustering
    and centroid-alignment losses; ``margin`` is the clustering margin,
    ``lr`` and ``momentum`` drive SGD. ``weight_floor`` keeps estimated
    class weights away from zero and ``ratio_cap`` bounds the importance
    ratios. With ``estimate_w_t`` off the target weights are pinned to the
    source label distribution, which together with zeroed alignment
    lambdas gives the source-only baseline.
    """

    lambda_y: float = 1.0
    lambda_d: float = 0.5
    lambda_c: float = 1.0
    lambda_a: float = 1.0
    margin: float = 30.0
    lr: float = 0.01
    momentum: float = 0.5
    batch_size: int = 128
    pretrain_epochs: int = 10
    epochs: int = 30
    sinkhorn_reg: float = 0.05
    sinkhorn_tol: float = 1e-3
    sinkhorn_max_iter: int = 1000
    sinkhorn_reg_mode: str = "relative"
    weight_floor: float = 1e-3
    ratio_cap: float = 10.0
    seed: int = 0
    encoder_hidden: tuple = (32,)
    feature_dim: int = 8
    classifier_hidden: tuple = (32,)
    estimate_w_t: bool = True
    snapshot_max: int = 512

    def __post_init__(self):
        for fld in fields(self):
            value = getattr(self, fld.name)
            ok = has_kind(value, fld.type) or (fld.name == "ratio_cap" and value is None)
            if ok and fld.type == "tuple":
                ok = all(has_kind(width, "int") and width >= 1 for width in value)
                object.__setattr__(self, fld.name, tuple(value))
            if not ok:
                raise ValueError(
                    f"invalid darsa config: {fld.name} must be {fld.type}, got {value!r}"
                )
            if fld.type == "float" and value is not None and not -math.inf < value < math.inf:
                raise ValueError(f"invalid darsa config: {fld.name} must be finite, got {value!r}")
        if min(self.lambda_y, self.lambda_d, self.lambda_c, self.lambda_a) < 0:
            raise ValueError("loss weights must be nonnegative")
        if self.margin <= 0 or self.lr <= 0:
            raise ValueError("margin and lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if min(self.batch_size, self.feature_dim, self.epochs + 1, self.pretrain_epochs + 1) < 1:
            raise ValueError("batch_size and feature_dim must be positive, epochs nonnegative")
        ot._check_solver(**_solver(self))
        if self.weight_floor <= 0:
            raise ValueError("weight_floor must be positive")
        if self.ratio_cap is not None and self.ratio_cap <= 0:
            raise ValueError("ratio_cap must be positive")
        if self.snapshot_max < 2:
            raise ValueError("snapshot_max must be at least 2")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(obj: dict) -> "DarsaConfig":
        try:
            return DarsaConfig(**obj)
        except TypeError as exc:
            raise ValueError(f"invalid darsa config: {exc}") from exc


def _solver(config: DarsaConfig) -> dict:
    """The config's four Sinkhorn settings as the keywords of a solve (``ot.uniform_plan``'s)."""
    return dict(
        reg=config.sinkhorn_reg, max_iter=config.sinkhorn_max_iter,
        tol=config.sinkhorn_tol, reg_mode=config.sinkhorn_reg_mode,
    )


@dataclass(frozen=True)
class DarsaModels:
    encoder_s: nn.NetworkParams
    encoder_t: nn.NetworkParams
    classifier: nn.NetworkParams

    def to_dict(self) -> dict:
        nets = {fld.name: getattr(self, fld.name).to_dict() for fld in fields(self)}
        return {"format_version": nn.CHECKPOINT_FORMAT_VERSION, **nets}

    @staticmethod
    def from_dict(obj: dict) -> "DarsaModels":
        nn.check_format_version(obj)
        return DarsaModels(*(nn.NetworkParams.from_dict(obj[f.name]) for f in fields(DarsaModels)))


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    losses: nn.LossBundle
    w_t: np.ndarray
    source_accuracy: float
    target_accuracy: float | None
    bound: bounds.BoundReport
    skipped_pairs: int

    def to_json_obj(self) -> dict:
        return {**asdict(self), "w_t": self.w_t.tolist()}


@dataclass
class TrainMetrics:
    records: list = field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def to_jsonl(self) -> str:
        return "".join(json.dumps(r.to_json_obj()) + "\n" for r in self.records)


class StepGradients(NamedTuple):
    grads_encoder_s: list
    grads_encoder_t: list
    grads_classifier: list
    losses: tuple  # unweighted (l_y, l_d, l_intra, l_inter)
    skipped_pairs: int


# ---------------------------------------------------------------------------
# Inference helpers
# ---------------------------------------------------------------------------


def apply_models(encoder: nn.NetworkParams, classifier: nn.NetworkParams, x) -> tuple:
    """Encoder features, classifier logits and class predictions of ``x``;
    argmax ties resolve to the lowest class id."""
    feats, _ = nn.forward(encoder, as_features(x, "x", encoder.in_dim))
    logits, _ = nn.forward(classifier, feats)
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite network output")
    return feats, logits, np.argmax(logits, axis=1)


def predict(encoder: nn.NetworkParams, classifier: nn.NetworkParams, x) -> np.ndarray:
    """Class predictions; argmax ties resolve to the lowest class id."""
    return apply_models(encoder, classifier, x)[2]


def accuracy(encoder, classifier, x, labels) -> float:
    predictions = predict(encoder, classifier, x)
    return float(np.mean(predictions == as_labels(labels, classifier.out_dim, predictions.size)))


def _check_floor(floor: float, k: int):
    """``estimate_target_weights``' rule: K floors must leave mass to share."""
    if floor * k >= 1:
        raise ValueError("floor too large for the number of classes")


def estimate_target_weights(
    encoder_t: nn.NetworkParams,
    classifier: nn.NetworkParams,
    x_t,
    floor: float,
) -> ClassWeights:
    """Estimate target class weights from the classifier's soft predictions.

    Mean softmax probability per class over the target samples, clamped
    below at ``floor`` and renormalized onto the simplex.
    """
    _check_floor(floor, classifier.out_dim)
    _, logits, _ = apply_models(encoder_t, classifier, x_t)
    if logits.shape[0] == 0:
        raise ValueError("empty target set")
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    mean = np.maximum(probs.mean(axis=0), floor)
    return ClassWeights(mean / mean.sum())


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def default_networks(d: int, k: int, config: DarsaConfig, rng: np.random.Generator):
    enc_sizes = [d, *config.encoder_hidden, config.feature_dim]
    enc_acts = ["relu"] * len(config.encoder_hidden) + ["identity"]
    cls_sizes = [config.feature_dim, *config.classifier_hidden, k]
    cls_acts = ["relu"] * len(config.classifier_hidden) + ["identity"]
    encoder = nn.init_network(enc_sizes, enc_acts, rng)
    classifier = nn.init_network(cls_sizes, cls_acts, rng)
    return encoder, classifier


def _steps_per_epoch(source: Dataset, config: DarsaConfig) -> int:
    return max(1, int(np.ceil(source.n / config.batch_size)))


def _descend(nets: list, grads, velocity: list, config: DarsaConfig) -> None:
    """One SGD-with-momentum step of each network, in place in ``nets`` and
    ``velocity``. The classifier (last) steps first and the encoders then in
    order: that order decides which layer a gradient blowup names."""
    for i in (-1, *range(len(nets) - 1)):
        nets[i], velocity[i] = nn.sgd_momentum_step(
            nets[i], grads[i], velocity[i], config.lr, config.momentum
        )


def pretrain(
    encoder_s: nn.NetworkParams,
    classifier: nn.NetworkParams,
    source: Dataset,
    config: DarsaConfig,
    rng: np.random.Generator | None = None,
):
    """Plain cross-entropy SGD on the source for ``pretrain_epochs``."""
    if source.labels is None:
        raise ValueError("pretraining requires labeled source data")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    nets = [encoder_s, classifier]
    velocity = [nn.zero_velocity(net) for net in nets]
    for _ in range(config.pretrain_epochs):
        for _ in range(_steps_per_epoch(source, config)):
            idx = capped_indices(rng, source.n, config.batch_size)
            encoder_s, classifier = nets
            feats, cache_enc = nn.forward(encoder_s, source.features[idx])
            logits, cache_cls = nn.forward(classifier, feats)
            _, dlogits = nn.cross_entropy(logits, source.labels[idx])
            bp_cls = nn.backward(classifier, cache_cls, dlogits)
            bp_enc = nn.backward(encoder_s, cache_enc, bp_cls.input_grad)
            _descend(nets, (bp_enc.param_grads, bp_cls.param_grads), velocity, config)
    return tuple(nets)


def compute_step_gradients(
    encoder_s: nn.NetworkParams,
    encoder_t: nn.NetworkParams,
    classifier: nn.NetworkParams,
    xb_s,
    yb_s,
    xb_t,
    w_s: ClassWeights,
    w_t: ClassWeights,
    config: DarsaConfig,
) -> StepGradients:
    """One minibatch's losses and per-group gradients.

    Pseudo-labels for the target batch are computed once here and held
    fixed, so the classification term contributes nothing to the target
    encoder's gradient. Losses with a zero lambda are skipped and reported
    as zero.
    """
    k = classifier.out_dim
    feat_s, cache_es = nn.forward(encoder_s, xb_s)
    feat_t, cache_et = nn.forward(encoder_t, xb_t)
    logits_s, cache_cls = nn.forward(classifier, feat_s)
    logits_t, _ = nn.forward(classifier, feat_t)
    pseudo = np.argmax(logits_t, axis=1)

    l_y, dlogits = nn.loss_classification_weighted(
        logits_s, yb_s, w_t, w_s,
        weight_floor=config.weight_floor, ratio_cap=config.ratio_cap,
    )
    bp_cls = nn.backward(classifier, cache_cls, config.lambda_y * dlogits)
    d_feat_s = bp_cls.input_grad.copy()
    d_feat_t = np.zeros_like(feat_t)

    skipped = ()
    if config.lambda_d > 0 or config.lambda_a > 0:
        rows_s, rows_t = class_rows(yb_s, k), class_rows(pseudo, k)
        skipped = aligned_classes(rows_s, rows_t)[1]

    l_d = 0.0
    if config.lambda_d > 0:
        disc = nn.loss_discrepancy_weighted(feat_s, yb_s, feat_t, pseudo, w_t, **_solver(config))
        l_d = disc.value
        d_feat_s += config.lambda_d * disc.grad_source
        d_feat_t += config.lambda_d * disc.grad_target

    l_intra = 0.0
    if config.lambda_c > 0:
        intra_s = nn.loss_intra(feat_s, yb_s, config.margin)
        intra_t = nn.loss_intra(feat_t, pseudo, config.margin)
        l_intra = intra_s.value + intra_t.value
        d_feat_s += config.lambda_c * intra_s.grad
        d_feat_t += config.lambda_c * intra_t.grad

    l_inter = 0.0
    if config.lambda_a > 0:
        inter = nn.loss_inter([feat_s[r] for r in rows_s], [feat_t[r] for r in rows_t])
        l_inter = inter.value
        for c in range(k):
            d_feat_s[rows_s[c]] += config.lambda_a * inter.grads_source[c]
            d_feat_t[rows_t[c]] += config.lambda_a * inter.grads_target[c]

    bp_es = nn.backward(encoder_s, cache_es, d_feat_s)
    bp_et = nn.backward(encoder_t, cache_et, d_feat_t)
    return StepGradients(
        bp_es.param_grads, bp_et.param_grads, bp_cls.param_grads,
        (l_y, l_d, l_intra, l_inter), len(skipped),
    )


def _epoch_snapshot(
    encoder_s, encoder_t, classifier, source, target, eval_labels, w_t, config, epoch
):
    feat_s, _, preds_s = apply_models(encoder_s, classifier, source.features)
    feat_t, _, pseudo_t = apply_models(encoder_t, classifier, target.features)
    source_acc = float(np.mean(preds_s == source.labels))
    target_acc = None if eval_labels is None else float(np.mean(pseudo_t == eval_labels))

    # Bound estimates on a capped, seed-derived subsample: the transport
    # solves dominate epoch time at full data size.
    snap_rng = np.random.default_rng(config.seed * 100003 + epoch)
    idx_s = capped_indices(snap_rng, source.n, config.snapshot_max)
    idx_t = capped_indices(snap_rng, target.n, config.snapshot_max)
    rows = [class_rows(labels, w_t.k) for labels in (source.labels[idx_s], pseudo_t[idx_t])]
    if not aligned_classes(*rows)[0]:
        raise ValueError(f"the snapshot subsamples share no class; snapshot_max is {config.snapshot_max}")
    report = bounds.bound_report(
        feat_s[idx_s], preds_s[idx_s], source.labels[idx_s],
        feat_t[idx_t], pseudo_t[idx_t], w_t, **_solver(config)
    )
    return report, source_acc, target_acc


def fit(source: Dataset, target: Dataset, config: DarsaConfig, eval_labels=None):
    """Run the full training loop and return ``(models, metrics)``.

    Pretrains on the source, clones the pretrained encoder for the
    target, then for each epoch re-estimates the target class weights and
    walks the minibatches, applying the three parameter-group updates.
    Deterministic given ``config.seed``.
    """
    if source.labels is None:
        raise ValueError("source dataset must be labeled")
    if source.dim != target.dim:
        raise ValueError("feature spaces differ in dimension")
    if source.k != target.k:
        raise ValueError("class cardinality mismatch")
    if eval_labels is not None:
        eval_labels = as_labels(eval_labels, source.k, target.n)
    if config.estimate_w_t and config.epochs >= 1:
        _check_floor(config.weight_floor, source.k)

    rng = np.random.default_rng(config.seed)
    encoder, classifier = default_networks(source.dim, source.k, config, rng)
    w_s = ClassWeights.from_labels(source.labels, source.k)
    steps = _steps_per_epoch(source, config)
    metrics = TrainMetrics()
    # One failure boundary; a failure outside the step loop is at batch -1.
    epoch, batch_idx = 0, -1
    try:
        encoder, classifier = pretrain(encoder, classifier, source, config, rng=rng)
        # DarsaModels field order; both encoders start as the pretrained one
        # (immutable: the updates below fork the parameters).
        nets = [encoder, encoder, classifier]
        velocity = [nn.zero_velocity(net) for net in nets]
        for epoch in range(1, config.epochs + 1):
            w_t = w_s
            if config.estimate_w_t:
                w_t = estimate_target_weights(*nets[1:], target.features, config.weight_floor)
            sums = np.zeros(4)
            skipped_pairs = 0
            for batch_idx in range(steps):
                idx_s = capped_indices(rng, source.n, config.batch_size)
                idx_t = capped_indices(rng, target.n, config.batch_size)
                step = compute_step_gradients(
                    *nets, source.features[idx_s], source.labels[idx_s],
                    target.features[idx_t], w_s, w_t, config,
                )
                _descend(nets, step[:3], velocity, config)
                sums += step.losses
                skipped_pairs += step.skipped_pairs
            batch_idx = -1
            bundle = nn.LossBundle.from_parts(
                *(sums / steps), config.lambda_y, config.lambda_d, config.lambda_c, config.lambda_a,
            )
            for name, value in bundle.to_dict().items():
                if not np.isfinite(value):
                    raise ValueError(f"non-finite epoch loss {name}")
            report, source_acc, target_acc = _epoch_snapshot(
                *nets, source, target, eval_labels, w_t, config, epoch
            )
            metrics.append(
                EpochRecord(
                    epoch=epoch,
                    losses=bundle,
                    w_t=w_t.w.copy(),
                    source_accuracy=source_acc,
                    target_accuracy=target_acc,
                    bound=report,
                    skipped_pairs=skipped_pairs,
                )
            )
    except _FAILURES as exc:
        raise TrainingError(epoch, batch_idx, exc) from exc
    return DarsaModels(*nets), metrics
