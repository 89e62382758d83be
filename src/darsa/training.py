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
import numbers
import time
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import bounds, nn, ot
from .synthdata import Dataset
from .weights import ClassWeights, class_rows


class TrainingError(RuntimeError):
    """Training aborted; carries the failing epoch and batch index."""

    def __init__(self, epoch: int, batch: int, cause: Exception):
        self.epoch = int(epoch)
        self.batch = int(batch)
        super().__init__(f"training failed at epoch {epoch}, batch {batch}: {cause}")


# Accepted types of a config field, by its annotation.
_CONFIG_KINDS = {"float": numbers.Real, "int": numbers.Integral, "bool": bool, "str": str,
                 "tuple": (tuple, list)}


def _has_kind(value, kind: str) -> bool:
    """Whether a config value fits its annotation; a bool is no number."""
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
            ok = _has_kind(value, fld.type) or (fld.name == "ratio_cap" and value is None)
            if ok and fld.type == "tuple":
                ok = all(_has_kind(width, "int") and width >= 1 for width in value)
                object.__setattr__(self, fld.name, tuple(value))
            if not ok:
                raise ValueError(
                    f"invalid darsa config: {fld.name} must be {fld.type}, got {value!r}"
                )
        if min(self.lambda_y, self.lambda_d, self.lambda_c, self.lambda_a) < 0:
            raise ValueError("loss weights must be nonnegative")
        if self.margin <= 0 or self.lr <= 0:
            raise ValueError("margin and lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if min(self.batch_size, self.epochs + 1, self.pretrain_epochs + 1) < 1:
            raise ValueError("batch_size must be positive, epoch counts nonnegative")
        if self.sinkhorn_reg <= 0 or self.sinkhorn_tol <= 0 or self.sinkhorn_max_iter < 1:
            raise ValueError("invalid sinkhorn parameters")
        if self.sinkhorn_reg_mode not in ("absolute", "relative"):
            raise ValueError("sinkhorn_reg_mode must be 'absolute' or 'relative'")
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
    seconds: float

    def to_json_obj(self) -> dict:
        # Wall-clock seconds are deliberately left out: metrics files must
        # be byte-identical across reruns with the same config and seed.
        obj = asdict(self)
        del obj["seconds"]
        return {**obj, "w_t": self.w_t.tolist()}


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
    grads_classifier: list
    grads_encoder_s: list
    grads_encoder_t: list
    bundle: nn.LossBundle
    skipped_pairs: int


# ---------------------------------------------------------------------------
# Inference helpers
# ---------------------------------------------------------------------------


def forward_logits(encoder: nn.NetworkParams, classifier: nn.NetworkParams, x) -> np.ndarray:
    feats, _ = nn.forward(encoder, x)
    logits, _ = nn.forward(classifier, feats)
    return logits


def predict(encoder: nn.NetworkParams, classifier: nn.NetworkParams, x) -> np.ndarray:
    """Class predictions; argmax ties resolve to the lowest class id."""
    return np.argmax(forward_logits(encoder, classifier, x), axis=1)


def accuracy(encoder, classifier, x, labels) -> float:
    return float(np.mean(predict(encoder, classifier, x) == np.asarray(labels, dtype=int)))


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
    x_t = np.atleast_2d(np.asarray(x_t, dtype=float))
    if x_t.shape[0] == 0:
        raise ValueError("empty target set")
    k = classifier.out_dim
    if floor * k >= 1:
        raise ValueError("floor too large for the number of classes")
    logits = forward_logits(encoder_t, classifier, x_t)
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


def _draw_batch(rng: np.random.Generator, n: int, batch_size: int) -> np.ndarray:
    if n <= batch_size:
        return np.arange(n)
    return rng.choice(n, size=batch_size, replace=False)


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
    vel_enc = nn.zero_velocity(encoder_s)
    vel_cls = nn.zero_velocity(classifier)
    steps = max(1, int(np.ceil(source.n / config.batch_size)))
    for _ in range(config.pretrain_epochs):
        for _ in range(steps):
            idx = _draw_batch(rng, source.n, config.batch_size)
            xb, yb = source.features[idx], source.labels[idx]
            feats, cache_enc = nn.forward(encoder_s, xb)
            logits, cache_cls = nn.forward(classifier, feats)
            _, dlogits = nn.cross_entropy(logits, yb)
            bp_cls = nn.backward(classifier, cache_cls, dlogits)
            bp_enc = nn.backward(encoder_s, cache_enc, bp_cls.input_grad)
            classifier, vel_cls = nn.sgd_momentum_step(
                classifier, bp_cls.param_grads, vel_cls, config.lr, config.momentum
            )
            encoder_s, vel_enc = nn.sgd_momentum_step(
                encoder_s, bp_enc.param_grads, vel_enc, config.lr, config.momentum
            )
    return encoder_s, classifier


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

    l_d = 0.0
    skipped = set()
    if config.lambda_d > 0:
        disc = nn.loss_discrepancy_weighted(
            feat_s, yb_s, feat_t, pseudo, w_t,
            reg=config.sinkhorn_reg,
            max_iter=config.sinkhorn_max_iter,
            tol=config.sinkhorn_tol,
            reg_mode=config.sinkhorn_reg_mode,
        )
        l_d = disc.value
        skipped.update(disc.skipped)
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
        rows_s = class_rows(yb_s, k)
        rows_t = class_rows(pseudo, k)
        inter = nn.loss_inter([feat_s[r] for r in rows_s], [feat_t[r] for r in rows_t])
        l_inter = inter.value
        skipped.update(inter.skipped)
        for c in range(k):
            d_feat_s[rows_s[c]] += config.lambda_a * inter.grads_source[c]
            d_feat_t[rows_t[c]] += config.lambda_a * inter.grads_target[c]

    bp_es = nn.backward(encoder_s, cache_es, d_feat_s)
    bp_et = nn.backward(encoder_t, cache_et, d_feat_t)
    bundle = nn.LossBundle.from_parts(
        l_y, l_d, l_intra, l_inter,
        config.lambda_y, config.lambda_d, config.lambda_c, config.lambda_a,
    )
    return StepGradients(
        bp_cls.param_grads, bp_es.param_grads, bp_et.param_grads,
        bundle, len(skipped),
    )


def _epoch_snapshot(
    encoder_s, encoder_t, classifier, source, target, eval_labels, w_t, config, epoch
):
    feat_s, _ = nn.forward(encoder_s, source.features)
    feat_t, _ = nn.forward(encoder_t, target.features)
    preds_s = np.argmax(nn.forward(classifier, feat_s)[0], axis=1)
    pseudo_t = np.argmax(nn.forward(classifier, feat_t)[0], axis=1)
    source_acc = float(np.mean(preds_s == source.labels))
    target_acc = None
    if eval_labels is not None:
        target_acc = float(np.mean(pseudo_t == np.asarray(eval_labels, dtype=int)))

    # Bound estimates on a capped, seed-derived subsample: the transport
    # solves dominate epoch time at full data size.
    snap_rng = np.random.default_rng(config.seed * 100003 + epoch)

    def _sub(n):
        if n <= config.snapshot_max:
            return np.arange(n)
        return snap_rng.choice(n, size=config.snapshot_max, replace=False)

    idx_s, idx_t = _sub(source.n), _sub(target.n)
    report = bounds.bound_report(
        feat_s[idx_s], preds_s[idx_s], source.labels[idx_s],
        feat_t[idx_t], pseudo_t[idx_t], w_t,
        reg=config.sinkhorn_reg,
        max_iter=config.sinkhorn_max_iter,
        tol=config.sinkhorn_tol,
        reg_mode=config.sinkhorn_reg_mode,
    )
    return report, source_acc, target_acc


def fit(
    source: Dataset,
    target: Dataset,
    config: DarsaConfig,
    eval_labels=None,
    encoder: nn.NetworkParams | None = None,
    classifier: nn.NetworkParams | None = None,
):
    """Run the full training loop and return ``(models, metrics)``.

    Pretrains on the source, clones the pretrained encoder for the
    target, then for each epoch re-estimates the target class weights and
    walks the minibatches, applying the three parameter-group updates.
    Deterministic given ``config.seed``.
    """
    if source.labels is None:
        raise ValueError("source dataset must be labeled")
    if source.dim != target.dim:
        raise ValueError("source and target feature dimensions differ")
    if source.k != target.k:
        raise ValueError("class cardinality mismatch")
    if eval_labels is not None:
        eval_labels = np.asarray(eval_labels, dtype=int).reshape(-1)
        if eval_labels.size != target.n:
            raise ValueError("evaluation labels do not cover the target")

    k = source.k
    rng = np.random.default_rng(config.seed)
    if encoder is None or classifier is None:
        built_enc, built_cls = default_networks(source.dim, k, config, rng)
        encoder = encoder if encoder is not None else built_enc
        classifier = classifier if classifier is not None else built_cls

    w_s = ClassWeights.from_labels(source.labels, k)
    try:
        encoder_s, classifier = pretrain(encoder, classifier, source, config, rng=rng)
    except (nn.GradientBlowupError, FloatingPointError, ValueError) as exc:
        raise TrainingError(0, -1, exc) from exc
    encoder_t = encoder_s  # immutable; updates below fork the parameters
    w_t = ClassWeights.uniform(k)

    vel_cls = nn.zero_velocity(classifier)
    vel_es = nn.zero_velocity(encoder_s)
    vel_et = nn.zero_velocity(encoder_t)
    steps = max(1, int(np.ceil(source.n / config.batch_size)))
    metrics = TrainMetrics()

    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        if config.estimate_w_t:
            w_t = estimate_target_weights(
                encoder_t, classifier, target.features, config.weight_floor
            )
        else:
            w_t = w_s
        sums = np.zeros(4)
        skipped_pairs = 0
        for batch_idx in range(steps):
            idx_s = _draw_batch(rng, source.n, config.batch_size)
            idx_t = _draw_batch(rng, target.n, config.batch_size)
            try:
                step = compute_step_gradients(
                    encoder_s, encoder_t, classifier,
                    source.features[idx_s], source.labels[idx_s],
                    target.features[idx_t],
                    w_s, w_t, config,
                )
                classifier, vel_cls = nn.sgd_momentum_step(
                    classifier, step.grads_classifier, vel_cls, config.lr, config.momentum
                )
                encoder_s, vel_es = nn.sgd_momentum_step(
                    encoder_s, step.grads_encoder_s, vel_es, config.lr, config.momentum
                )
                encoder_t, vel_et = nn.sgd_momentum_step(
                    encoder_t, step.grads_encoder_t, vel_et, config.lr, config.momentum
                )
            except (
                nn.GradientBlowupError,
                FloatingPointError,
                ValueError,
                ot.SinkhornDivergenceError,
            ) as exc:
                raise TrainingError(epoch, batch_idx, exc) from exc
            sums += (step.bundle.l_y, step.bundle.l_d, step.bundle.l_intra, step.bundle.l_inter)
            skipped_pairs += step.skipped_pairs

        mean = sums / steps
        bundle = nn.LossBundle.from_parts(
            mean[0], mean[1], mean[2], mean[3],
            config.lambda_y, config.lambda_d, config.lambda_c, config.lambda_a,
        )
        try:
            report, source_acc, target_acc = _epoch_snapshot(
                encoder_s, encoder_t, classifier, source, target, eval_labels, w_t,
                config, epoch,
            )
        except (ValueError, ot.SinkhornDivergenceError) as exc:
            raise TrainingError(epoch, -1, exc) from exc
        metrics.append(
            EpochRecord(
                epoch=epoch,
                losses=bundle,
                w_t=w_t.w.copy(),
                source_accuracy=source_acc,
                target_accuracy=target_acc,
                bound=report,
                skipped_pairs=skipped_pairs,
                seconds=time.perf_counter() - started,
            )
        )

    models = DarsaModels(encoder_s, encoder_t, classifier)
    return models, metrics
