"""Small feed-forward networks with hand-written exact gradients.

Implements the layer stack, the four training losses (reweighted
classification, reweighted per-class transport discrepancy, pairwise
margin clustering, centroid alignment) with gradients, and SGD with
momentum. Everything is plain float64 numpy; gradients are exact up to
the documented envelope approximation in the discrepancy loss.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import ot
from .weights import ClassWeights, aligned_classes, as_features, as_labels, as_parts, class_rows

LEAKY_SLOPE = 0.01
CHECKPOINT_FORMAT_VERSION = 1

# Each activation tag's function and derivative, both taken at the pre-activation.
_ACTIVATION_FNS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0).astype(float)),
    "leaky-relu": (
        lambda z: np.where(z > 0, z, LEAKY_SLOPE * z), lambda z: np.where(z > 0, 1.0, LEAKY_SLOPE)
    ),
    "softplus": (lambda z: np.logaddexp(0.0, z), lambda z: 1.0 / (1.0 + np.exp(-z))),
    "identity": (lambda z: z, np.ones_like),
}
ACTIVATIONS = tuple(_ACTIVATION_FNS)


class GradientBlowupError(RuntimeError):
    """A non-finite gradient appeared; carries the offending layer index."""

    def __init__(self, layer_index: int):
        self.layer_index = int(layer_index)
        super().__init__(f"gradient blowup in layer {layer_index}")


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


def check_format_version(obj: dict) -> None:
    """Raise unless a checkpoint object carries ``CHECKPOINT_FORMAT_VERSION``."""
    version = obj.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version {version!r}")


@dataclass(frozen=True)
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str

    def __post_init__(self):
        weight = np.asarray(self.weight, dtype=float)
        bias = np.asarray(self.bias, dtype=float).reshape(-1)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "bias", bias)
        if weight.ndim != 2 or bias.size != weight.shape[0]:
            raise ValueError("layer weight/bias shapes disagree")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not (np.all(np.isfinite(weight)) and np.all(np.isfinite(bias))):
            raise ValueError("non-finite layer parameters")


@dataclass(frozen=True)
class NetworkParams:
    """An ordered stack of affine layers with activation tags."""

    layers: tuple

    def __post_init__(self):
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if not layers:
            raise ValueError("network needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.weight.shape[1] != prev.weight.shape[0]:
                raise ValueError("consecutive layer dimensions do not chain")

    @property
    def in_dim(self) -> int:
        return int(self.layers[0].weight.shape[1])

    @property
    def out_dim(self) -> int:
        return int(self.layers[-1].weight.shape[0])

    def to_dict(self) -> dict:
        return {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "layers": [
                {
                    "shape": list(layer.weight.shape),
                    "weight": layer.weight.ravel().tolist(),
                    "bias": layer.bias.tolist(),
                    "activation": layer.activation,
                }
                for layer in self.layers
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @staticmethod
    def from_dict(obj: dict) -> "NetworkParams":
        check_format_version(obj)
        layers = []
        for spec in obj["layers"]:
            out_dim, in_dim = spec["shape"]
            weight = np.asarray(spec["weight"], dtype=float).reshape(out_dim, in_dim)
            layers.append(Layer(weight, np.asarray(spec["bias"]), spec["activation"]))
        return NetworkParams(tuple(layers))

    @staticmethod
    def from_json(text: str) -> "NetworkParams":
        return NetworkParams.from_dict(json.loads(text))


def init_network(sizes: Sequence[int], activations: Sequence[str], rng: np.random.Generator) -> NetworkParams:
    """He-uniform init for relu-family layers, Xavier-uniform otherwise.

    ``sizes`` has one more entry than ``activations``; biases start at
    zero.
    """
    if len(sizes) != len(activations) + 1:
        raise ValueError("need one activation per layer")
    if min(sizes) < 1:
        raise ValueError(f"layer sizes must be positive, got {list(sizes)}")
    layers = []
    for fan_in, fan_out, tag in zip(sizes, sizes[1:], activations):
        if tag in ("relu", "leaky-relu"):
            limit = np.sqrt(6.0 / fan_in)
        else:
            limit = np.sqrt(6.0 / (fan_in + fan_out))
        weight = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append(Layer(weight, np.zeros(fan_out), tag))
    return NetworkParams(tuple(layers))


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


@dataclass
class ForwardCache:
    params: NetworkParams
    inputs: list
    preacts: list


class BackwardResult(NamedTuple):
    param_grads: list  # one (d_weight, d_bias) pair per layer
    input_grad: np.ndarray


def forward(params: NetworkParams, x) -> tuple:
    """Run the stack on a batch, caching activations for the backward pass."""
    # Not as_features: a non-finite activation must reach the SGD step, whose
    # GradientBlowupError names the layer it blew up in.
    h = np.atleast_2d(np.asarray(x, dtype=float))
    if h.shape[1] != params.in_dim:
        raise ValueError(f"input dim {h.shape[1]} does not match network ({params.in_dim})")
    inputs, preacts = [], []
    for layer in params.layers:
        inputs.append(h)
        z = h @ layer.weight.T + layer.bias
        preacts.append(z)
        h = _ACTIVATION_FNS[layer.activation][0](z)
    return h, ForwardCache(params, inputs, preacts)


def backward(params: NetworkParams, cache: ForwardCache, upstream) -> BackwardResult:
    """Chain an upstream output gradient back to every weight and bias.

    ``cache`` must come from a matching ``forward`` call on the same
    parameter object; anything else is a stale cache.
    """
    if cache.params is not params:
        raise ValueError("stale cache: backward called with mismatched forward cache")
    grad = np.atleast_2d(np.asarray(upstream, dtype=float))
    if grad.shape != cache.preacts[-1].shape:
        raise ValueError("upstream gradient shape does not match network output")
    param_grads = [None] * len(params.layers)
    for idx in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[idx]
        dz = grad * _ACTIVATION_FNS[layer.activation][1](cache.preacts[idx])
        param_grads[idx] = (dz.T @ cache.inputs[idx], dz.sum(axis=0))
        grad = dz @ layer.weight
    return BackwardResult(param_grads, grad)


def zero_velocity(params: NetworkParams) -> list:
    return [(np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in params.layers]


def sgd_momentum_step(
    params: NetworkParams,
    grads: Sequence,
    velocity: Sequence,
    lr: float,
    momentum: float,
) -> tuple:
    """One SGD-with-momentum update: v <- mu v + g, theta <- theta - lr v.

    Returns a new parameter object and the new velocity state. Raises
    :class:`GradientBlowupError` on any non-finite gradient; an update that
    overflows is rejected by :class:`Layer` with ``ValueError``.
    """
    if not 0.0 <= momentum < 1.0:
        raise ValueError("momentum must be in [0, 1)")
    new_layers, new_velocity = [], []
    for idx, (layer, (g_w, g_b), (v_w, v_b)) in enumerate(zip(params.layers, grads, velocity)):
        if not (np.all(np.isfinite(g_w)) and np.all(np.isfinite(g_b))):
            raise GradientBlowupError(idx)
        v_w = momentum * v_w + g_w
        v_b = momentum * v_b + g_b
        weight = layer.weight - lr * v_w
        bias = layer.bias - lr * v_b
        new_layers.append(Layer(weight, bias, layer.activation))
        new_velocity.append((v_w, v_b))
    return NetworkParams(tuple(new_layers)), new_velocity


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


class LossValue(NamedTuple):
    value: float
    grad: np.ndarray


class DiscrepancyResult(NamedTuple):
    value: float
    grad_source: np.ndarray
    grad_target: np.ndarray
    skipped: tuple
    couplings: dict  # class id -> coupling matrix (rows: source, cols: target)


class InterResult(NamedTuple):
    value: float
    grads_source: list
    grads_target: list
    skipped: tuple


@dataclass(frozen=True)
class LossBundle:
    """The four loss terms and their weighted total."""

    l_y: float
    l_d: float
    l_intra: float
    l_inter: float
    total: float

    @staticmethod
    def from_parts(
        l_y: float,
        l_d: float,
        l_intra: float,
        l_inter: float,
        lambda_y: float,
        lambda_d: float,
        lambda_c: float,
        lambda_a: float,
    ) -> "LossBundle":
        total = lambda_y * l_y + lambda_d * l_d + lambda_c * l_intra + lambda_a * l_inter
        return LossBundle(float(l_y), float(l_d), float(l_intra), float(l_inter), float(total))

    def to_dict(self) -> dict:
        return asdict(self)


def _nll_and_grad(logits, labels):
    """Per-sample negative log-likelihoods, unscaled logit gradients, labels."""
    logits = np.atleast_2d(np.asarray(logits, dtype=float))
    rows = np.arange(logits.shape[0])
    labels = as_labels(labels, logits.shape[1], rows.size)
    if not rows.size:
        raise ValueError("empty batch")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    grad = np.exp(log_probs)
    grad[rows, labels] -= 1.0
    return -log_probs[rows, labels], grad, labels


def cross_entropy(logits, labels) -> LossValue:
    """Mean cross-entropy over a batch, with the gradient w.r.t. logits."""
    nll, grad, _ = _nll_and_grad(logits, labels)
    return LossValue(float(nll.mean()), grad / nll.size)


def loss_classification_weighted(
    logits,
    labels,
    w_t: ClassWeights,
    w_s: ClassWeights,
    weight_floor: float = 1e-3,
    ratio_cap: float | None = None,
) -> LossValue:
    """Importance-reweighted source cross-entropy.

    Each sample's cross-entropy is scaled by the target/source weight
    ratio of its class, so classes that matter more in the target receive
    more attention. ``ratio_cap`` optionally bounds the ratio to keep the
    variance of the reweighted loss in check when a source class is rare.
    """
    nll, grad, labels = _nll_and_grad(logits, labels)
    if w_t.k != w_s.k or grad.shape[1] != w_s.k:
        raise ValueError("class weight length does not match the logits")
    if np.any(w_s.w < weight_floor):
        raise ValueError("degenerate source weight")
    if ratio_cap is not None and not ratio_cap > 0:
        raise ValueError("ratio_cap must be positive")
    ratios = w_t.w / w_s.w
    if ratio_cap is not None:
        ratios = np.minimum(ratios, ratio_cap)
    sample_ratio = ratios[labels]
    grad *= sample_ratio[:, None] / nll.size
    return LossValue(float((nll * sample_ratio).mean()), grad)


def loss_discrepancy_weighted(
    feat_s,
    labels_s,
    feat_t,
    pseudo_t,
    w_t: ClassWeights,
    reg: float = 0.05,
    max_iter: int = 1000,
    tol: float = 1e-5,
    reg_mode: str = "absolute",
) -> DiscrepancyResult:
    """Target-reweighted per-class transport discrepancy with gradients.

    For each class present on both sides, solves entropic transport
    between the class's source features and pseudo-class target features
    (uniform marginals, Euclidean cost) and adds ``w_t[k]`` times the
    transport cost. Gradients hold the converged coupling fixed, i.e. each
    feature receives the coupling-weighted sum of unit vectors towards its
    transport partners. Classes missing on either side are skipped with a
    count, which is routine for minibatches under label shift.
    """
    feat_s = as_features(feat_s, "feat_s")
    feat_t = as_features(feat_t, "feat_t", feat_s.shape[1])
    rows_s = class_rows(labels_s, w_t.k, feat_s.shape[0])
    rows_t = class_rows(pseudo_t, w_t.k, feat_t.shape[0])
    value = 0.0
    grad_s = np.zeros_like(feat_s)
    grad_t = np.zeros_like(feat_t)
    aligned, skipped = aligned_classes(rows_s, rows_t)
    couplings = {}
    for k in aligned:
        idx_s, idx_t = rows_s[k], rows_t[k]
        xs, xt = feat_s[idx_s], feat_t[idx_t]
        plan, cost, _ = ot.uniform_plan(xs, xt, reg, max_iter, tol, reg_mode)
        weight = w_t[k]
        value += weight * plan.cost
        couplings[k] = plan.coupling
        # Envelope gradient: d cost / d x_i with the coupling held fixed.
        direction = np.where(cost > 1e-12, plan.coupling / np.maximum(cost, 1e-12), 0.0)
        grad_s[idx_s] += weight * (direction.sum(axis=1)[:, None] * xs - direction @ xt)
        grad_t[idx_t] += weight * (direction.sum(axis=0)[:, None] * xt - direction.T @ xs)
    return DiscrepancyResult(float(value), grad_s, grad_t, skipped, couplings)


def loss_intra(features, labels, margin: float) -> LossValue:
    """Pairwise margin clustering loss over all ordered pairs in a batch.

    Same-label pairs contribute their squared distance, different-label
    pairs a hinge pushing the squared distance past ``margin``. The
    diagonal is included and contributes zero.
    """
    if not 0 < margin < np.inf:
        raise ValueError("margin must be positive and finite")
    x = as_features(features, "features")
    n = x.shape[0]
    labels = as_labels(labels, n=n)
    if not n:
        raise ValueError("empty batch")
    gram = x @ x.T
    sq_norms = np.diag(gram)
    sq_dist = np.maximum(sq_norms[:, None] + sq_norms[None, :] - 2.0 * gram, 0.0)
    same = labels[:, None] == labels[None, :]
    hinge_active = (~same) & (sq_dist < margin)
    value = (sq_dist[same].sum() + (margin - sq_dist[hinge_active]).sum()) / n**2
    # Signed pair coefficients; the matrix is symmetric, so the gradient
    # collapses to degree * x - A @ x.
    coeff = same.astype(float) - hinge_active.astype(float)
    grad = (4.0 / n**2) * (coeff.sum(axis=1)[:, None] * x - coeff @ x)
    return LossValue(float(value), grad)


def loss_inter(parts_s: Sequence[np.ndarray], parts_t: Sequence[np.ndarray]) -> InterResult:
    """Mean squared distance between paired per-class feature centroids.

    Classes empty on either side are skipped and counted; the mean runs
    over the classes present on both sides. The non-empty parts of both
    lists share one feature space. Gradients are returned per class,
    shaped like the inputs.
    """
    if len(parts_s) < 1:
        raise ValueError("need at least one class")
    parts_s, d = as_parts(parts_s, "parts_s")
    parts_t = as_parts(parts_t, "parts_t", d)[0]
    aligned, skipped = aligned_classes(parts_s, parts_t)
    grads_s = [np.zeros_like(p) for p in parts_s]
    grads_t = [np.zeros_like(p) for p in parts_t]
    value = 0.0
    for i in aligned:
        diff = parts_s[i].mean(axis=0) - parts_t[i].mean(axis=0)
        value += float(diff @ diff)
        grads_s[i] += 2.0 * diff[None, :] / (len(aligned) * parts_s[i].shape[0])
        grads_t[i] -= 2.0 * diff[None, :] / (len(aligned) * parts_t[i].shape[0])
    return InterResult(value / max(len(aligned), 1), grads_s, grads_t, skipped)
