"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a one-line pass/fail verdict. Run with ``pytest -s`` to see the
verdict lines as they go.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from darsa import nn
from darsa.bounds import SubdomainPartition, check_decomposition, delta_c, split_by_class
from darsa.cli import main
from darsa.ot import (
    GaussianComponent,
    GaussianMixture,
    euclidean_cost_matrix,
    mw1_gmm,
    ot_exact_discrete,
    pairwise_component_w1,
    sample_gmm,
    sinkhorn,
    uniform_plan,
    w1_empirical,
    w1_exact_1d,
    weighted_subdomain_w1,
)
from darsa.synthdata import make_figure1_task, make_shifted_gmm
from darsa.training import DarsaConfig, fit
from darsa.weights import ClassWeights
from helpers import fd_gradient, max_rel_error

FD_TOL = 1e-4
FD_STEP = 1e-5

# The end-to-end adaptation task: 3 classes in 2-D, heavy source class
# becomes light in the target and vice versa, target means offset by 0.5,
# per-class noise 0.3.
TASK = dict(
    k=3,
    d=2,
    mean_separation=1.0,
    target_mean_shift=0.5,
    source_props=ClassWeights(np.array([0.6, 0.2, 0.2])),
    target_props=ClassWeights(np.array([0.2, 0.2, 0.6])),
    n_per_domain=600,
    sigma=0.3,
)
ADAPT_CONFIG = DarsaConfig(
    lambda_y=1.0,
    lambda_d=0.2,
    lambda_c=0.3,
    lambda_a=0.2,
    margin=10.0,
    lr=0.01,
    momentum=0.5,
    batch_size=128,
    pretrain_epochs=20,
    epochs=10,
)
ADAPT_SEEDS = (0, 1, 2, 3, 4)


def _verdict(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


# ---------------------------------------------------------------------------
# 1. Risk decomposition identity
# ---------------------------------------------------------------------------


def test_criterion_1_decomposition_identity():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 1001))
        k = int(rng.integers(1, 11))
        labels = rng.integers(0, k, size=n)
        preds = rng.integers(0, k, size=n)
        worst = max(worst, check_decomposition(preds, labels, SubdomainPartition(labels, k)))
    _verdict(
        1, "risk decomposition residual <= 1e-12 on 200 random datasets",
        worst <= 1e-12, f"worst residual {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 2. Entropic solver vs exact oracle
# ---------------------------------------------------------------------------


def test_criterion_2_ot_oracle_equivalence():
    rng = np.random.default_rng(1002)
    worst_excess = -np.inf
    for _ in range(50):
        n, m = rng.integers(2, 9, size=2)
        cost = rng.random((n, m))
        a = np.full(n, 1.0 / n)
        b = np.full(m, 1.0 / m)
        exact = ot_exact_discrete(cost, a, b).cost
        approx = sinkhorn(cost, a, b, reg=0.005, max_iter=20000, tol=1e-6).cost
        worst_excess = max(worst_excess, abs(approx - exact) - max(0.05 * exact, 0.01))
    _verdict(
        2, "sinkhorn within max(0.05*exact, 0.01) of the exact LP on 50 instances",
        worst_excess <= 0.0, f"worst margin {worst_excess:+.2e}",
    )


# ---------------------------------------------------------------------------
# 3. Gradient fidelity
# ---------------------------------------------------------------------------


def _check_classification_grads(rng):
    worst = 0.0
    for _ in range(50):
        n, k = int(rng.integers(2, 9)), int(rng.integers(2, 5))
        logits = rng.normal(size=(n, k))
        labels = rng.integers(0, k, size=n)
        w_t = ClassWeights(rng.dirichlet(np.full(k, 3.0)))
        w_s = ClassWeights(rng.dirichlet(np.full(k, 8.0)) * 0.9 + 0.1 / k)
        result = nn.loss_classification_weighted(logits, labels, w_t, w_s, weight_floor=1e-3)
        fd = fd_gradient(
            lambda: nn.loss_classification_weighted(
                logits, labels, w_t, w_s, weight_floor=1e-3
            ).value,
            logits,
            h=FD_STEP,
        )
        worst = max(worst, max_rel_error(result.grad, fd))
    return worst


def _check_discrepancy_grads(rng):
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 4))
        h_dim = int(rng.integers(1, 4))
        feat_s = rng.normal(size=(int(rng.integers(k, 9)), h_dim))
        feat_t = rng.normal(size=(int(rng.integers(k, 9)), h_dim))
        labels_s = rng.integers(0, k, size=feat_s.shape[0])
        pseudo_t = rng.integers(0, k, size=feat_t.shape[0])
        w_t = ClassWeights(rng.dirichlet(np.full(k, 3.0)))
        result = nn.loss_discrepancy_weighted(
            feat_s, labels_s, feat_t, pseudo_t, w_t, reg=0.05, max_iter=20000, tol=1e-6
        )

        def frozen():
            total = 0.0
            for cls, coupling in result.couplings.items():
                xs = feat_s[labels_s == cls]
                xt = feat_t[pseudo_t == cls]
                total += w_t[cls] * float(np.sum(coupling * euclidean_cost_matrix(xs, xt)))
            return total

        worst = max(worst, max_rel_error(result.grad_source, fd_gradient(frozen, feat_s, h=FD_STEP)))
        worst = max(worst, max_rel_error(result.grad_target, fd_gradient(frozen, feat_t, h=FD_STEP)))
    return worst


def _check_intra_grads(rng):
    worst = 0.0
    for _ in range(50):
        n, h_dim = int(rng.integers(2, 10)), int(rng.integers(1, 4))
        feats = rng.normal(size=(n, h_dim))
        labels = rng.integers(0, 3, size=n)
        margin = float(rng.uniform(1.0, 20.0))
        result = nn.loss_intra(feats, labels, margin)
        fd = fd_gradient(lambda: nn.loss_intra(feats, labels, margin).value, feats, h=FD_STEP)
        worst = max(worst, max_rel_error(result.grad, fd))
    return worst


def _check_inter_grads(rng):
    worst = 0.0
    for _ in range(50):
        k, h_dim = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        parts_s = [rng.normal(size=(int(rng.integers(1, 6)), h_dim)) for _ in range(k)]
        parts_t = [rng.normal(size=(int(rng.integers(1, 6)), h_dim)) for _ in range(k)]
        result = nn.loss_inter(parts_s, parts_t)
        for i in range(k):
            fd = fd_gradient(lambda: nn.loss_inter(parts_s, parts_t).value, parts_s[i], h=FD_STEP)
            worst = max(worst, max_rel_error(result.grads_source[i], fd))
            fd = fd_gradient(lambda: nn.loss_inter(parts_s, parts_t).value, parts_t[i], h=FD_STEP)
            worst = max(worst, max_rel_error(result.grads_target[i], fd))
    return worst


def _check_backward_grads(rng):
    activations = ("relu", "leaky-relu", "softplus", "identity")
    worst = 0.0
    for _ in range(50):
        sizes = [int(rng.integers(1, 5)) for _ in range(3)]
        acts = [str(rng.choice(activations)), "identity"]
        net = nn.init_network(sizes, acts, rng)
        x = rng.normal(size=(int(rng.integers(1, 7)), sizes[0]))
        targets = rng.normal(size=(x.shape[0], sizes[-1]))

        def loss():
            out, _ = nn.forward(net, x)
            return 0.5 * float(np.sum((out - targets) ** 2))

        out, cache = nn.forward(net, x)
        result = nn.backward(net, cache, out - targets)
        for layer, (d_weight, d_bias) in zip(net.layers, result.param_grads):
            worst = max(worst, max_rel_error(d_weight, fd_gradient(loss, layer.weight, h=FD_STEP)))
            worst = max(worst, max_rel_error(d_bias, fd_gradient(loss, layer.bias, h=FD_STEP)))
    return worst


def test_criterion_3_gradient_fidelity():
    rng = np.random.default_rng(1003)
    errors = {
        "l_y": _check_classification_grads(rng),
        "l_d": _check_discrepancy_grads(rng),
        "l_intra": _check_intra_grads(rng),
        "l_inter": _check_inter_grads(rng),
        "backward": _check_backward_grads(rng),
    }
    worst = max(errors.values())
    _verdict(
        3, "all loss and backward gradients match central differences (rel err <= 1e-4)",
        worst <= FD_TOL,
        ", ".join(f"{name} {err:.1e}" for name, err in errors.items()),
    )


# ---------------------------------------------------------------------------
# 4. Two-cluster task: weighted vs overall discrepancy
# ---------------------------------------------------------------------------


def test_criterion_4_figure1_analog():
    source, target = make_figure1_task(sigma=0.05, n_per_domain=2000, seed=1004)
    parts_s = split_by_class(source.features, source.labels, 2)
    parts_t = split_by_class(target.features, target.labels, 2)
    w_t = target.class_proportions()

    weighted = weighted_subdomain_w1(
        parts_s, parts_t, w_t, reg=0.005, max_iter=5000, tol=1e-7
    ).value
    overall = w1_empirical(
        source.features, target.features, reg=0.01, max_iter=2000, tol=1e-6
    )
    slack = delta_c(parts_s + parts_t)

    paired_ok = True
    details = []
    for k in range(2):
        est = w1_empirical(parts_s[k], parts_t[k], reg=0.005, max_iter=5000, tol=1e-7)
        oracle = w1_exact_1d(parts_s[k].ravel(), parts_t[k].ravel())
        paired_ok &= abs(est - 0.10) <= 0.03 and abs(est - oracle) <= 0.03
        details.append(f"cluster{k} est {est:.3f} oracle {oracle:.3f}")

    ok = weighted <= 0.2 and overall >= 1.0 and weighted <= overall + slack and paired_ok
    _verdict(
        4, "two-cluster task: weighted <= 0.2, overall >= 1.0, weighted <= overall + delta_c, "
        "paired W1 within 0.03 of 0.10",
        ok,
        f"weighted {weighted:.3f}, overall {overall:.3f}, delta_c {slack:.3f}, "
        + "; ".join(details),
    )


# ---------------------------------------------------------------------------
# 5. Mixture-distance chain
# ---------------------------------------------------------------------------


def _random_mixture_pair(rng):
    k = int(rng.integers(2, 5))
    d = int(rng.integers(1, 6))
    eps = float(rng.uniform(0.02, 0.08))
    direction = np.ones(d) / np.sqrt(d)
    means = 6.0 * np.arange(k)[:, None] * direction
    offset = rng.standard_normal(d)
    offset *= 0.3 / np.linalg.norm(offset)
    comps_s, comps_t = [], []
    for i in range(k):
        comps_s.append(GaussianComponent(means[i], rng.uniform(0.2, 1.0) * eps / d * np.eye(d)))
        comps_t.append(
            GaussianComponent(means[i] + offset, rng.uniform(0.2, 1.0) * eps / d * np.eye(d))
        )
    w_s = ClassWeights(rng.dirichlet(np.full(k, 5.0)))
    w_t = ClassWeights(rng.dirichlet(np.full(k, 5.0)))
    mix_s = GaussianMixture(w_s, tuple(comps_s))
    mix_t = GaussianMixture(w_t, tuple(comps_t))
    return mix_s, mix_t, eps


def test_criterion_5_mixture_distance_chain():
    rng = np.random.default_rng(1005)
    ot_kwargs = dict(n_samples=250, reg=0.01, max_iter=5000, tol=1e-5, reg_mode="relative")
    ok = True
    worst_first, worst_second = -np.inf, -np.inf
    for trial in range(20):
        mix_s, mix_t, eps = _random_mixture_pair(rng)
        dist = pairwise_component_w1(mix_s, mix_t, pairwise="sampled", seed=trial, **ot_kwargs)
        # Generated pairs keep each class closest to its own counterpart.
        for i in range(mix_s.k):
            assert dist[i, i] <= np.delete(dist[i], i).min()
        paired = float(mix_t.weights.w @ np.diag(dist))
        value, _ = mw1_gmm(mix_s, mix_t, pairwise="sampled", seed=trial, **ot_kwargs)
        xs, _ = sample_gmm(mix_s, 600, seed=3000 + trial)
        xt, _ = sample_gmm(mix_t, 600, seed=4000 + trial)
        pooled = w1_empirical(xs, xt, reg=0.01, max_iter=5000, tol=1e-5, reg_mode="relative")
        first = paired - value  # <= 0 expected
        second = value - (pooled + 4 * np.sqrt(eps) + 0.05)  # <= 0 expected
        worst_first = max(worst_first, first)
        worst_second = max(worst_second, second)
        ok &= first <= 1e-9 and second <= 0.0
    _verdict(
        5, "paired sum <= mixture distance <= pooled W1 + 4*sqrt(eps) + 0.05 on 20 pairs",
        ok, f"worst margins {worst_first:+.2e}, {worst_second:+.2e}",
    )


def test_mixture_chain_pooled_solve_of_generator_seed_9_converges():
    # The pair drawn from generator seed 9 (K = 3, d = 5) gives a pooled
    # 600 x 600 solve at C/reg 247 whose plain sweeps plateau at residual
    # 2/600 and need about 7400 sweeps; over-relaxed, it converges inside
    # the chain's max_iter of 5000, in either orientation.
    mix_s, mix_t, _ = _random_mixture_pair(np.random.default_rng(9))
    xs, _ = sample_gmm(mix_s, 600, seed=3009)
    xt, _ = sample_gmm(mix_t, 600, seed=4009)
    for rows, cols in ((xs, xt), (xt, xs)):
        plan, _, info = uniform_plan(rows, cols, 0.01, 5000, 1e-5, reg_mode="relative")
        assert info.converged and info.residual <= 1e-5
        assert plan.marginal_residual() <= 1e-5 + 1e-12
    assert w1_empirical(xs, xt, reg=0.01, max_iter=5000, tol=1e-5, reg_mode="relative") > 0.0


# ---------------------------------------------------------------------------
# 6 & 7. End-to-end adaptation and the logged bound comparison
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def adaptation_runs():
    runs = []
    for seed in ADAPT_SEEDS:
        source, target = make_shifted_gmm(seed=100 + seed, **TASK)
        _, metrics = fit(
            source, target, replace(ADAPT_CONFIG, seed=seed), eval_labels=target.labels
        )
        baseline_config = replace(
            ADAPT_CONFIG, seed=seed,
            lambda_d=0.0, lambda_c=0.0, lambda_a=0.0, estimate_w_t=False,
        )
        _, base_metrics = fit(source, target, baseline_config, eval_labels=target.labels)
        runs.append((metrics, base_metrics))
    return runs


def test_criterion_6_adaptation_beats_source_only(adaptation_runs):
    darsa_acc = np.array([m.records[-1].target_accuracy for m, _ in adaptation_runs])
    base_acc = np.array([b.records[-1].target_accuracy for _, b in adaptation_runs])
    gap = float(darsa_acc.mean() - base_acc.mean())
    _verdict(
        6, "mean adapted accuracy beats source-only by >= 5 points over 5 seeds",
        gap >= 0.05,
        f"adapted {darsa_acc.mean():.3f}, source-only {base_acc.mean():.3f}, gap {gap:+.3f}",
    )


def test_criterion_7_bound_holds_every_epoch(adaptation_runs, tmp_path):
    worst = -np.inf
    for metrics, _ in adaptation_runs:
        for record in metrics.records:
            bound = record.bound
            worst = max(
                worst,
                bound.eps_c_partial - (bound.eps_g_partial + bound.delta_c + 0.05),
            )
    # The per-epoch comparison table must also come out of the train
    # command on the same task.
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "task": {
            "name": "gmm",
            "k": TASK["k"],
            "d": TASK["d"],
            "mean_separation": TASK["mean_separation"],
            "target_mean_shift": TASK["target_mean_shift"],
            "source_props": TASK["source_props"].w.tolist(),
            "target_props": TASK["target_props"].w.tolist(),
            "n_per_domain": TASK["n_per_domain"],
            "sigma": TASK["sigma"],
        },
        "darsa": {**ADAPT_CONFIG.to_dict(), "epochs": 5, "seed": 100},
        "out_dir": str(tmp_path / "run"),
    }))
    assert main(["train", "--config", str(config_path)]) == 0
    rows = (tmp_path / "run" / "bound_comparison.csv").read_text().splitlines()
    assert len(rows) == 6  # header + one row per epoch
    holds_column = [line.split(",")[-1] for line in rows[1:]]
    csv_ok = all(flag == "True" for flag in holds_column)
    _verdict(
        7, "eps_c_partial <= eps_g_partial + delta_c + 0.05 at every logged epoch",
        worst <= 0.0 and csv_ok,
        f"worst margin {worst:+.3f}, train CSV rows hold: {csv_ok}",
    )


# ---------------------------------------------------------------------------
# 8. Determinism of the train command
# ---------------------------------------------------------------------------


def test_criterion_8_train_determinism(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "task": {"name": "figure1", "sigma": 0.05, "n_per_domain": 200},
        "darsa": {
            "epochs": 3, "pretrain_epochs": 5, "batch_size": 64,
            "lambda_d": 0.2, "lambda_c": 0.3, "lambda_a": 0.2,
            "margin": 10.0, "seed": 7, "snapshot_max": 128,
        },
    }))
    assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "a")]) == 0
    assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "b")]) == 0
    bytes_a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
    bytes_b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
    _verdict(
        8, "repeated train runs with one seed produce byte-identical metrics",
        bytes_a == bytes_b and len(bytes_a) > 0,
        f"{len(bytes_a)} bytes",
    )
