"""The public surface: exported names, and the solve path callers can wrap."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import darsa
from darsa import nn, ot, training
from darsa.weights import ClassWeights

# Names exported by ``darsa/__init__.py``. The public API is fixed; code
# behind it may change, but none of these may disappear.
PUBLIC_NAMES = (
    "BoundReport", "ClassWeights", "DarsaConfig", "DarsaModels", "Dataset",
    "EpochRecord", "GaussianComponent", "GaussianMixture", "GradientBlowupError",
    "Layer", "LossBundle", "NetworkParams", "SinkhornDivergenceError",
    "SubdomainPartition", "TrainMetrics", "TrainingError", "TransportPlan",
    "backward", "bound_report", "check_decomposition", "cross_entropy", "delta_c",
    "estimate_target_weights", "euclidean_cost_matrix", "fit", "forward",
    "gaussian_w2", "init_network", "loss_classification_weighted",
    "loss_discrepancy_weighted", "loss_inter", "loss_intra", "make_figure1_task",
    "make_shifted_gmm", "mw1_gmm", "ot_exact_discrete", "pairwise_component_w1",
    "predict", "pretrain", "resample_with_props", "sample_gmm",
    "sgd_momentum_step", "sinkhorn", "source_risk", "split_by_class",
    "subdomain_risks", "w1_empirical", "w1_exact_1d", "weighted_subdomain_w1",
    "zero_velocity",
)


def test_public_names_exported():
    assert [name for name in PUBLIC_NAMES if not hasattr(darsa, name)] == []
    # Instrumentation wraps the per-step driver by this module attribute.
    assert callable(training.compute_step_gradients)


def test_sinkhorn_signature():
    # Wrappers bind sinkhorn's arguments by name and force return_info.
    params = inspect.signature(ot.sinkhorn).parameters
    assert list(params) == ["cost_matrix", "a", "b", "reg", "max_iter", "tol", "return_info"]
    assert params["return_info"].default is False


def test_fit_signature():
    # fit builds its own networks; a caller sets only the data, config and
    # evaluation labels.
    assert list(inspect.signature(training.fit).parameters) == [
        "source", "target", "config", "eval_labels",
    ]


def test_solves_resolve_through_ot_module(monkeypatch):
    # A replacement of ot.sinkhorn or ot.euclidean_cost_matrix must see
    # every empirical solve, whichever public function starts it.
    calls = []

    def recording(name):
        original = getattr(ot, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for name in ("sinkhorn", "euclidean_cost_matrix"):
        monkeypatch.setattr(ot, name, recording(name))
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(12, 2)), rng.normal(size=(9, 2))
    ot.w1_empirical(x, y, reg=0.1)
    nn.loss_discrepancy_weighted(
        x, np.arange(12) % 2, y, np.arange(9) % 2, ClassWeights.uniform(2), reg=0.1
    )
    assert calls.count("sinkhorn") == 3
    assert calls.count("euclidean_cost_matrix") == 3


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is imported on first use by the exact solvers; loading
    # it with the package would add its import time to every CLI call.
    code = "import sys, darsa; print('scipy.optimize' in sys.modules)"
    src = str(Path(darsa.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"
