"""The public surface: exported names, the solve path callers can wrap, the
scipy pieces each path loads, and the input checks of every module."""

import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import darsa
from darsa import bounds, nn, ot, synthdata, training
from darsa.bounds import BoundReport, SubdomainPartition, source_risk, subdomain_risks
from darsa.ot import GaussianComponent, GaussianMixture
from darsa.synthdata import Dataset
from darsa.training import DarsaConfig
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


def test_sinkhorn_info_fields():
    # Callers read a solve's info by field name; float32_exit says how the
    # solve left float32 ("float64", "floor" or "restart").
    assert ot.SinkhornInfo._fields == ("iterations", "residual", "converged", "float32_exit")


def test_fit_signature():
    # fit builds its own networks; a caller sets only the data, config and
    # evaluation labels.
    assert list(inspect.signature(training.fit).parameters) == [
        "source", "target", "config", "eval_labels",
    ]


def _record_calls(monkeypatch, *targets):
    """A list that gets ``name`` once per call of ``module.<name>``, for each
    ``(module, name)`` of ``targets``."""
    calls = []

    def recording(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for module, name in targets:
        monkeypatch.setattr(module, name, recording(module, name))
    return calls


def test_solves_resolve_through_ot_module(monkeypatch):
    # A replacement of ot.sinkhorn or ot.euclidean_cost_matrix must see
    # every empirical solve, whichever public function starts it.
    calls = _record_calls(monkeypatch, (ot, "sinkhorn"), (ot, "euclidean_cost_matrix"))
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(12, 2)), rng.normal(size=(9, 2))
    ot.w1_empirical(x, y, reg=0.1)
    nn.loss_discrepancy_weighted(
        x, np.arange(12) % 2, y, np.arange(9) % 2, ClassWeights.uniform(2), reg=0.1
    )
    assert calls.count("sinkhorn") == 3
    assert calls.count("euclidean_cost_matrix") == 3


def test_fit_resolves_its_pieces_at_call_time(monkeypatch):
    # fit looks up the estimate, the step, both weighted losses and the bound
    # report when it calls them, so a replaced module attribute sees every call.
    calls = _record_calls(
        monkeypatch, (training, "estimate_target_weights"), (training, "compute_step_gradients"),
        (nn, "loss_classification_weighted"), (nn, "loss_discrepancy_weighted"),
        (bounds, "bound_report"),
    )
    source, target = synthdata.make_shifted_gmm(2, 2, 1.0, 0.5, ClassWeights.uniform(2),
                                                ClassWeights.uniform(2), 40, 0.3, seed=0)
    config = DarsaConfig(pretrain_epochs=1, epochs=2, batch_size=32, snapshot_max=32, seed=0)
    _, metrics = training.fit(source, target, config)
    steps = 2 * math.ceil(source.n / 32)
    assert len(metrics) == 2
    assert {name: calls.count(name) for name in set(calls)} == {
        "estimate_target_weights": 2, "compute_step_gradients": steps,
        "loss_classification_weighted": steps, "loss_discrepancy_weighted": steps,
        "bound_report": 2,
    }


def _scipy_loaded_after(code):
    """The scipy modules loaded once ``code`` has run in a fresh interpreter."""
    report = (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    src = str(Path(darsa.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code + report], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["darsa", "darsa.cli"])
def test_import_leaves_scipy_unloaded(module):
    # Each scipy piece is imported on first use by the solve that needs it
    # (cdist's compiled Euclidean kernel alone for a cost matrix of any width,
    # about 10 ms and 1.5 MB against 0.2-0.3 s and 30 MB for all of
    # scipy.spatial; HiGHS's compiled core alone for the exact LP, 15-25 ms
    # and 6 MB against 0.35-0.55 s and 45 MB for scipy.optimize; both with scipy
    # 1.17 on one Xeon core; logsumexp for an opening that underflows);
    # loading scipy with the package would add its import time to every CLI call.
    assert _scipy_loaded_after(f"import {module}") == []


def _cli_loads(*argv):
    """The scipy modules loaded once ``darsa <argv>`` has run in a fresh interpreter."""
    return _scipy_loaded_after(f"from darsa.cli import main\nassert main({list(argv)!r}) == 0")


def _clouds(tmp_path, rows, cols=2):
    rng = np.random.default_rng(0)
    for name in ("a", "b"):
        np.savetxt(tmp_path / f"{name}.csv", rng.normal(size=(rows, cols)), delimiter=",",
                   header=",".join(f"f{j}" for j in range(cols)), comments="")
    return str(tmp_path / "a.csv"), str(tmp_path / "b.csv")


def test_commands_load_at_most_the_cost_kernel(tmp_path):
    # figure1 and gen build no cost matrix.
    assert _cli_loads("figure1", "--n", "50", "--out", str(tmp_path / "figure1")) == []
    assert _cli_loads("gen", "--task", "figure1", "--out", str(tmp_path / "gen")) == []
    # A cost of any width loads cdist's Euclidean kernel, not the scipy.spatial
    # package with its kd-tree, qhull and scipy.sparse.
    with_costs = [
        _cli_loads("ot", *_clouds(tmp_path, 20, cols=1)),
        _cli_loads("ot", *_clouds(tmp_path, 20)),
        _scipy_loaded_after(
            "import darsa\n"
            "source, target = darsa.make_shifted_gmm(2, 2, 1.0, 0.5, darsa.ClassWeights.uniform(2),"
            " darsa.ClassWeights.uniform(2), 40, 0.3, seed=0)\n"
            "darsa.fit(source, target, darsa.DarsaConfig(pretrain_epochs=1, epochs=1, seed=0))"),
    ]
    for loaded in with_costs:
        assert "scipy.spatial._distance_pybind" in loaded
        assert "scipy.spatial" not in loaded and "scipy.sparse" not in loaded


def test_cost_kernel_is_the_module_scipy_spatial_imports():
    # The kernel is registered under its own name: a later import of
    # scipy.spatial reuses that module object, and cdist gives the same bytes,
    # also when eight threads make their first cost at once.
    _scipy_loaded_after(
        "import sys, threading\nimport numpy as np\nfrom darsa import ot\n"
        "x = np.random.default_rng(0).normal(size=(9, 2))\n"
        "sys.setswitchinterval(1e-6)\n"
        "costs = []\n"
        "threads = [threading.Thread(target=lambda: costs.append(ot.euclidean_cost_matrix(x, x[:4])))"
        " for _ in range(8)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(timeout=60)\n"
        "assert len(costs) == 8\n"
        "from scipy.spatial import distance\n"
        "assert distance._distance_pybind is sys.modules['scipy.spatial._distance_pybind']\n"
        "assert all(c.tobytes() == distance.cdist(x, x[:4]).tobytes() for c in costs)"
    )


def test_exact_transport_loads_only_the_highs_core(tmp_path):
    # The exact LP loads HiGHS's compiled core, not the scipy.optimize package
    # with linprog's input handling, scipy.sparse and scipy.linalg.
    exact = [
        _cli_loads("ot", "--method", "exact", *_clouds(tmp_path, 64)),
        _scipy_loaded_after(
            "import darsa\n"
            "mix = darsa.GaussianMixture(darsa.ClassWeights([0.3, 0.7]), (darsa.GaussianComponent("
            "[0.0], [[1.0]]), darsa.GaussianComponent([2.0], [[0.5]])))\n"
            "darsa.mw1_gmm(mix, darsa.GaussianMixture(darsa.ClassWeights([0.6, 0.4]),"
            " mix.components))"),
    ]
    for loaded in exact:
        assert "scipy.optimize._highspy._core" in loaded
        assert not {"scipy.optimize", "scipy.sparse", "scipy.linalg"} & set(loaded)


def test_highs_core_is_the_module_scipy_optimize_imports():
    # The core is registered under its own name: a later import of
    # scipy.optimize reuses that module object, and linprog gives the same
    # bytes, also when eight threads make their first exact solve at once.
    _scipy_loaded_after(
        "import sys, threading\nimport numpy as np\nfrom darsa import ot\n"
        "rng = np.random.default_rng(0)\n"
        "cost, a, b = rng.random((6, 4)), rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(4))\n"
        "sys.setswitchinterval(1e-6)\n"
        "plans = []\n"
        "solve = lambda: plans.append(ot.ot_exact_discrete(cost, a, b))\n"
        "threads = [threading.Thread(target=solve) for _ in range(8)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(timeout=60)\n"
        "assert len(plans) == 8\n"
        "core = sys.modules['scipy.optimize._highspy._core']\n"
        "from scipy.optimize import linprog\n"
        "from scipy.optimize._highspy import _highs_wrapper\n"
        "assert _highs_wrapper._h is core\n"
        "res = linprog(cost.ravel(), A_eq=np.vstack([np.kron(np.eye(6), np.ones((1, 4))),"
        " np.kron(np.ones((1, 6)), np.eye(4))]), b_eq=np.concatenate([a, b]), method='highs')\n"
        "x = np.maximum(res.x.reshape(6, 4), 0.0)\n"
        "assert all(p.coupling.tobytes() == x.tobytes() for p in plans)"
    )


@pytest.mark.parametrize("name, attr", [("scipy.spatial._distance_pybind", "cdist_euclidean"),
                                        ("scipy.optimize._highspy._core", "_Highs")])
def test_concurrent_first_loads_run_the_extension_once(name, attr):
    # A slow exec_module holds the first load open while seven more threads ask
    # for the module: they wait for it instead of loading copies of their own.
    _scipy_loaded_after(
        "import importlib.machinery, sys, threading, time\nfrom darsa import ot\n"
        f"name = {name!r}\n"
        "loader, runs = importlib.machinery.ExtensionFileLoader, []\n"
        "exec_module = loader.exec_module\n"
        "def slow(self, module):\n"
        "    if self.name == name:\n"
        "        runs.append(name)\n"
        "        time.sleep(0.2)\n"
        "    exec_module(self, module)\n"
        "loader.exec_module = slow\n"
        "barrier, modules = threading.Barrier(8), []\n"
        "def load():\n"
        "    barrier.wait()\n"
        "    modules.append(ot._scipy_extension(name))\n"
        "threads = [threading.Thread(target=load) for _ in range(8)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(timeout=60)\n"
        "assert runs == [name] and len(modules) == 8\n"
        f"assert all(m is sys.modules[name] and hasattr(m, {attr!r}) for m in modules)"
    )


HALF = [0.5, 0.5]
X = np.zeros((3, 2))
POINT = GaussianComponent([0.0], [[1.0]])
PLANE = GaussianComponent([0.0, 0.0], np.eye(2))
LINE_MIX = GaussianMixture(ClassWeights([1.0]), (POINT,))
PLANE_MIX = GaussianMixture(ClassWeights([1.0]), (PLANE,))
LABELED = Dataset(X, [0, 1, 0], 2)
UNLABELED = Dataset(X, None, 2)
NET = nn.init_network([2, 2], ["relu"], np.random.default_rng(0))
ZERO_GRADS = [(np.zeros((2, 2)), np.zeros(2))]


def _shifted_gmm(**overrides):
    params = dict(k=2, d=1, mean_separation=1.0, target_mean_shift=0.0,
                  source_props=ClassWeights(HALF), target_props=ClassWeights(HALF),
                  n_per_domain=10, sigma=0.1, seed=0)
    return synthdata.make_shifted_gmm(**{**params, **overrides})


def _backward_wrong_shape():
    _, cache = nn.forward(NET, X)
    return nn.backward(NET, cache, np.ones((3, 1)))


# Each input check that no other test reaches: the call, and the whole
# message it raises. The checks that read a CSV file are in test_cli.py.
# Left out: a HiGHS failure in ot_exact_discrete (the transport LP of a
# finite cost and valid marginals is feasible and bounded), which test_ot.py
# raises through a stubbed HiGHS core.
INPUT_CHECKS = {
    "GaussianComponent[shape]": (
        lambda: GaussianComponent([0.0, 0.0], [[1.0]]),
        "covariance shape (1, 1) does not match dim 2",
    ),
    "GaussianComponent[non-finite]": (
        lambda: GaussianComponent([np.nan], [[1.0]]), "non-finite value in Gaussian parameters"
    ),
    # cov - cov.T overflows here; the inf gap is reported, not the overflow.
    "GaussianComponent[symmetric]": (
        lambda: GaussianComponent([0.0, 0.0], [[1.0, 1e308], [-1e308, 1.0]]),
        "covariance not symmetric",
    ),
    "GaussianMixture[k]": (
        lambda: GaussianMixture(ClassWeights([1.0]), (POINT, POINT)),
        "weights and components disagree on K",
    ),
    "GaussianMixture[dim]": (
        lambda: GaussianMixture(ClassWeights(HALF), (POINT, PLANE)),
        "components must share one dimension",
    ),
    "sinkhorn[marginal length]": (
        lambda: ot.sinkhorn(np.ones((2, 2)), [1.0], HALF, 1.0),
        "marginal a must have length 2, got 1",
    ),
    "sinkhorn[1-D cost]": (
        lambda: ot.sinkhorn(np.ones(2), HALF, HALF, 1.0), "cost matrix must be a finite 2-D array"
    ),
    "ot_exact_discrete[1-D cost]": (
        lambda: ot.ot_exact_discrete(np.ones(2), HALF, HALF),
        "cost matrix must be a finite 2-D array",
    ),
    "ot_exact_discrete[65 atoms]": (
        lambda: ot.ot_exact_discrete(np.ones((65, 1)), np.full(65, 1 / 65), [1.0]),
        "instance too large for exact solver: 65x1",
    ),
    "ot_exact_discrete[NaN cost]": (
        lambda: ot.ot_exact_discrete([[0.0, np.nan], [1.0, 0.0]], HALF, HALF),
        "cost matrix must be a finite 2-D array",
    ),
    "effective_reg": (lambda: ot.effective_reg(np.ones((2, 2)), 1.0, "x"), "unknown reg_mode 'x'"),
    "w1_empirical[empty]": (lambda: ot.w1_empirical(np.empty((0, 2)), X), "empty sample set"),
    "gaussian_w2[dim]": (
        lambda: ot.gaussian_w2(POINT, PLANE), "dimension mismatch between Gaussians"
    ),
    "sample_gmm[n]": (lambda: ot.sample_gmm(LINE_MIX, 0, 0), "n must be positive"),
    "pairwise_component_w1[dim]": (
        lambda: ot.pairwise_component_w1(LINE_MIX, PLANE_MIX), "dimension mismatch between mixtures"
    ),
    "pairwise_component_w1[mode]": (
        lambda: ot.pairwise_component_w1(LINE_MIX, LINE_MIX, "x"), "unknown pairwise mode 'x'"
    ),
    "pairwise_component_w1[n_samples=0]": (
        lambda: ot.pairwise_component_w1(LINE_MIX, LINE_MIX, "sampled", 0),
        "n_samples must be positive",
    ),
    "pairwise_component_w1[n_samples=-5]": (
        lambda: ot.pairwise_component_w1(LINE_MIX, LINE_MIX, "sampled", -5),
        "n_samples must be positive",
    ),
    "weighted_subdomain_w1[lengths]": (
        lambda: ot.weighted_subdomain_w1([X], [X, X], ClassWeights([1.0])),
        "source and target class lists differ in length",
    ),
    "weighted_subdomain_w1[k]": (
        lambda: ot.weighted_subdomain_w1([X, X], [X, X], ClassWeights([1.0])),
        "weights do not match the number of sub-domains",
    ),
    "BoundReport[eps_c_partial]": (
        lambda: BoundReport(0.1, 0.1, 0.2, 0.2, 0.0, 0.3, 0.5, 0),
        "eps_c_partial does not reconstruct from its terms",
    ),
    "source_risk[empty]": (lambda: source_risk([], []), "empty inputs"),
    "subdomain_risks[cover]": (
        lambda: subdomain_risks([0, 1], [0, 1], SubdomainPartition([0], 2)),
        "partition does not cover the samples",
    ),
    "ClassWeights[empty]": (lambda: ClassWeights([]), "class weights must be non-empty"),
    "ClassWeights[negative]": (
        lambda: ClassWeights([1.5, -0.5]), "negative value in class weights"
    ),
    "ClassWeights[sum]": (
        lambda: ClassWeights([0.25, 0.25]), "class weights must sum to 1, got 0.5"
    ),
    "ClassWeights.uniform": (lambda: ClassWeights.uniform(0), "need at least one class"),
    "ClassWeights.from_labels": (
        lambda: ClassWeights.from_labels([], 2), "empty label vector"
    ),
    "Layer[shapes]": (
        lambda: nn.Layer(np.ones((2, 3)), np.ones(3), "relu"), "layer weight/bias shapes disagree"
    ),
    "NetworkParams[empty]": (lambda: nn.NetworkParams(()), "network needs at least one layer"),
    "init_network[activations]": (
        lambda: nn.init_network([2, 3], [], np.random.default_rng(0)),
        "need one activation per layer",
    ),
    "backward[upstream shape]": (
        _backward_wrong_shape, "upstream gradient shape does not match network output"
    ),
    "sgd_momentum_step[momentum]": (
        lambda: nn.sgd_momentum_step(NET, ZERO_GRADS, nn.zero_velocity(NET), 0.1, 1.0),
        "momentum must be in [0, 1)",
    ),
    "loss_classification_weighted[k]": (
        lambda: nn.loss_classification_weighted(
            np.zeros((3, 2)), [0, 1, 0], ClassWeights([1.0]), ClassWeights(HALF)
        ),
        "class weight length does not match the logits",
    ),
    "loss_classification_weighted[ratio_cap=-1]": (
        lambda: nn.loss_classification_weighted(
            np.zeros((3, 2)), [0, 1, 0], ClassWeights(HALF), ClassWeights(HALF), ratio_cap=-1
        ),
        "ratio_cap must be positive",
    ),
    "loss_classification_weighted[ratio_cap=nan]": (
        lambda: nn.loss_classification_weighted(
            np.zeros((3, 2)), [0, 1, 0], ClassWeights(HALF), ClassWeights(HALF),
            ratio_cap=float("nan"),
        ),
        "ratio_cap must be positive",
    ),
    "loss_inter[lengths]": (
        lambda: nn.loss_inter([X], [X, X]), "source and target class lists differ in length"
    ),
    "loss_inter[empty]": (lambda: nn.loss_inter([], []), "need at least one class"),
    "DarsaConfig[margin]": (lambda: DarsaConfig(margin=0.0), "margin and lr must be positive"),
    "DarsaConfig[sinkhorn]": (
        lambda: DarsaConfig(sinkhorn_reg=0.0), "reg must be positive and finite"
    ),
    "DarsaConfig[weight_floor]": (
        lambda: DarsaConfig(weight_floor=0.0), "weight_floor must be positive"
    ),
    "DarsaConfig[snapshot_max]": (
        lambda: DarsaConfig(snapshot_max=1), "snapshot_max must be at least 2"
    ),
    "estimate_target_weights[empty]": (
        lambda: training.estimate_target_weights(NET, NET, np.empty((0, 2)), 0.1),
        "empty target set",
    ),
    "pretrain[unlabeled]": (
        lambda: training.pretrain(NET, NET, UNLABELED, DarsaConfig()),
        "pretraining requires labeled source data",
    ),
    "fit[unlabeled]": (
        lambda: training.fit(UNLABELED, LABELED, DarsaConfig()), "source dataset must be labeled"
    ),
    # An input error, checked before pretraining.
    "fit[weight_floor]": (
        lambda: training.fit(LABELED, LABELED, DarsaConfig(weight_floor=0.5)),
        "floor too large for the number of classes",
    ),
    "fit[dim]": (
        lambda: training.fit(LABELED, Dataset(np.zeros((3, 3)), None, 2), DarsaConfig()),
        "feature spaces differ in dimension",
    ),
    "Dataset[k]": (lambda: Dataset(X, None, 0), "K must be positive"),
    "Dataset.class_proportions": (
        lambda: UNLABELED.class_proportions(), "dataset has no labels"
    ),
    "make_shifted_gmm[k]": (lambda: _shifted_gmm(k=0), "K and d must be positive"),
    "make_shifted_gmm[sigma]": (
        lambda: _shifted_gmm(sigma=0.0), "sigma must have a finite square and be positive, got 0.0"
    ),
    "make_shifted_gmm[props]": (
        lambda: _shifted_gmm(k=3), "proportion vectors must have length K"
    ),
    "resample_with_props[unlabeled]": (
        lambda: synthdata.resample_with_props(UNLABELED, ClassWeights(HALF), 4, 0),
        "dataset has no labels",
    ),
    "resample_with_props[k]": (
        lambda: synthdata.resample_with_props(LABELED, ClassWeights([1.0]), 4, 0),
        "proportion vector does not match the dataset classes",
    ),
    "resample_with_props[n]": (
        lambda: synthdata.resample_with_props(LABELED, ClassWeights(HALF), 0, 0),
        "n must be positive",
    ),
}


@pytest.mark.parametrize("case", list(INPUT_CHECKS))
def test_input_check_raises_its_message(case):
    call, message = INPUT_CHECKS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
