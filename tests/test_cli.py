"""CLI tests: subcommand behavior, exit codes, and output schemas."""

import inspect
import json
import warnings
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from referencing import Registry, Resource

import darsa
from darsa import nn
from darsa.bounds import bound_report
from darsa.cli import _TASKS, _task_datasets, main
from darsa.synthdata import Dataset, make_figure1_task, make_shifted_gmm
from darsa.training import DarsaConfig, DarsaModels, default_networks

SCHEMA_DIR = Path(darsa.__file__).parent / "schemas"


def _registry():
    resources = []
    for path in SCHEMA_DIR.glob("*.schema.json"):
        contents = json.loads(path.read_text())
        resources.append((path.name, Resource.from_contents(contents)))
    return Registry().with_resources(resources)


def validate(obj, schema_name):
    json.dumps(obj, allow_nan=False)  # NaN and Infinity are not JSON
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.validators.Draft7Validator(schema, registry=_registry()).validate(obj)


@pytest.fixture
def figure1_csvs(tmp_path):
    source, target = make_figure1_task(0.05, 400, seed=0)
    source.to_csv(tmp_path / "source.csv")
    target.to_csv(tmp_path / "target.csv")
    return tmp_path / "source.csv", tmp_path / "target.csv"


def _train_config(tmp_path, **overrides):
    darsa_cfg = {
        "epochs": 2,
        "pretrain_epochs": 3,
        "batch_size": 64,
        "lambda_d": 0.2,
        "lambda_c": 0.3,
        "lambda_a": 0.2,
        "margin": 10.0,
        "seed": 1,
        "snapshot_max": 128,
    }
    darsa_cfg.update(overrides.pop("darsa", {}))
    config = {
        "task": {"name": "figure1", "sigma": 0.05, "n_per_domain": 150},
        "darsa": darsa_cfg,
        "out_dir": str(tmp_path / "run"),
        "log_every": 1,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


# ---------------------------------------------------------------------------
# Parser-level behavior
# ---------------------------------------------------------------------------


def test_help_exits_zero():
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0


def test_invalid_flag_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["ot", "--no-such-flag", "a.csv", "b.csv"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# ot
# ---------------------------------------------------------------------------


def test_ot_identical_csvs(figure1_csvs, capsys):
    src, _ = figure1_csvs
    code = main(["ot", str(src), str(src), "--method", "sinkhorn", "--reg", "0.01"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    validate(out, "ot_result.schema.json")
    assert out["value"] <= 0.01 * np.log(400) + 1e-6


def test_ot_exact1d_vs_sinkhorn(figure1_csvs, capsys):
    src, tgt = figure1_csvs
    values = {}
    for method in ("exact1d", "sinkhorn"):
        assert main(["ot", str(src), str(tgt), "--method", method, "--reg", "0.01"]) == 0
        values[method] = json.loads(capsys.readouterr().out)["value"]
    assert abs(values["exact1d"] - values["sinkhorn"]) <= 0.05


def test_ot_sinkhorn_schedule_past_float64_exits_two(tmp_path, capsys):
    # Costs near 1e10 over reg 1e-300 leave float64: an input error, not a traceback.
    rng = np.random.default_rng(5)
    for name in ("a", "b"):
        Dataset(1e10 * rng.normal(size=(5, 2)), None, 1).to_csv(tmp_path / f"{name}.csv")
    argv = ["ot", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), "--method", "sinkhorn"]
    assert main([*argv, "--reg", "1e-300"]) == 2
    assert "cost range over reg overflows float64" in capsys.readouterr().err


def test_ot_exact1d_rejects_two_column_csv(tmp_path, capsys):
    rng = np.random.default_rng(3)
    Dataset(rng.normal(size=(6, 2)), None, 1).to_csv(tmp_path / "a.csv")
    code = main(["ot", str(tmp_path / "a.csv"), str(tmp_path / "a.csv"), "--method", "exact1d"])
    assert code == 2
    assert "exact1d requires one-dimensional clouds" in capsys.readouterr().err


def test_ot_exact_method_small_clouds(tmp_path, capsys):
    rng = np.random.default_rng(2)
    from darsa.synthdata import Dataset

    Dataset(rng.normal(size=(10, 2)), None, 1).to_csv(tmp_path / "a.csv")
    Dataset(rng.normal(size=(8, 2)), None, 1).to_csv(tmp_path / "b.csv")
    code = main(["ot", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), "--method", "exact"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["marginal_residual"] <= 1e-9


def test_ot_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code = main(["ot", str(missing), str(missing), "--method", "exact1d"])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_ot_mw1_manifests(tmp_path, capsys):
    from darsa.ot import GaussianComponent, GaussianMixture
    from darsa.weights import ClassWeights

    src = GaussianMixture(
        ClassWeights(np.array([0.7, 0.3])),
        (
            GaussianComponent(np.array([-1.5]), np.array([[0.0025]])),
            GaussianComponent(np.array([1.5]), np.array([[0.0025]])),
        ),
    )
    tgt = GaussianMixture(
        ClassWeights(np.array([0.3, 0.7])),
        (
            GaussianComponent(np.array([-1.4]), np.array([[0.0025]])),
            GaussianComponent(np.array([1.6]), np.array([[0.0025]])),
        ),
    )
    (tmp_path / "src.json").write_text(json.dumps(src.to_dict()))
    (tmp_path / "tgt.json").write_text(json.dumps(tgt.to_dict()))
    validate(src.to_dict(), "gmm_manifest.schema.json")
    code = main(
        ["ot", str(tmp_path / "src.json"), str(tmp_path / "tgt.json"), "--method", "mw1"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["value"] == pytest.approx(1.30, abs=0.01)


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_ot_mw1_sampled_nonpositive_samples_exits_two(tmp_path, capsys, samples):
    from darsa.ot import GaussianComponent, GaussianMixture
    from darsa.weights import ClassWeights

    mix = GaussianMixture(ClassWeights(np.array([1.0])), (GaussianComponent([0.0], [[1.0]]),))
    (tmp_path / "m.json").write_text(json.dumps(mix.to_dict()))
    manifest = str(tmp_path / "m.json")
    argv = ["ot", manifest, manifest, "--method", "mw1", "--pairwise", "sampled"]
    assert main([*argv, "--samples", samples]) == 2
    assert "n_samples must be positive" in capsys.readouterr().err


def test_ot_divergence_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(3)
    from darsa.synthdata import Dataset

    Dataset(rng.normal(size=(12, 2)), None, 1).to_csv(tmp_path / "a.csv")
    Dataset(rng.normal(size=(12, 2)) + 2.0, None, 1).to_csv(tmp_path / "b.csv")
    code = main(
        [
            "ot", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
            "--method", "sinkhorn", "--reg", "0.001", "--max-iter", "1", "--tol", "1e-14",
        ]
    )
    assert code == 3
    assert "diverged" in capsys.readouterr().err


@pytest.mark.parametrize("reg", ["nan", "inf"])
def test_nan_reg_exits_two(figure1_csvs, tmp_path, capsys, reg):
    # NaN passes a `reg <= 0` check; a solve at NaN reg would run to
    # max_iter and print a NaN cost with exit 0. At infinite reg the plan
    # is the product coupling a⊗b, whose cost is no W1 estimate.
    src, tgt = figure1_csvs
    assert main(["ot", str(src), str(tgt), "--method", "sinkhorn", "--reg", reg]) == 2
    bounds = ["bounds", "--source", str(src), "--target", str(tgt), "--reg", reg]
    assert main([*bounds, "--out", str(tmp_path / "b")]) == 2
    assert main(["figure1", "--n", "200", "--reg", reg, "--out", str(tmp_path / "f")]) == 2
    assert capsys.readouterr().err.count("reg must be positive and finite") == 3


SOLVER_FLAG_ERRORS = [
    ("--reg", "0", "reg must be positive and finite"),
    ("--reg", "-1", "reg must be positive and finite"),
    ("--max-iter", "0", "max_iter must be positive"),
    ("--tol", "-1", "tol must be non-negative"),
]


@pytest.mark.parametrize("method", ["exact1d", "exact", "mw1"])
@pytest.mark.parametrize("flag, value, message", SOLVER_FLAG_ERRORS)
def test_ot_solver_flag_out_of_range_exits_two_for_every_method(tmp_path, capsys, method, flag,
                                                               value, message):
    # The exact methods and analytic mw1 run no Sinkhorn solve; their solver
    # flags are still checked, as every other subcommand checks them.
    if method == "mw1":
        from darsa.ot import GaussianComponent, GaussianMixture
        from darsa.weights import ClassWeights

        mix = GaussianMixture(ClassWeights(np.array([1.0])), (GaussianComponent([0.0], [[1.0]]),))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(mix.to_dict()))
    else:
        path = tmp_path / "a.csv"
        Dataset(np.random.default_rng(4).normal(size=(10, 1)), None, 1).to_csv(path)
    assert main(["ot", str(path), str(path), "--method", method, flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flag, value, message", SOLVER_FLAG_ERRORS)
def test_one_column_solver_flag_out_of_range_exits_two(figure1_csvs, tmp_path, capsys, flag,
                                                       value, message):
    # On one-column features figure1 and bounds report exact W1 terms and
    # run no solve; a setting a solve would reject is still an input error.
    src, tgt = figure1_csvs
    bounds = ["bounds", "--source", str(src), "--target", str(tgt), "--out", str(tmp_path / "b")]
    assert main([*bounds, flag, value]) == 2
    assert main(["figure1", "--n", "200", flag, value, "--out", str(tmp_path / "f")]) == 2
    assert capsys.readouterr().err.count(f"error: {message}\n") == 2


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_figure1(figure1_csvs, tmp_path, capsys):
    src, tgt = figure1_csvs
    out_dir = tmp_path / "bounds"
    code = main(
        ["bounds", "--source", str(src), "--target", str(tgt), "--out", str(out_dir),
         "--reg", "0.005"]
    )
    assert code == 0
    report = json.loads((out_dir / "boundreport.json").read_text())
    validate(report, "bound_report.schema.json")
    assert report["disc_weighted"] < report["disc_overall"]
    csv_text = (out_dir / "bound_comparison.csv").read_text().splitlines()
    assert csv_text[0].startswith("epoch,gamma_s,")
    assert len(csv_text) == 2


def test_bound_csv_header(figure1_csvs, tmp_path):
    # The epoch, every BoundReport term except the skip count, the verdict.
    src, tgt = figure1_csvs
    out_dir = tmp_path / "bounds"
    assert main(["bounds", "--source", str(src), "--target", str(tgt), "--out", str(out_dir)]) == 0
    header = (out_dir / "bound_comparison.csv").read_text().splitlines()[0]
    assert header == (
        "epoch,gamma_s,gamma_s_weighted,disc_overall,disc_weighted,delta_c,"
        "eps_g_partial,eps_c_partial,holds"
    )


def _checkpoint():
    encoder, classifier = default_networks(1, 2, DarsaConfig(), np.random.default_rng(0))
    return DarsaModels(encoder, encoder, classifier).to_dict()


@pytest.mark.parametrize(
    "broken",
    [
        lambda ck: [1],
        lambda ck: {**ck, "encoder_t": [1]},
        lambda ck: {**ck, "classifier": {**ck["classifier"], "layers": 5}},
    ],
    ids=["list", "network-list", "layers-int"],
)
def test_bounds_malformed_checkpoint_exits_two(figure1_csvs, tmp_path, capsys, broken):
    src, tgt = figure1_csvs
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(broken(_checkpoint())))
    out_dir = tmp_path / "bounds"
    argv = ["bounds", "--source", str(src), "--target", str(tgt), "--checkpoint", str(path)]
    assert main([*argv, "--out", str(out_dir)]) == 2
    assert "malformed checkpoint" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("version", [{"format_version": 99}, {}], ids=["99", "missing"])
def test_bounds_checkpoint_format_version_exits_two(figure1_csvs, tmp_path, capsys, version):
    src, tgt = figure1_csvs
    checkpoint = {key: value for key, value in _checkpoint().items() if key != "format_version"}
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps({**checkpoint, **version}))
    argv = ["bounds", "--source", str(src), "--target", str(tgt), "--checkpoint", str(path)]
    assert main([*argv, "--out", str(tmp_path / "bounds")]) == 2
    expected = repr(version.get("format_version"))
    assert f"unsupported checkpoint format version {expected}" in capsys.readouterr().err


def test_bounds_non_finite_checkpoint_output_exits_two(figure1_csvs, tmp_path, capsys):
    # Finite but huge classifier weights overflow to non-finite logits, whose
    # argmax would be no prediction.
    encoder, classifier = default_networks(1, 2, DarsaConfig(), np.random.default_rng(0))
    huge = nn.NetworkParams(tuple(replace(layer, weight=layer.weight * 1e300)
                                  for layer in classifier.layers))
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(DarsaModels(encoder, encoder, huge).to_dict()))
    src, tgt = figure1_csvs
    out_dir = tmp_path / "bounds"
    argv = ["bounds", "--source", str(src), "--target", str(tgt), "--checkpoint", str(path)]
    assert main([*argv, "--out", str(out_dir)]) == 2
    assert "non-finite network output" in capsys.readouterr().err
    assert not out_dir.exists()


def test_bounds_identical_domains(figure1_csvs, tmp_path):
    src, _ = figure1_csvs
    out_dir = tmp_path / "bounds2"
    code = main(
        ["bounds", "--source", str(src), "--target", str(src), "--out", str(out_dir),
         "--reg", "0.005"]
    )
    assert code == 0
    report = json.loads((out_dir / "boundreport.json").read_text())
    assert report["eps_c_partial"] <= 0.05
    assert report["eps_g_partial"] <= 0.05


def test_header_only_csv_exits_two(figure1_csvs, tmp_path, capsys):
    # A header with no data rows is no sample set, not one zero-dimensional
    # sample: every command that reads it stops with an input error.
    src, _ = figure1_csvs
    empty = tmp_path / "empty.csv"
    empty.write_text("f0,label\n")
    assert main(["ot", str(empty), str(empty)]) == 2
    assert main(["ot", str(src), str(empty), "--method", "exact1d"]) == 2
    bounds_out = ["--out", str(tmp_path / "bounds")]
    assert main(["bounds", "--source", str(src), "--target", str(empty), *bounds_out]) == 2
    assert main(["bounds", "--source", str(empty), "--target", str(src), *bounds_out]) == 2
    err = capsys.readouterr().err
    assert err.count("no data rows") == 4
    assert not (tmp_path / "bounds").exists()


# Each CSV input check that no other test reaches: the files, the command,
# and the whole message; ``{dir}`` stands for the files' directory.
BOUNDS_ARGV = ["bounds", "--source", "{dir}/s.csv", "--target", "{dir}/t.csv", "--out", "{dir}/out"]
CSV_INPUT_CHECKS = {
    "empty file": (
        {"a.csv": ""}, ["ot", "{dir}/a.csv", "{dir}/a.csv"], "empty CSV file: {dir}/a.csv"
    ),
    "ragged row": (
        {"a.csv": "f0,f1\n1,2\n3\n"}, ["ot", "{dir}/a.csv", "{dir}/a.csv"],
        "ragged CSV row in {dir}/a.csv",
    ),
    "bounds source without labels": (
        {"s.csv": "f0\n1\n", "t.csv": "f0,label\n1,0\n"}, BOUNDS_ARGV,
        "CSV has no label column: {dir}/s.csv",
    ),
    "bounds target without labels": (
        {"s.csv": "f0,label\n1,0\n", "t.csv": "f0\n1\n"}, BOUNDS_ARGV,
        "target CSV needs labels when no checkpoint is given",
    ),
}


@pytest.mark.parametrize("case", list(CSV_INPUT_CHECKS))
def test_csv_input_check_exits_two_with_its_message(tmp_path, capsys, case):
    files, argv, message = CSV_INPUT_CHECKS[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {message.format(dir=tmp_path)}\n"
    assert not (tmp_path / "out").exists()


def test_bounds_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,label\n1,2,0\n")
    code = main(["bounds", "--source", str(bad), "--target", str(bad)])
    assert code == 2


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_outputs_and_schemas(tmp_path, capsys):
    config = _train_config(tmp_path)
    code = main(["train", "--config", str(config)])
    assert code == 0
    run = tmp_path / "run"
    summary = json.loads((run / "summary.json").read_text())
    validate(summary, "summary.schema.json")
    assert summary["epochs"] == 2
    assert summary["target_accuracy"] >= 0.95
    lines = (run / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        validate(json.loads(line), "metrics_record.schema.json")
    checkpoint = json.loads((run / "checkpoint.json").read_text())
    assert {"encoder_s", "encoder_t", "classifier"} <= set(checkpoint)
    bound_lines = (run / "bound_comparison.csv").read_text().splitlines()
    assert len(bound_lines) == 3  # header + one row per epoch


@pytest.mark.parametrize("tol", [1e-300, 0])
def test_train_tol_below_rounding_exits_zero(tmp_path, tol):
    # A residual at rounding level used to be called divergence (exit 4); a tol
    # of 0 is in the solver's range, so the config takes it too.
    config = _train_config(
        tmp_path,
        task={"name": "figure1", "n_per_domain": 200},
        darsa={"epochs": 2, "pretrain_epochs": 2, "sinkhorn_tol": tol, "seed": 0},
    )
    assert main(["train", "--config", str(config)]) == 0
    run = tmp_path / "run"
    validate(json.loads((run / "summary.json").read_text()), "summary.schema.json")
    for line in (run / "metrics.jsonl").read_text().splitlines():
        validate(json.loads(line), "metrics_record.schema.json")


def test_train_zero_epochs_reports_pretrain_accuracy(tmp_path, capsys):
    config = _train_config(tmp_path)
    code = main(["train", "--config", str(config), "--epochs", "0"])
    assert code == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["epochs"] == 0
    assert summary["source_accuracy"] >= 0.9
    assert (tmp_path / "run" / "metrics.jsonl").read_text() == ""


def test_train_determinism_byte_identical(tmp_path):
    config = _train_config(tmp_path)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "r1")]) == 0
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "r2")]) == 0
    a = (tmp_path / "r1" / "metrics.jsonl").read_bytes()
    b = (tmp_path / "r2" / "metrics.jsonl").read_bytes()
    assert a == b


def test_train_seed_override_changes_metrics(tmp_path):
    config = _train_config(tmp_path)
    main(["train", "--config", str(config), "--out", str(tmp_path / "r1")])
    main(["train", "--config", str(config), "--out", str(tmp_path / "r2"), "--seed", "99"])
    assert (tmp_path / "r1" / "metrics.jsonl").read_bytes() != (
        tmp_path / "r2" / "metrics.jsonl"
    ).read_bytes()


@pytest.mark.parametrize(
    "document, where",
    [
        (None, "epoch"),
        # One pretraining step leaves huge but finite weights; the epoch-1
        # target-weight estimate is the first thing to overflow.
        ({"task": {"name": "figure1", "n_per_domain": 100},
          "darsa": {"lr": 1e200, "epochs": 1, "pretrain_epochs": 1}}, "epoch 1, batch -1"),
        # At lr 1e300 the pretrained networks give a non-finite output instead.
        ({"task": {"name": "figure1", "n_per_domain": 100},
          "darsa": {"lr": 1e300, "epochs": 1, "pretrain_epochs": 1}},
         "epoch 1, batch -1: non-finite network output"),
        # Two-row snapshot subsamples that share no class leave the bound no
        # aligned sub-domain.
        ({"task": {"name": "figure1", "n_per_domain": 50},
          "darsa": {"epochs": 1, "pretrain_epochs": 1, "snapshot_max": 2}},
         "epoch 1, batch -1: the snapshot subsamples share no class; snapshot_max is 2"),
        # Its margin overflows the hinge term; the mean loss was written as Infinity.
        ({"task": {"name": "figure1", "n_per_domain": 40},
          "darsa": {"epochs": 1, "pretrain_epochs": 1, "margin": 1e308}},
         "epoch 1, batch -1: non-finite epoch loss l_intra"),
    ],
    ids=["step", "estimate", "output", "snapshot", "loss"],
)
def test_train_failure_exit_code(tmp_path, capsys, document, where):
    config = _train_config(tmp_path, darsa={"lr": 1e200, "pretrain_epochs": 0, "seed": 1})
    if document is not None:
        config.write_text(json.dumps(document))
    code = main(["train", "--config", str(config), "--out", str(tmp_path / "run")])
    assert code == 4
    assert where in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"unknown_key": 1}, "invalid darsa config"),
        ({"epochs": "3"}, "invalid darsa config"),
        ({"ratio_cap": -1}, "ratio_cap must be positive"),
        ({"seed": "3"}, "invalid darsa config: seed must be int"),
        ({"encoder_hidden": "32"}, "invalid darsa config: encoder_hidden must be tuple"),
        ({"estimate_w_t": "no"}, "invalid darsa config: estimate_w_t must be bool"),
        ({"sinkhorn_reg": float("nan")}, "invalid darsa config: sinkhorn_reg must be finite"),
        ({"lr": float("inf")}, "invalid darsa config: lr must be finite"),
        ({"feature_dim": 0}, "feature_dim must be positive"),
    ],
)
def test_train_bad_config_value_exits_two(tmp_path, capsys, bad, message):
    config = _train_config(tmp_path, darsa=bad)
    assert main(["train", "--config", str(config)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run" / "metrics.jsonl").exists()


GMM_TASK = {
    "name": "gmm", "k": 3, "d": 2, "mean_separation": 1.2, "target_mean_shift": 0.5,
    "source_props": [0.6, 0.2, 0.2], "target_props": [0.2, 0.2, 0.6],
    "n_per_domain": 90, "sigma": 0.3,
}


@pytest.mark.parametrize(
    "command, document, message",
    [
        ("train", [1, 2], "experiment config must be a JSON object"),
        ("train", {"task": "figure1"}, "task must be a JSON object"),
        ("train", {"log_every": None}, "log_every must be int"),
        ("train", {"task": {**GMM_TASK, "k": "3"}}, "invalid task: k must be int"),
        ("mw1", [1], "malformed mixture manifest"),
        ("mw1", {"weights": [1.0], "components": 5}, "malformed mixture manifest"),
        ("train", {"log_every": 0}, "log_every must be at least 1"),
        ("train", {"task": {"name": ["gmm"]}}, "unknown task ['gmm']"),
    ],
)
def test_malformed_json_input_exits_two(tmp_path, capsys, command, document, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    if command == "train":
        argv = ["train", "--config", str(path), "--out", str(tmp_path / "run")]
    else:
        argv = ["ot", str(path), str(path), "--method", "mw1"]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "task, message",
    [
        ({key: v for key, v in GMM_TASK.items() if key != "d"}, "gmm task is missing 'd'"),
        ({"name": "gmm", "k": 2, "d": 2, "mean_separation": 1.0, "target_mean_shift": 0.5,
          "source_props": [0.5, 0.5], "target_props": [0.5, 0.5], "n_per_domain": 50},
         "gmm task is missing 'sigma'"),
        ({"name": "gmm", "k": 2}, "gmm task is missing 'd', 'mean_separation', "),
        ({"name": "csv", "source": "s.csv"}, "csv task is missing 'target'"),
    ],
)
def test_train_task_missing_key_exits_two(tmp_path, capsys, task, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"task": task}))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "name, generator", [("figure1", make_figure1_task), ("gmm", make_shifted_gmm)]
)
def test_task_table_matches_generators(name, generator):
    # A task's parameters are its generator's keywords but ``seed``, in order:
    # the order of a ``gen`` manifest's generator block.
    keywords = [key for key in inspect.signature(generator).parameters if key != "seed"]
    assert list(_TASKS[name]) == keywords


def test_snapshot_divergence_exits_four(tmp_path, capsys):
    # With no discrepancy term the steps run no solve, so the first solve is
    # the epoch-1 snapshot's; one sweep cannot reach tol 1e-9. The snapshot is
    # not retried: the run stops with exit 4 and writes no metrics.
    config = _train_config(
        tmp_path, darsa={"lambda_d": 0, "sinkhorn_max_iter": 1, "sinkhorn_tol": 1e-9}
    )
    assert main(["train", "--config", str(config)]) == 4
    assert "epoch 1, batch -1" in capsys.readouterr().err
    assert not (tmp_path / "run" / "metrics.jsonl").exists()


def test_train_missing_config(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "absent.json")])
    assert code == 2


def test_train_task_flag_overrides_config(tmp_path, capsys):
    config = _train_config(
        tmp_path,
        task={
            "name": "gmm", "k": 2, "d": 2, "mean_separation": 2.0,
            "target_mean_shift": 0.2, "source_props": [0.7, 0.3],
            "target_props": [0.3, 0.7], "n_per_domain": 120, "sigma": 0.2,
        },
    )
    code = main(["train", "--config", str(config), "--task", "figure1"])
    assert code == 0
    # figure1 data is one-dimensional, so the checkpoint encoder must be too
    checkpoint = json.loads((tmp_path / "run" / "checkpoint.json").read_text())
    assert checkpoint["encoder_s"]["layers"][0]["shape"][1] == 1


@pytest.fixture
def gmm_csv_task(tmp_path):
    """A csv task on the files of ``darsa gen --task gmm`` (3 classes), and its target."""
    data = tmp_path / "data"
    assert main(["gen", "--task", "gmm", "--n", "90", "--seed", "3", "--out", str(data)]) == 0
    task = {"name": "csv", "source": str(data / "source.csv"), "target": str(data / "target.csv")}
    return task, Dataset.from_csv(data / "target.csv")


@pytest.mark.parametrize("unlabeled", [True, False], ids=["unlabeled", "without-class-2"])
def test_train_csv_target_with_fewer_classes(tmp_path, capsys, gmm_csv_task, unlabeled):
    # An unlabeled target is the adaptation setting itself; a target that
    # misses a class keeps the source's K. Neither file's own K is used.
    task, target = gmm_csv_task
    if unlabeled:
        Dataset(target.features, None, 1).to_csv(task["target"])
    else:
        keep = target.labels < 2
        Dataset(target.features[keep], target.labels[keep], 2).to_csv(task["target"])
    assert main(["train", "--config", str(_train_config(tmp_path, task=task))]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    validate(summary, "summary.schema.json")
    assert (summary["target_accuracy"] is None) == unlabeled
    for line in (tmp_path / "run" / "metrics.jsonl").read_text().splitlines():
        validate(json.loads(line), "metrics_record.schema.json")


def test_train_csv_target_label_outside_source_classes(tmp_path, capsys, gmm_csv_task):
    task, target = gmm_csv_task
    labels = target.labels.copy()
    labels[0] = 3
    Dataset(target.features, labels, 4).to_csv(task["target"])
    assert main(["train", "--config", str(_train_config(tmp_path, task=task))]) == 2
    assert "label outside 0..2" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# ---------------------------------------------------------------------------
# figure1
# ---------------------------------------------------------------------------


def test_figure1_outputs(tmp_path, capsys):
    out_dir = tmp_path / "fig"
    code = main(
        ["figure1", "--n", "800", "--seed", "4", "--out", str(out_dir), "--reg", "0.005"]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["w1_paired"][0] == pytest.approx(0.10, abs=0.03)
    assert summary["w1_paired"][1] == pytest.approx(0.10, abs=0.03)
    assert summary["w1_overall"] >= 1.0
    assert summary["bound_holds"] is True
    lines = (out_dir / "figure1.csv").read_text().splitlines()
    assert lines[0] == "cluster,w_t,w1_paired,w1_overall,delta_c,bound_holds"
    assert len(lines) == 3


@pytest.mark.parametrize("seed", [0, 7])
def test_figure1_terms_equal_bound_report(tmp_path, capsys, seed):
    # figure1 and the bound report take their terms from one function, so
    # on the same datasets and solver settings every term is the same float.
    assert main(["figure1", "--n", "300", "--seed", str(seed), "--out", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    source, target = make_figure1_task(0.05, 300, seed)
    report = bound_report(
        source.features, source.labels, source.labels,
        target.features, target.labels, target.class_proportions(),
    )
    assert summary["w1_overall"] == report.disc_overall
    assert summary["weighted_sum"] == report.disc_weighted
    assert summary["delta_c"] == report.delta_c


def test_figure1_wide_clusters_report_finite_delta_c(tmp_path, capsys):
    # At sigma 1e154 the clusters' covariance overflows; delta_c (about 4e154)
    # does not, and was printed as Infinity.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["figure1", "--sigma", "1e154", "--n", "200", "--out", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    json.dumps(summary, allow_nan=False)
    assert 1e154 < summary["delta_c"] < 1e156


def test_figure1_sigma_guard(capsys):
    assert main(["figure1", "--sigma", "0"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["figure1", "--sigma", "1e300"],
        ["gen", "--task", "figure1", "--sigma", "1e300"],
        ["gen", "--task", "gmm", "--sigma", "1e300"],
        ["train"],
    ],
    ids=["figure1", "gen-figure1", "gen-gmm", "train"],
)
def test_sigma_with_overflowing_square_exits_two(tmp_path, capsys, argv):
    # sigma**2 overflows a float past 1.3e154: the generators reject such a
    # sigma instead of raising OverflowError, which exited 1 with a traceback.
    if argv == ["train"]:
        task = {"name": "figure1", "sigma": 1e300, "n_per_domain": 150}
        argv = ["train", "--config", str(_train_config(tmp_path, task=task))]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert "sigma must have a finite square" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


NOT_FINITE = "scale parameters must be positive and finite"
TOO_FAR = "mean_separation"  # the overflow message names both scale parameters


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--shift", "nan"], NOT_FINITE),
        (["gen", "--shift", "inf"], NOT_FINITE),
        (["gen", "--separation", "nan"], NOT_FINITE),
        (["gen", "--separation", "inf"], NOT_FINITE),
        (["gen", "--separation", "1e155"], TOO_FAR),
        (["gen", "--separation", "1e308"], TOO_FAR),
        (["gen", "--shift", "1e155"], TOO_FAR),
        (["train"], NOT_FINITE),
        (["make_shifted_gmm"], TOO_FAR),
    ],
    ids=["shift-nan", "shift-inf", "separation-nan", "separation-inf", "separation-1e155",
         "separation-1e308", "shift-1e155", "train-shift-nan", "make_shifted_gmm"],
)
def test_gmm_scale_not_finite_or_overflowing_exits_two(tmp_path, capsys, argv, message):
    # A NaN shift was read as no shift and written into manifest.json as NaN,
    # which is not JSON; an overflowing one reached the audit as an inf cost.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if argv == ["make_shifted_gmm"]:
            props = darsa.ClassWeights(np.full(3, 1 / 3))
            with pytest.raises(ValueError, match=message):
                make_shifted_gmm(3, 2, 1e200, 1e200, props, props, 50, 0.05, 0)
            return
        if argv == ["train"]:
            task = {**GMM_TASK, "target_mean_shift": float("nan")}
            argv = ["train", "--config", str(_train_config(tmp_path, task=task))]
        else:
            argv = [*argv[:1], "--task", "gmm", "--n", "50", *argv[1:]]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_gen_gmm_far_apart_classes_generate(tmp_path):
    # Squared distances of 1e150-apart classes stay within float64.
    assert main(["gen", "--task", "gmm", "--n", "50", "--separation", "1e150",
                 "--out", str(tmp_path / "out")]) == 0
    validate(json.loads((tmp_path / "out" / "manifest.json").read_text()),
             "dataset_manifest.schema.json")


PAST_INT64 = "99999999999999999999"


@pytest.mark.parametrize(
    "argv",
    [
        ["figure1", "--n", PAST_INT64],
        ["gen", "--task", "figure1", "--n", PAST_INT64],
        ["gen", "--task", "gmm", "--n", PAST_INT64],
        ["gen", "--task", "gmm", "--k", "1", "--source-props", "[1]", "--target-props", "[1]",
         "--d", PAST_INT64],
        ["train"],
    ],
    ids=["figure1", "gen-figure1", "gen-gmm", "gen-gmm-d", "train"],
)
def test_integer_past_int64_exits_two(tmp_path, capsys, argv):
    # numpy cannot hold such a sample or column count and raises
    # OverflowError, which exited 1 with a traceback.
    if argv == ["train"]:
        task = {"name": "figure1", "n_per_domain": int(PAST_INT64)}
        argv = ["train", "--config", str(_train_config(tmp_path, task=task))]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n, seed, cluster", [(3, 0, 1), (2, 0, 0), (2, 1, 1)])
def test_figure1_empty_cluster_exits_two(tmp_path, capsys, n, seed, cluster):
    # A small draw can leave a cluster empty on one side; the diagnostic
    # needs every paired W1, so it is an input error that names the cluster,
    # also when the two domains share no cluster at all (n 2, seed 0).
    assert main(["figure1", "--n", str(n), "--seed", str(seed), "--out", str(tmp_path)]) == 2
    assert f"cluster {cluster} is empty in one domain" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_figure1_roundtrip(tmp_path):
    out_dir = tmp_path / "data"
    code = main(["gen", "--task", "figure1", "--n", "100", "--seed", "5", "--out", str(out_dir)])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    validate(manifest, "dataset_manifest.schema.json")
    from darsa.synthdata import Dataset

    source = Dataset.from_csv(out_dir / "source.csv")
    assert source.n == 100 and source.dim == 1 and source.labels is not None


@pytest.mark.parametrize(
    "task_args",
    [
        ["--task", "figure1", "--n", "80", "--sigma", "0.1"],
        ["--task", "gmm", "--n", "150", "--k", "2", "--d", "3", "--separation", "1.5",
         "--source-props", "[0.7, 0.3]", "--target-props", "[0.4, 0.6]"],
        ["--task", "gmm", "--n", "50", "--k", "1", "--source-props", "[1]", "--target-props", "[1]"],
    ],
)
def test_gen_generator_block_is_train_task(tmp_path, task_args):
    # The manifest's generator block, given to ``train`` as its task at the
    # manifest's seed, rebuilds exactly the datasets that ``gen`` wrote.
    out_dir = tmp_path / "data"
    assert main(["gen", *task_args, "--seed", "4", "--out", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    rebuilt = _task_datasets(manifest["generator"], manifest["seed"])
    for name, data in zip(("source", "target"), rebuilt):
        written = Dataset.from_csv(out_dir / f"{name}.csv")
        assert np.array_equal(data.features, written.features)
        assert np.array_equal(data.labels, written.labels)


@pytest.mark.parametrize("command", ["gen", "train"])
def test_paired_distance_audit_failure_exits_two(tmp_path, capsys, command):
    # A class with zero proportion is empty, so no draw can pass the audit.
    if command == "gen":
        argv = ["gen", "--task", "gmm", "--n", "60", "--source-props", "[1, 0, 0]"]
    else:
        task = {**GMM_TASK, "source_props": [1.0, 0.0, 0.0]}
        argv = ["train", "--config", str(_train_config(tmp_path, task=task))]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert "paired-distance audit failed" in capsys.readouterr().err


def test_gen_class_empty_by_chance_exits_two(tmp_path, capsys):
    # Two points per domain leave some class empty in every draw.
    assert main(["gen", "--task", "gmm", "--n", "2", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "every draw left a class empty" in err
    assert "raise n_per_domain" in err


@pytest.mark.parametrize("flag", ["--source-props", "--target-props"])
@pytest.mark.parametrize("value", ["{}", '"abc"'])
def test_gen_props_must_be_json_array(tmp_path, capsys, flag, value):
    out_dir = tmp_path / "out"
    assert main(["gen", "--task", "gmm", flag, value, "--out", str(out_dir)]) == 2
    assert f"{flag} must be a JSON array" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["gen", "train"])
def test_nested_props_exit_two_naming_the_key(tmp_path, capsys, command):
    # ClassWeights would flatten a nested list into a proportion vector; the
    # JSON kind check, which knows the key, rejects it instead.
    nested = [[0.6], [0.2], [0.2]]
    if command == "gen":
        argv = ["gen", "--task", "gmm", "--source-props", json.dumps(nested)]
        message = "--source-props must be a JSON array of numbers"
    else:
        task = {**GMM_TASK, "source_props": nested}
        argv = ["train", "--config", str(_train_config(tmp_path, task=task))]
        message = "invalid task: source_props must be tuple"
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gen_gmm_deterministic(tmp_path):
    args = [
        "gen", "--task", "gmm", "--n", "120", "--seed", "6", "--k", "3", "--d", "2",
        "--separation", "1.5", "--shift", "0.3", "--sigma", "0.3",
    ]
    assert main(args + ["--out", str(tmp_path / "g1")]) == 0
    assert main(args + ["--out", str(tmp_path / "g2")]) == 0
    assert (tmp_path / "g1" / "source.csv").read_bytes() == (
        tmp_path / "g2" / "source.csv"
    ).read_bytes()


def test_gen_train_csv_bounds_checkpoint_roundtrip(tmp_path, capsys):
    # ``gen`` writes a gmm task, ``train`` reads it back as a csv task, and
    # ``bounds`` evaluates the written checkpoint on the same files.
    data = tmp_path / "data"
    gen = ["gen", "--task", "gmm", "--n", "90", "--seed", "3", "--out", str(data)]
    assert main(gen) == 0
    validate(json.loads((data / "manifest.json").read_text()), "dataset_manifest.schema.json")
    task = {"name": "csv", "source": str(data / "source.csv"), "target": str(data / "target.csv")}
    config = _train_config(tmp_path, task=task, darsa={"epochs": 1, "pretrain_epochs": 2})
    assert main(["train", "--config", str(config)]) == 0
    run = tmp_path / "run"
    validate(json.loads((run / "summary.json").read_text()), "summary.schema.json")
    for line in (run / "metrics.jsonl").read_text().splitlines():
        validate(json.loads(line), "metrics_record.schema.json")
    capsys.readouterr()
    bounds_out = tmp_path / "bounds"
    argv = ["bounds", "--source", task["source"], "--target", task["target"],
            "--checkpoint", str(run / "checkpoint.json"), "--out", str(bounds_out)]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    validate(report, "bound_report.schema.json")
    assert json.loads((bounds_out / "boundreport.json").read_text()) == report
