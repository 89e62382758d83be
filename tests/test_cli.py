"""CLI tests: subcommand behavior, exit codes, and output schemas."""

import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from referencing import Registry, Resource

import darsa
from darsa.cli import main
from darsa.synthdata import make_figure1_task

SCHEMA_DIR = Path(darsa.__file__).parent / "schemas"


def _registry():
    resources = []
    for path in SCHEMA_DIR.glob("*.schema.json"):
        contents = json.loads(path.read_text())
        resources.append((path.name, Resource.from_contents(contents)))
    return Registry().with_resources(resources)


def validate(obj, schema_name):
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


def test_train_failure_exit_code(tmp_path, capsys):
    config = _train_config(tmp_path, darsa={"lr": 1e200, "pretrain_epochs": 0, "seed": 1})
    code = main(["train", "--config", str(config)])
    assert code == 4
    assert "epoch" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"unknown_key": 1}, "invalid darsa config"),
        ({"epochs": "3"}, "invalid darsa config"),
        ({"ratio_cap": -1}, "ratio_cap must be positive"),
        ({"seed": "3"}, "invalid darsa config: seed must be int"),
        ({"encoder_hidden": "32"}, "invalid darsa config: encoder_hidden must be tuple"),
        ({"estimate_w_t": "no"}, "invalid darsa config: estimate_w_t must be bool"),
    ],
)
def test_train_bad_config_value_exits_two(tmp_path, capsys, bad, message):
    config = _train_config(tmp_path, darsa=bad)
    assert main(["train", "--config", str(config)]) == 2
    assert message in capsys.readouterr().err
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


def test_figure1_sigma_guard(capsys):
    assert main(["figure1", "--sigma", "0"]) == 2


def test_figure1_empty_cluster_exits_two(tmp_path, capsys):
    # Three samples per domain at seed 0 leave cluster 1 empty on one side;
    # the diagnostic needs every paired W1, so it is an input error.
    assert main(["figure1", "--n", "3", "--seed", "0", "--out", str(tmp_path)]) == 2
    assert "cluster 1 is empty" in capsys.readouterr().err


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
