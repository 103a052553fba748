"""Every subcommand on tiny budgets: exit codes and the artifacts it writes."""

import hashlib
import json

import pytest

from stackmbrl.cli import cli
from stackmbrl.trainer import TrainerConfig


def run(tmp_path, name, *argv):
    out = tmp_path / name
    return cli([*argv, "--out", str(out)]), out


def manifest(out):
    return json.loads((out / "manifest.json").read_text())


def assert_artifacts(out, *names):
    for name in ("manifest.json", "run.log") + names:
        assert (out / name).is_file(), name


def tiny_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    TrainerConfig(n_iterations=2, rollouts_per_iter=8, **overrides).save(path)
    return str(path)


def test_gen_data_then_fit_model(tmp_path):
    code, data = run(tmp_path, "data", "gen-data", "--env", "small",
                     "--n", "60")
    assert code == 0
    assert_artifacts(data, "dataset.csv")
    assert manifest(data)["results"]["rows"] == 60

    code, fit = run(tmp_path, "fit", "fit-model", "--env", "small",
                    "--dataset", str(data / "dataset.csv"))
    assert code == 0
    assert_artifacts(fit, "model.json")
    assert manifest(fit)["results"]["rows"] == 60


@pytest.mark.parametrize("algo", ["naive", "vanilla"])
def test_train_writes_run_directory(tmp_path, algo):
    code, out = run(tmp_path, "train", "train", "--env", "gradient",
                    "--config", tiny_config(tmp_path), "--algo", algo,
                    "--seed", "4")
    assert code == 0
    assert_artifacts(out, "trace.csv", "checkpoint_final.json")
    config = manifest(out)["config"]
    assert config["seed"] == 4
    assert config["dynamics"] == ("naive" if algo == "naive"
                                  else "constrained")
    assert config["critic_epochs"] == (0 if algo == "vanilla" else 2)
    assert len((out / "trace.csv").read_text().splitlines()) == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_then_evaluate_on_tracking(tmp_path):
    code, trained = run(tmp_path, "train", "train", "--env", "tracking",
                        "--config", tiny_config(tmp_path))
    assert code == 0
    code, out = run(tmp_path, "eval", "evaluate", "--env", "tracking",
                    "--checkpoint", str(trained / "checkpoint_final.json"),
                    "--episodes", "3")
    assert code == 0
    assert_artifacts(out, "eval_report.json")
    report = json.loads((out / "eval_report.json").read_text())
    assert len(report["clean_returns"]) == len(report["noisy_returns"]) == 3


def test_grad_check_passes(tmp_path):
    code, out = run(tmp_path, "gc", "grad-check")
    assert code == 0
    assert_artifacts(out, "grad_check.json")
    assert json.loads((out / "grad_check.json").read_text())["passed"]


def test_coverage_exit_code_follows_report(tmp_path):
    code, out = run(tmp_path, "cov", "coverage", "--n", "100",
                    "--trials", "100")
    assert_artifacts(out, "coverage.json")
    passed = json.loads((out / "coverage.json").read_text())["passed"]
    assert code == (0 if passed else 1)


# {(run name, file): sha256} of the files the seeded runs in
# ``test_coverage_and_fit_artifacts_match_recorded_digests`` write.
CLI_DIGESTS = {
    ("cov", "coverage.json"): "e495c255b9680a681b2207063a169e222bca2a6e2ead342e4e767027eaf51ce9",
    ("data", "dataset.csv"): "8669e42a49f8479ebeb7ba1b6d1dc51808eaa57c6007f6e519b8bfbbb8dab016",
    ("fit", "model.json"): "f4fd7f59c1b97347915317cfed7cac0e5f432075e65cb6e2cdd1ba76569b1c05",
}


def test_coverage_and_fit_artifacts_match_recorded_digests(tmp_path):
    """Guards byte-reproducibility of the coverage and MLE paths, with the
    BLAS library's default thread count or with one thread. A change meant
    to alter the numbers updates ``CLI_DIGESTS``, with a line in CHANGES.md
    saying why."""
    code, _ = run(tmp_path, "cov", "coverage", "--trials", "100",
                  "--seed", "0")
    assert code in (0, 1)
    code, data = run(tmp_path, "data", "gen-data", "--env", "gradient",
                     "--n", "300", "--seed", "0")
    assert code == 0
    code, _ = run(tmp_path, "fit", "fit-model", "--env", "gradient",
                  "--dataset", str(data / "dataset.csv"))
    assert code == 0
    for (name, file), digest in CLI_DIGESTS.items():
        assert hashlib.sha256((tmp_path / name / file).read_bytes()) \
            .hexdigest() == digest, file


def test_dynamics_demo(tmp_path):
    code, out = run(tmp_path, "demo", "dynamics-demo", "--algo", "naive",
                    "--steps", "200")
    assert code == 0
    assert_artifacts(out, "dynamics_trace.csv")
    assert manifest(out)["config"] == {"mode": "naive", "steps": 200}


@pytest.mark.parametrize("argv", [
    ["woodbury-bench"],
    ["train", "--dynamics-only"],
    ["train", "--steps", "10"],
    ["dynamics-demo", "--algo", "vanilla"],
])
def test_removed_routes_are_rejected(tmp_path, argv):
    code, out = run(tmp_path, "gone", *argv)
    assert code == 2
    assert not out.exists()


def test_config_with_unknown_key_is_rejected(tmp_path, capsys):
    """Unknown or deleted keys, an unknown learning-rate key and a wrongly
    typed field each exit 2 naming the key, before any run directory."""
    cases = [("algorithm", {"algorithm": "vanilla"}),
             ("exact_kl", {"exact_kl": True}),
             ("dual_epochs", {"dual_epochs": 1}),
             ("warmup", {"rates": dict(TrainerConfig().to_dict()["rates"],
                                       warmup=1)}),
             ("n_iterations", {"n_iterations": "5"})]
    for key, change in cases:
        path = tmp_path / f"old_{key}.json"
        payload = TrainerConfig().to_dict()
        payload.update(change)
        path.write_text(json.dumps(payload))
        code, out = run(tmp_path, f"old_{key}", "train", "--config",
                        str(path))
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


def test_config_with_zero_ridge_is_rejected_before_the_run(tmp_path, capsys):
    path = tmp_path / "zero_ridge.json"
    payload = TrainerConfig().to_dict()
    payload["ridge"] = 0.0
    path.write_text(json.dumps(payload))
    code, out = run(tmp_path, "zero_ridge", "train", "--config", str(path))
    assert code == 2
    assert "ridge" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("state", ["-1", "3"])
def test_dataset_row_outside_the_state_space_is_rejected(tmp_path, capsys,
                                                         state):
    code, data = run(tmp_path, "data", "gen-data", "--env", "gradient",
                     "--n", "50")
    assert code == 0
    path = data / "dataset.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[5].split(",")
    row[header.index("s")] = state
    lines[5] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    for argv in (["fit-model"], ["train", "--config", tiny_config(tmp_path)]):
        code, out = run(tmp_path, argv[0], *argv, "--env", "gradient",
                        "--dataset", str(path))
        assert code == 2
        assert f"row 4 has (s={state}, a=" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen-data", "--n", "0"],
    ["coverage", "--env", "tracking"],
    ["evaluate", "--env", "gradient", "--checkpoint", "missing.json"],
])
def test_rejected_inputs_leave_no_run_directory(tmp_path, argv):
    code, out = run(tmp_path, "rejected", *argv)
    assert code == 2
    assert not out.exists()
