"""Every subcommand on tiny budgets: exit codes and the artifacts it writes."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stackmbrl
from stackmbrl.cli import _build_parser, cli
from stackmbrl.models import (TRANSITION_COLUMNS, DiagGaussianPolicy,
                              SoftmaxPolicy, rollout_dataset,
                              sample_offline_dataset)
from stackmbrl.testbeds import (TABULAR_TESTBEDS, tracking_behavior_policy,
                                tracking_mdp)
from stackmbrl.trainer import TrainerConfig, zero_players


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
    assert manifest(fit)["config"]["alpha"] == 0.5


def test_fit_model_on_a_continuous_environment_records_no_alpha(tmp_path):
    """The Gaussian MLE ignores ``--alpha``, so its manifest leaves it out;
    no radius exists for its model family, and the manifest says so."""
    code, data = run(tmp_path, "data", "gen-data", "--env", "tracking",
                     "--behavior", "bundled", "--n", "60")
    assert code == 0
    code, fit = run(tmp_path, "fit", "fit-model", "--env", "tracking",
                    "--dataset", str(data / "dataset.csv"), "--alpha", "2")
    assert code == 0
    assert "alpha" not in manifest(fit)["config"]
    results = manifest(fit)["results"]
    assert "radius" not in results
    assert "affine Gaussian model family" in results["radius_refused"]


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
    assert manifest(out)["results"]["alpha"] == 0.5
    assert len((out / "trace.csv").read_text().splitlines()) == 3


def test_seeded_train_runs_differ_only_in_run_log(tmp_path):
    """``train`` writes its run directory once: a rerun with the same seed
    and config reproduces the manifest, the trace and the checkpoints byte
    for byte, and only the wall-clock sidecar differs."""
    config = tiny_config(tmp_path)
    runs = []
    for name in ("a", "b"):
        code, out = run(tmp_path, name, "train", "--env", "gradient",
                        "--config", config, "--seed", "3")
        assert code == 0
        runs.append({path.name: path.read_bytes()
                     for path in out.iterdir()})
    assert {"manifest.json", "trace.csv", "checkpoint_final.json",
            "run.log"} <= set(runs[0]) == set(runs[1])
    assert {name for name in runs[0]
            if runs[0][name] != runs[1][name]} == {"run.log"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_then_evaluate_on_tracking(tmp_path):
    code, trained = run(tmp_path, "train", "train", "--env", "tracking",
                        "--config", tiny_config(tmp_path))
    assert code == 0
    assert "alpha" not in manifest(trained)["results"]
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
# ``test_coverage_and_fit_artifacts_match_recorded_digests``,
# ``test_gen_data_draws_match_recorded_digests`` and
# ``test_evaluate_grad_check_and_demo_artifacts_match_recorded_digests``
# write. Each holds with the BLAS library's default thread count and with
# one thread.
CLI_DIGESTS = {
    ("cov", "coverage.json"): "7d138de1690d97dfaf6f3960e1dccca528b29023857f1da3df92ad30cc0d190f",
    ("data", "dataset.csv"): "8669e42a49f8479ebeb7ba1b6d1dc51808eaa57c6007f6e519b8bfbbb8dab016",
    ("fit", "model.json"): "caa0c9698344717b00916bc846a23af28428cf7c3573f8f46fd023080a1bd514",
    ("eval", "eval_report.json"): "57bef76e0a90165629f7c8b44b97b4210ba75f873506af46a967c0888c0b429d",
    ("gc", "grad_check.json"): "a7b905ab0ec3b5b212aee128c0507c93aa8382c5441e97c00fa79e2ffaa8decf",
    ("demo-naive", "dynamics_trace.csv"): "863a3e644c8ef65dca473e23a2506bc6fba6031769a338dc0eb3f449fe0b52c6",
    ("demo-stackelberg", "dynamics_trace.csv"): "bc0404fb2ba4bbd6d3b1b9c6c89a09ee1e7cd949551ef91b530003153049bb4d",
    ("demo-constrained", "dynamics_trace.csv"): "42b4362569840548883f90849bea4429adcb627f57da58ddba7516ce3941e9b1",
    ("data-tracking", "dataset.csv"): "b78cab2f8f927a9b8db93ab7f2be6952f5e594d5648bd4d4bbb7c95559c1c467",
    ("data-greedy", "dataset.csv"): "86938f72766705f0b68bbd4822038fbfe0f5a937d1e24d3f2fe7e36409c1ded0",
}


def assert_recorded_digests(root, *names):
    for (name, file), digest in CLI_DIGESTS.items():
        if name in names:
            assert hashlib.sha256((root / name / file).read_bytes()) \
                .hexdigest() == digest, (name, file)


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
    assert_recorded_digests(tmp_path, "cov", "data", "fit")


def test_gen_data_draws_match_recorded_digests(tmp_path):
    """Guards the behaviour draws of ``gen-data``: a continuous rollout with
    the bundled controller, and a greedy tabular policy with zero-probability
    actions, which the draw must never pick."""
    code, _ = run(tmp_path, "data-tracking", "gen-data", "--env", "tracking",
                  "--behavior", "bundled", "--n", "100")
    assert code == 0
    code, _ = run(tmp_path, "data-greedy", "gen-data", "--behavior", "greedy",
                  "--greedy-eps", "0", "--n", "300")
    assert code == 0
    assert_recorded_digests(tmp_path, "data-tracking", "data-greedy")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_evaluate_grad_check_and_demo_artifacts_match_recorded_digests(
        tmp_path, monkeypatch):
    """Guards byte-reproducibility of ``evaluate`` on a 2-iteration
    ``tracking`` run, of ``grad-check`` and of the three ``dynamics-demo``
    rules. Paths are relative: the evaluate manifest id, which the report
    carries, hashes the checkpoint path."""
    monkeypatch.chdir(tmp_path)
    TrainerConfig(n_iterations=2, rollouts_per_iter=8).save("config.json")
    assert cli(["train", "--env", "tracking", "--config", "config.json",
                "--out", "train"]) == 0
    assert cli(["evaluate", "--env", "tracking", "--checkpoint",
                "train/checkpoint_final.json", "--episodes", "20",
                "--out", "eval"]) == 0
    assert cli(["grad-check", "--out", "gc"]) == 0
    for algo in ("naive", "stackelberg", "constrained"):
        assert cli(["dynamics-demo", "--algo", algo, "--steps", "2000",
                    "--out", f"demo-{algo}"]) == 0
    assert_recorded_digests(tmp_path, "eval", "gc", "demo-naive",
                            "demo-stackelberg", "demo-constrained")


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


def test_config_with_a_nan_epsilon_is_rejected_before_the_run(tmp_path,
                                                              capsys):
    """NaN fails every sign check: a run on it would abort each iteration
    on a non-finite update and still exit 0."""
    path = tmp_path / "nan_epsilon.json"
    payload = TrainerConfig(n_iterations=3).to_dict()
    payload["epsilon"] = float("nan")
    path.write_text(json.dumps(payload))
    code, out = run(tmp_path, "nan_epsilon", "train", "--env", "gradient",
                    "--config", str(path))
    assert code == 2
    assert "epsilon" in capsys.readouterr().err
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


def test_negative_smoothing_is_rejected_by_name(tmp_path, capsys):
    """A negative or infinite ``--alpha`` is refused by name before any run
    directory (infinite counts would give NaN logits)."""
    code, data = run(tmp_path, "data", "gen-data", "--env", "small",
                     "--n", "60")
    assert code == 0
    capsys.readouterr()
    fit = ["fit-model", "--env", "small", "--dataset",
           str(data / "dataset.csv"), "--alpha"]
    train = ["train", "--env", "gradient", "--config",
             tiny_config(tmp_path), "--alpha"]
    for argv in (fit + ["-1"], train + ["-0.4"], fit + ["inf"],
                 train + ["inf"]):
        code, out = run(tmp_path, argv[0], *argv)
        assert code == 2
        assert "alpha" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("delta", ["1.5", "nan", "0"])
def test_fit_model_rejects_a_delta_outside_the_unit_interval(tmp_path, capsys,
                                                             delta):
    """``fit-model --delta`` outside (0, 1) exits 2 by name before any run
    directory, as ``coverage`` does, instead of reading as a refused
    radius."""
    code, data = run(tmp_path, "data", "gen-data", "--env", "small",
                     "--n", "60")
    assert code == 0
    capsys.readouterr()
    code, out = run(tmp_path, "fit", "fit-model", "--env", "small",
                    "--dataset", str(data / "dataset.csv"), "--delta", delta)
    assert code == 2
    assert "delta" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen-data", "--n", "0"],
    ["coverage", "--env", "tracking"],
    ["evaluate", "--env", "gradient", "--checkpoint", "missing.json"],
    ["coverage", "--trials", "50"],
    ["dynamics-demo", "--steps", "0"],
])
def test_rejected_inputs_leave_no_run_directory(tmp_path, argv):
    code, out = run(tmp_path, "rejected", *argv)
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["grad-check", "dynamics-demo",
                                        "gen-data"])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_seed_that_is_not_a_non_negative_integer_is_rejected(
        tmp_path, capsys, subcommand, seed):
    code, out = run(tmp_path, "rejected", subcommand, "--seed", seed)
    assert code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def checkpoint_misfit(part, values):
    """A ``tracking`` checkpoint with ``values`` as its ``part`` values (or,
    for ``iteration`` and ``lam``, as that entry, and for ``critic``, as
    entries in place of the zero critic's), every other entry well
    formed."""
    policy, model, critic = zero_players(tracking_mdp())
    payload = {"iteration": 1, "lam": 1.0, "critic": critic.to_dict(),
               "policy": policy.params.to_dict(),
               "model": model.params.to_dict()}
    if part == "critic":
        payload["critic"].update(values)
    else:
        payload[part] = ({"values": values} if part in ("policy", "model")
                         else values)
    return json.dumps(payload)


@pytest.mark.parametrize("rho", ["nan", "inf"])
def test_non_finite_rho_is_rejected_by_name(tmp_path, capsys, rho):
    """``--rho`` is refused by name, not blamed on a well-formed
    checkpoint."""
    path = tmp_path / "checkpoint.json"
    path.write_text(checkpoint_misfit("lam", 1.0))
    code, out = run(tmp_path, "rejected", "evaluate", "--env", "tracking",
                    "--checkpoint", str(path), "--rho", rho)
    assert code == 2
    err = capsys.readouterr().err
    assert "--rho" in err and str(path) not in err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, content, argv, key", [
    ("rows.csv", "t,s,a,r,s_next,logp_policy,logp_model\n0,0,0,0.5,1,0,0\n",
     ["fit-model", "--dataset"], "episode"),
    ("rows.csv", "t,s,a,r,s_next,logp_policy,logp_model\n0,0,0,0.5,1,0,0\n",
     ["train", "--dataset"], "episode"),
    ("env.json", '{"kind": "tabular"}', ["gen-data", "--env"],
     "reward_values"),
    ("env.json", "[1, 2]", ["gen-data", "--env"], "JSON object"),
    ("checkpoint.json", '{"iteration": 1}',
     ["evaluate", "--env", "tracking", "--checkpoint"], "lam"),
    ("checkpoint.json",
     '{"iteration": 1, "lam": 1.0, "policy": {}, "model": {}, "critic": {}}',
     ["evaluate", "--env", "tracking", "--checkpoint"], "values"),
    ("checkpoint.json", checkpoint_misfit("policy", [0, 0]),
     ["evaluate", "--env", "tracking", "--checkpoint"], "policy values"),
    ("checkpoint.json", checkpoint_misfit("model", [0, 0]),
     ["evaluate", "--env", "tracking", "--checkpoint"], "model values"),
    ("checkpoint.json", checkpoint_misfit("model", None),
     ["evaluate", "--env", "tracking", "--checkpoint"], "model values"),
    ("checkpoint.json", checkpoint_misfit("policy", [0, 0, 800]),
     ["evaluate", "--env", "tracking", "--checkpoint"], "non-finite"),
    ("env.json", '{"kind": "continuous", "name": "tracking", "params": [1]}',
     ["gen-data", "--env"], "params"),
    ("env.json",
     '{"kind": "continuous", "name": "tracking", "params": {"bogus": 1}}',
     ["gen-data", "--env"], "bogus"),
    ("checkpoint.json", checkpoint_misfit("lam", [1]),
     ["evaluate", "--env", "tracking", "--checkpoint"], "lam"),
    ("checkpoint.json", checkpoint_misfit("iteration", None),
     ["evaluate", "--env", "tracking", "--checkpoint"], "iteration"),
    ("checkpoint.json", checkpoint_misfit("iteration", -5),
     ["evaluate", "--env", "tracking", "--checkpoint"], "iteration"),
    ("checkpoint.json", checkpoint_misfit("lam", float("nan")),
     ["evaluate", "--env", "tracking", "--checkpoint"], "lam"),
    ("checkpoint.json", checkpoint_misfit("lam", -2.0),
     ["evaluate", "--env", "tracking", "--checkpoint"], "lam"),
    ("checkpoint.json", checkpoint_misfit("lam", float("inf")),
     ["evaluate", "--env", "tracking", "--checkpoint"], "lam"),
    ("config.json", '{"rates": 5}', ["train", "--config"], "rates"),
    ("config.json", '{"bogus": 1}', ["train", "--config"], "bogus"),
    ("checkpoint.json", checkpoint_misfit("critic", {"kind": "bogus"}),
     ["evaluate", "--env", "tracking", "--checkpoint"], "critic"),
    ("checkpoint.json", checkpoint_misfit("critic", {"v": 5}),
     ["evaluate", "--env", "tracking", "--checkpoint"], "critic"),
    ("checkpoint.json", checkpoint_misfit("critic", {"q": [0]}),
     ["evaluate", "--env", "tracking", "--checkpoint"], "critic"),
    ("config.json", '{"n_iterations": 2, ', ["train", "--config"],
     "invalid JSON"),
    ("checkpoint.json", '{"iteration": 1, "lam"',
     ["evaluate", "--env", "tracking", "--checkpoint"], "invalid JSON"),
    ("env.json", '{"kind": "tabular", ', ["gen-data", "--env"],
     "invalid JSON"),
    ("rows.csv", f"{','.join(TRANSITION_COLUMNS)}\n0,0,0,0,abc,1,0,0\n",
     ["fit-model", "--dataset"], "line 2, column r"),
    ("rows.csv", f"{','.join(TRANSITION_COLUMNS)}\n0,0,zz,0,0.5,1,0,0\n",
     ["train", "--dataset"], "line 2, column s"),
    ("rows.csv", f"{','.join(TRANSITION_COLUMNS)}\n0,0,0,0,0.5,,0,0\n",
     ["fit-model", "--dataset"], "line 2, column s_next"),
    ("policy.json",
     '{"values": [0, 0, 0, 0, 0], "layout": [["logits", 0, 5]]}',
     ["gen-data", "--behavior"], "layout"),
    ("policy.json",
     '{"values": [0, 0, 0, 0, 0, 0], "layout": [["weights", 0, 6]]}',
     ["gen-data", "--behavior"], "layout"),
    ("policy.json", '{"values": [0, 0, 0, 0, 0, 0], "layout": [["logits", 0]]}',
     ["gen-data", "--behavior"], "layout"),
    ("policy.json", '{"values": [0, 0, 0, 0, 0, 0], "layout": 5}',
     ["gen-data", "--behavior"], "layout"),
], ids=["csv-fit-model", "csv-train", "env-keys", "env-list", "checkpoint",
        "checkpoint-players", "checkpoint-policy-values",
        "checkpoint-model-values", "checkpoint-null-values",
        "checkpoint-diverging-policy", "env-params-list",
        "env-params-unknown", "checkpoint-list-lam",
        "checkpoint-null-iteration", "checkpoint-negative-iteration",
        "checkpoint-nan-lam", "checkpoint-negative-lam",
        "checkpoint-infinite-lam", "config-rates-number",
        "config-unknown-key", "checkpoint-critic-kind",
        "checkpoint-scalar-critic", "checkpoint-short-critic",
        "config-truncated", "checkpoint-truncated", "env-truncated",
        "csv-reward-not-a-number", "csv-state-not-a-number",
        "csv-empty-next-state", "behavior-short-logits",
        "behavior-gaussian-layout", "behavior-short-layout-entry",
        "behavior-layout-number"])
def test_malformed_input_file_is_rejected(tmp_path, capsys, name, content,
                                          argv, key):
    """A file without a required column or key, whose JSON is not an
    object or does not parse, whose nested entries miss a key or name an
    unknown one, whose player or critic values do not fit the templates,
    whose entries have the wrong type or, for ``iteration`` and ``lam``,
    lie out of range, whose CSV field does not parse,
    whose saved behavior policy has a malformed layout or another layout
    than the environment's, or whose finite policy values draw non-finite actions, exits 2 with one
    line naming the file and the key, before any run directory."""
    path = tmp_path / name
    path.write_text(content)
    code, out = run(tmp_path, "malformed", *argv, str(path))
    assert code == 2
    err = capsys.readouterr().err
    assert str(path) in err and key in err
    assert err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# the reading boundary: subcommand x file option x mutation
# ---------------------------------------------------------------------------


def _file_options():
    """(subcommand, option) of every option of the parser that names an
    input: each string-valued option without fixed choices, but ``--out``."""
    parser = _build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {(name, action.option_strings[0])
            for name, sub in subparsers.choices.items()
            for action in sub._actions
            if action.type is str and action.choices is None
            and action.dest != "out"}


DROP = object()
NAN = float("nan")


def _json_with(payload, **change):
    """``payload`` as JSON, with each key of ``change`` set to its value, or
    dropped where the value is ``DROP``."""
    payload = dict(payload, **change)
    return json.dumps({key: value for key, value in payload.items()
                       if value is not DROP})


def _csv_with(text, column, value, line=1):
    """``text`` with ``column`` of the data row at ``line`` set to
    ``value``, or the column dropped from every line where ``value`` is
    ``DROP``."""
    rows = [row.split(",") for row in text.splitlines()]
    at = rows[0].index(column)
    if value is DROP:
        rows = [row[:at] + row[at + 1:] for row in rows]
    else:
        rows[line][at] = value
    return "\n".join(",".join(row) for row in rows) + "\n"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Well-formed input texts: environments, datasets, a config, a
    checkpoint and a saved behaviour policy."""
    gradient, tracking = TABULAR_TESTBEDS["gradient"]()[0], tracking_mdp()
    path = tmp_path_factory.mktemp("inputs") / "dataset.csv"
    sample_offline_dataset(gradient, "uniform", n=40, seed=0).save_csv(path)
    gradient_csv = path.read_text()
    rollout_dataset(tracking, tracking_behavior_policy(tracking), 4,
                    seed=0).save_csv(path)
    return {"tabular": gradient.to_dict(), "continuous": tracking.to_dict(),
            "gradient.csv": gradient_csv, "tracking.csv": path.read_text(),
            "config": TrainerConfig(n_iterations=1,
                                    rollouts_per_iter=4).to_dict(),
            "checkpoint": json.loads(checkpoint_misfit("lam", 1.0)),
            "policy": SoftmaxPolicy.zeros(gradient.num_states,
                                          gradient.num_actions)
            .params.to_dict()}


def _tabular_env_mutations(x, wrong):
    env = x["tabular"]
    return {
        "truncated": (json.dumps(env)[:40], "invalid JSON"),
        "not-an-object": ("[1, 2]", "JSON object"),
        "missing-key": (_json_with(env, reward_probs=DROP), "reward_probs"),
        "unknown-key": (_json_with(env, bogus=1), "bogus"),
        "wrong-type": (_json_with(env, gamma="0.9"), "gamma"),
        "nan-inf": (_json_with(env, init_dist=[NAN, 0.5, 0.5]), "init_dist"),
        "unparsable-field": (_json_with(env, transition="abc"), "transition"),
        "wrong-width": (_json_with(env, init_dist=[1.0]), "init_dist"),
        "fractional-label": (_json_with(env, horizon=2.5), "horizon"),
        "wrong-environment": (wrong, "kind"),
    }


def _continuous_env_mutations(x):
    env = x["continuous"]
    return {
        "truncated": (json.dumps(env)[:20], "invalid JSON"),
        "not-an-object": ('"tracking"', "JSON object"),
        "missing-key": (_json_with(env, name=DROP), "name"),
        "unknown-key": (_json_with(env, bogus=1), "bogus"),
        "wrong-type": (_json_with(env, params={"gamma": "0.9"}), "gamma"),
        "nan-inf": (_json_with(env, params={"gamma": NAN}), "gamma"),
        "unparsable-field": (_json_with(env, params="abc"), "params"),
        "fractional-label": (_json_with(env, params={"horizon": 2.5}),
                             "horizon"),
        "wrong-environment": (json.dumps(x["tabular"]), "kind"),
    }


def _dataset_mutations(x):
    text = x["gradient.csv"]
    return {
        "truncated": (text[:text.rindex(",")], "column logp_model"),
        "not-an-object": (json.dumps(x["tabular"]), "episode"),
        "missing-key": (_csv_with(text, "s_next", DROP), "s_next"),
        "unknown-key": (text.replace("logp_model", "logp_model,bogus", 1),
                        "bogus"),
        "wrong-type": (_csv_with(text, "a", "left"), "column a"),
        "nan-inf": (_csv_with(text, "r", "nan"), "column r"),
        "unparsable-field": (_csv_with(text, "r", "abc"), "column r"),
        "wrong-width": (_csv_with(text, "s", "0 1"), "column s"),
        "fractional-label": (_csv_with(text, "s", "0.5"), "column s"),
        "wrong-environment": (x["tracking.csv"], "column s"),
    }


def _config_mutations(x):
    config = x["config"]
    return {
        "truncated": (json.dumps(config)[:30], "invalid JSON"),
        "not-an-object": ("5", "JSON object"),
        "unknown-key": (_json_with(config, bogus=1), "bogus"),
        "wrong-type": (_json_with(config, n_iterations="5"), "n_iterations"),
        "nan-inf": (_json_with(config, epsilon=NAN), "epsilon"),
        "unparsable-field": (_json_with(config, rates=5), "rates"),
        "fractional-label": (_json_with(config, segment_length=2.5),
                             "segment_length"),
        "wrong-environment": (json.dumps(x["checkpoint"]), "critic"),
    }


def _checkpoint_mutations(x):
    ckpt = x["checkpoint"]
    critic = dict(ckpt["critic"], q="abc")
    return {
        "truncated": (json.dumps(ckpt)[:30], "invalid JSON"),
        "not-an-object": ("null", "JSON object"),
        "missing-key": (_json_with(ckpt, lam=DROP), "lam"),
        "unknown-key": (_json_with(ckpt, bogus=1), "bogus"),
        "wrong-type": (_json_with(ckpt, iteration="1"), "iteration"),
        "nan-inf": (_json_with(ckpt, policy={"values": [NAN, 0.0, 0.0]}),
                    "policy values"),
        "unparsable-field": (_json_with(ckpt, critic=critic), "critic q"),
        "wrong-width": (_json_with(ckpt, model={"values": [0.0, 0.0]}),
                        "model values"),
        "fractional-label": (_json_with(ckpt, iteration=1.5), "iteration"),
        "wrong-environment": (_json_with(ckpt, policy=x["policy"]),
                              "policy values"),
    }


def _policy_mutations(x):
    policy = x["policy"]
    gaussian = DiagGaussianPolicy.zeros(5, 1).params.to_dict()
    return {
        "truncated": (json.dumps(policy)[:15], "invalid JSON"),
        "not-an-object": ("[0, 0, 0, 0, 0, 0]", "JSON object"),
        "missing-key": (_json_with(policy, layout=DROP), "layout"),
        "unknown-key": (_json_with(policy, bogus=1), "bogus"),
        "wrong-type": (_json_with(policy, layout=5), "layout"),
        "nan-inf": (_json_with(policy, values=[NAN] * 6), "policy values"),
        "unparsable-field": (_json_with(policy, values=["x"] * 6),
                             "policy values"),
        "wrong-width": (_json_with(policy, values=[0] * 5,
                                   layout=[["logits", 0, 5]]), "layout"),
        "fractional-label": (_json_with(policy, layout=[["logits", 0, 5.5]]),
                             "layout"),
        "wrong-environment": (json.dumps(gaussian), "layout"),
    }


# (subcommand, option): (the rest of the command line, given the directory
# of the well-formed inputs, and the mutations of the file the option names,
# given those inputs)
MATRIX = {
    ("gen-data", "--env"): (
        lambda d: ["gen-data", "--n", "20"],
        lambda x: _tabular_env_mutations(
            x, _json_with(x["tabular"], kind="pendulum"))),
    ("fit-model", "--env"): (
        lambda d: ["fit-model", "--dataset", str(d / "gradient.csv")],
        lambda x: _tabular_env_mutations(
            x, _json_with(x["tabular"], kind="pendulum"))),
    ("train", "--env"): (
        lambda d: ["train", "--config", str(d / "config.json")],
        lambda x: _tabular_env_mutations(
            x, _json_with(x["tabular"], kind="pendulum"))),
    ("coverage", "--env"): (
        lambda d: ["coverage", "--trials", "100"],
        lambda x: _tabular_env_mutations(x, json.dumps(x["continuous"]))),
    ("evaluate", "--env"): (
        lambda d: ["evaluate", "--checkpoint", str(d / "checkpoint.json"),
                   "--episodes", "2"],
        _continuous_env_mutations),
    ("fit-model", "--dataset"): (
        lambda d: ["fit-model", "--env", "gradient"],
        _dataset_mutations),
    ("train", "--dataset"): (
        lambda d: ["train", "--env", "gradient", "--config",
                   str(d / "config.json")],
        _dataset_mutations),
    ("train", "--config"): (
        lambda d: ["train", "--env", "gradient"],
        _config_mutations),
    ("evaluate", "--checkpoint"): (
        lambda d: ["evaluate", "--env", "tracking", "--episodes", "2"],
        _checkpoint_mutations),
    ("gen-data", "--behavior"): (
        lambda d: ["gen-data", "--env", "gradient", "--n", "20"],
        _policy_mutations),
}
MUTATIONS = ("truncated", "not-an-object", "missing-key", "unknown-key",
             "wrong-type", "nan-inf", "unparsable-field", "wrong-width",
             "fractional-label", "wrong-environment")
# Mutations a file kind cannot carry: a config has no required key and no
# array, and a continuous environment file holds only named parameters.
NOT_APPLICABLE = {("train", "--config", "missing-key"),
                  ("train", "--config", "wrong-width"),
                  ("evaluate", "--env", "wrong-width")}


def _write_inputs(x, directory):
    (directory / "gradient.csv").write_text(x["gradient.csv"])
    (directory / "config.json").write_text(json.dumps(x["config"]))
    (directory / "checkpoint.json").write_text(json.dumps(x["checkpoint"]))


def test_matrix_covers_every_file_option():
    """A new option that reads a file must join the matrix below."""
    assert _file_options() == set(MATRIX)


@pytest.mark.parametrize("subcommand, option", sorted(MATRIX))
def test_each_file_option_reads_its_well_formed_file(tmp_path, inputs,
                                                     subcommand, option):
    """The control of the matrix: unmutated, every file is accepted."""
    _write_inputs(inputs, tmp_path)
    rest, _ = MATRIX[subcommand, option]
    good = {"--env": (json.dumps(inputs["continuous"])
                      if subcommand == "evaluate"
                      else json.dumps(inputs["tabular"])),
            "--dataset": inputs["gradient.csv"],
            "--config": json.dumps(inputs["config"]),
            "--checkpoint": json.dumps(inputs["checkpoint"]),
            "--behavior": json.dumps(inputs["policy"])}[option]
    path = tmp_path / "input"
    path.write_text(good)
    code = cli([*rest(tmp_path), option, str(path), "--out",
                str(tmp_path / "run")])
    assert code in ((0, 1) if subcommand == "coverage" else (0,))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("subcommand, option, mutation", [
    (subcommand, option, mutation) for subcommand, option in sorted(MATRIX)
    for mutation in MUTATIONS
    if (subcommand, option, mutation) not in NOT_APPLICABLE])
def test_mutated_input_file_is_refused_by_name(tmp_path, capsys, inputs,
                                               subcommand, option, mutation):
    """Each mutation of each input file exits 2 with one stderr line that
    names the file and the key, column or field at fault, before any run
    directory exists."""
    _write_inputs(inputs, tmp_path)
    rest, mutations = MATRIX[subcommand, option]
    content, key = mutations(inputs)[mutation]
    path = tmp_path / f"{mutation}.input"
    path.write_text(content)
    out = tmp_path / "run"
    code = cli([*rest(tmp_path), option, str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert str(path) in err and key in err, err
    assert err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("argv, name, content, key", [
    (["train", "--env", "tracking"], "gradient.csv", "gradient.csv",
     "column s"),
    (["fit-model", "--env", "gradient"], "half.csv", "s=0.5", "column s"),
    (["fit-model", "--env", "gradient"], "tracking.csv", "tracking.csv",
     "column s"),
    (["fit-model", "--env", "gradient"], "sparse.csv", "s=5", "row 4 has (s=5"),
    (["gen-data", "--env"], "env.json", {"gamma": "0.9"}, "gamma"),
    (["gen-data", "--env"], "env.json", {"horizon": 2.5}, "horizon"),
    (["gen-data", "--env"], "env.json", {"transition": "abc"}, "transition"),
    (["gen-data", "--env"], "env.json", {"reward_values": [0.5, 0.5]},
     "reward_values"),
    (["gen-data", "--env"], "env.json", {"reward_values": [[0.2], [0.9]]},
     "reward_values"),
    (["fit-model", "--env", "gradient"], "long.csv", "logp_model=0.0,7",
     "line 6 has extra fields"),
], ids=["tracking-reads-tabular-csv", "fractional-state",
        "gradient-reads-tracking-csv", "state-outside-the-environment",
        "string-gamma", "fractional-horizon", "unparsable-transition",
        "repeated-reward-values", "nested-reward-values",
        "field-past-the-last-column"])
def test_misread_inputs_are_refused_by_file_and_key(tmp_path, capsys, inputs,
                                                    argv, name, content, key):
    """Inputs the parser once read wrongly: a dataset for another
    environment, a fractional tabular label, a row with a field past the
    last column, and an environment file with a string gamma, a fractional
    horizon, an unparsable table, a reward value listed twice or reward
    values nested in lists."""
    path = tmp_path / name
    if isinstance(content, dict):
        path.write_text(_json_with(inputs["tabular"], **content))
    elif content in inputs:
        path.write_text(inputs[content])
    else:
        column, value = content.split("=")
        path.write_text(_csv_with(inputs["gradient.csv"], column, value,
                                  line=5))
    config = tiny_config(tmp_path)
    option = [] if argv[-1] == "--env" else ["--dataset"]
    extra = ["--config", config] if argv[0] == "train" else []
    out = tmp_path / "run"
    code = cli([*argv, *option, str(path), *extra, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert str(path) in err and key in err, err
    assert err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# README
# ---------------------------------------------------------------------------


def test_readme_example_prints_what_readme_shows(tmp_path):
    """README's Example, run in a fresh process in which scipy cannot be
    imported (numpy is the only runtime dependency), prints the ``# …``
    line under each command."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme.split("## Example")[1].split("```")[1].splitlines()
    commands = [line.split()[1:] for line in lines
                if line.startswith("stackmbrl ")]
    code = ("import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from stackmbrl.cli import cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    if cli(argv):\n"
            "        sys.exit(1)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(Path(stackmbrl.__file__).parents[1]),
        os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len(commands) == 4
    assert proc.stdout.splitlines() == [line[2:] for line in lines
                                        if line.startswith("# ")]
