"""Tests of the benchmark's own code.

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from synthetic import synthetic_mdp  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _bindings() -> dict:
    """Every attribute the tracer may patch, keyed by (namespace id, name)."""
    out = {}
    names = {attr for _, attr, _ in tracing.TIMED_FUNCTIONS}
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if isinstance(namespace, dict):
            for attr in names & namespace.keys():
                out[(id(namespace), attr)] = namespace[attr]
    classes = ([cls for cls, _, _ in tracing.TIMED_METHODS]
               + list(tracing.COUNTED_CLASSES))
    for cls in classes:
        for attr, value in vars(cls).items():
            out[(id(cls), attr)] = value
    return out


def test_tracer_restores_every_patched_attribute():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        during = _bindings()
        assert workloads.train_iteration is not before[
            (id(vars(workloads)), "train_iteration")]
    changed = [key for key in before if during[key] is not before[key]]
    # every timed function in each module holding it, plus the methods
    assert len(changed) > len(tracing.TIMED_FUNCTIONS)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    tracer.install()
    with pytest.raises(RuntimeError):
        tracer.install()
    tracer.uninstall()
    assert all(_bindings()[key] is before[key] for key in before)


@pytest.mark.parametrize("name", ["tabular-small", "tracking", "coverage"])
def test_tracing_leaves_results_unchanged(name):
    workload = copy.copy(workloads.WORKLOADS[name])
    workload.n_ops = 2
    inputs = workload.setup(3)
    plain = workload.run_job(inputs)
    tracer = tracing.Tracer()
    with tracer:
        traced = workload.run_job(inputs)
    assert traced.fingerprint == plain.fingerprint
    assert traced.violations == plain.violations == []
    summary = tracer.summary()
    assert summary["trainer.train_iteration.calls" if name != "coverage"
                   else "uncertainty.coverage_check.calls"] == 2
    again = workload.run_job(inputs)
    assert again.fingerprint == plain.fingerprint


def test_error_raised_by_the_trainer_is_a_failed_operation(monkeypatch):
    workload = workloads.TrainingWorkload(3, workloads._small_inputs)
    inputs = workload.setup(0)

    def raising(*args, **kwargs):
        raise ValueError("non-finite entries")

    monkeypatch.setattr(workloads, "train_iteration", raising)
    result = workload.run_job(inputs)
    assert result.violations == [
        "iteration 0 raised ValueError('non-finite entries')"]
    assert result.attempted == 1
    assert result.op_seconds == []


def test_summary_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [["trainer.a", 0.0, 10.0, -1],
                    ["estimators.b", 1.0, 4.0, 0],
                    ["models.c", 2.0, 3.0, 1],
                    ["models.c", 5.0, 7.0, 0]]
    summary = tracer.summary()
    assert summary["trainer.a.self_s"] == pytest.approx(5.0)
    assert summary["estimators.b.self_s"] == pytest.approx(2.0)
    assert summary["models.c.s"] == pytest.approx(3.0)
    assert summary["models.c.calls"] == 2
    assert summary["layer.models.self_s"] == pytest.approx(3.0)


def test_generator_is_deterministic_per_seed():
    shape = dict(num_states=5, num_actions=3, num_rewards=2, horizon=4)
    first, again = synthetic_mdp(7, **shape), synthetic_mdp(7, **shape)
    other = synthetic_mdp(8, **shape)
    for field in ("transition", "reward_probs", "init_dist",
                  "reward_values"):
        np.testing.assert_array_equal(getattr(first, field),
                                      getattr(again, field))
    assert not np.array_equal(first.transition, other.transition)
    assert first.num_outcomes == 2 * 5
    assert (first.transition > 0).all()


def test_large_workload_has_the_stated_size():
    mdp = synthetic_mdp(0, **workloads.LARGE_SHAPE)
    n_phi = mdp.num_states * mdp.num_actions * mdp.num_outcomes
    assert n_phi == 9600


def test_metric_names_and_units_are_well_formed():
    names = ([name for name, _ in spec.WORKLOADS + spec.EXTRA_WORKLOADS]
             + [name for name, *_ in spec.END_TO_END]
             + [name for name, *_ in spec.PER_LAYER])
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(set(names)) == len(names)
    units = [unit for _, unit, *_ in spec.END_TO_END + spec.PER_LAYER]
    assert all(UNIT.fullmatch(unit) for unit in units)
    assert {name for name, _ in spec.WORKLOADS + spec.EXTRA_WORKLOADS} == set(
        workloads.WORKLOADS)


def test_benchmark_json_matches_the_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == list(
        spec.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == list(spec.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == list(spec.PER_LAYER)


def test_run_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "coverage",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
