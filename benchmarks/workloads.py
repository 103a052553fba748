"""The benchmark's workloads: inputs built from a seed, and one timed job.

A job is the unit of work a user asks for: a fixed budget of operations
from a fresh initial state, then the closing evaluation of the result.
An operation is one ``train_iteration`` on the training workloads and one
``coverage_check`` call on ``coverage``. Every job of one run repeats the
same computation from the same seed, so its fingerprint must repeat too.

Each workload stresses a different layer (see ``spec.WORKLOADS``):

* ``tabular-small`` - per-call Python overhead and the dataset-penalty
  terms; the worst-case certificate reuses one dataset for thousands of
  KL evaluations on changing models.
* ``tabular-large`` - the (S, A, K, n_phi) score table, factor assembly
  and the Woodbury solve, which grow with n_phi = 9,600.
* ``tracking`` - per-row Gaussian score, log-prob, KL and rollout calls,
  with no tabular table or DP. Its default run diverges, and the aborted
  iterations are reported as they are.
* ``coverage`` - every trial draws, fits and scores a fresh dataset, so the
  penalty and MLE layers run with no reuse.
"""

from __future__ import annotations

import hashlib
import json
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from stackmbrl import (CategoricalWorldModel, DiagGaussianWorldModel,
                       OfflineDataset, TrainerConfig, coverage_check,
                       initial_state, mle_fit, robust_evaluate,
                       rollout_dataset, train_iteration, worst_case_return)
# Imported under another name so that the tracer, which patches every
# binding named ``dataset_kl``, does not count the output check.
from stackmbrl.estimators import dataset_kl as check_kl
from stackmbrl.testbeds import (gradient_mdp, tracking_behavior_policy,
                                tracking_mdp)

from synthetic import synthetic_mdp

ANCHOR_ALPHA = 0.5            # additive smoothing of the tabular MLE anchor
SMALL_ROWS = 500              # rows `stackmbrl train` builds for tabular envs
SMALL_ITERATIONS = 50         # TrainerConfig().n_iterations
# The library default of 4 starts x 200 steps takes ~34 s. Steps of 2.0
# leave the ball every time, so each step costs one bisection whatever the
# seed; at the default 0.5 the count of bisections, and so the evaluation's
# cost, varies by +-15% between seeds.
WORST_CASE_STARTS = 2
WORST_CASE_STEPS = 12
WORST_CASE_STEP_SIZE = 2.0
LARGE_SHAPE = dict(num_states=40, num_actions=3, num_rewards=2, horizon=10)
LARGE_ROWS = 2000
LARGE_ITERATIONS = 2
TRACKING_EPISODES = 50        # 400 rows, as `train --env tracking` builds
TRACKING_ITERATIONS = 50
TRACKING_NOISE = 0.05
TRACKING_EVAL_EPISODES = 200  # robust_evaluate default
COVERAGE_ROWS = 400
COVERAGE_DELTA = 0.2
COVERAGE_TRIALS = 200
COVERAGE_CALLS = 4


@dataclass
class JobResult:
    """Timings, outcome fingerprint and output-check violations of one job."""

    op_seconds: list
    budget_seconds: float     # the fixed budget of operations
    eval_seconds: float       # the closing evaluation (0.0 when there is none)
    fingerprint: str
    attempted: int
    violations: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.budget_seconds + self.eval_seconds


def _digest(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(json.dumps(part, sort_keys=True,
                                     default=repr).encode())
    return digest.hexdigest()


def _rows_dataset(env, behavior, n_rows: int, seed: int) -> OfflineDataset:
    """Whole behaviour episodes, trimmed to exactly ``n_rows`` transitions."""
    episodes = -(-n_rows // env.horizon)
    data = rollout_dataset(env, behavior, n_episodes=episodes, seed=seed)
    return OfflineDataset(states=np.asarray(data.states)[:n_rows],
                          actions=np.asarray(data.actions)[:n_rows],
                          rewards=np.asarray(data.rewards)[:n_rows],
                          next_states=np.asarray(data.next_states)[:n_rows])


@dataclass
class TrainingInputs:
    env: object
    dataset: OfflineDataset
    anchor: object
    config: TrainerConfig


class TrainingWorkload:
    """``n_iterations`` of ``train_iteration``, then an optional evaluation."""

    def __init__(self, n_iterations: int, make_inputs, evaluate=None):
        self.n_ops = n_iterations
        self._make_inputs = make_inputs
        self._evaluate = evaluate

    def setup(self, seed: int) -> TrainingInputs:
        inputs = self._make_inputs(seed)
        # The first job builds its own state; building one here counts its
        # cost in set-up, as a user's first call would pay it.
        initial_state(inputs.env, inputs.anchor, inputs.config)
        return inputs

    def run_job(self, inputs: TrainingInputs) -> JobResult:
        env, dataset, anchor, config = (inputs.env, inputs.dataset,
                                        inputs.anchor, inputs.config)
        state = initial_state(env, anchor, config)
        rows, committed, op_seconds, violations = [], [], [], []
        with warnings.catch_warnings():
            # Aborted iterations warn; the trace column counts them instead.
            warnings.simplefilter("ignore")
            started = time.perf_counter()
            for k in range(self.n_ops):
                tick = time.perf_counter()
                try:
                    state, record = train_iteration(state, env, dataset,
                                                    anchor, config)
                except Exception as err:  # noqa: BLE001 - reported below
                    # An error the trainer does not turn into an abort
                    # ends the budget; the job reports it as a failure.
                    violations.append(f"iteration {k} raised {err!r}")
                    break
                op_seconds.append(time.perf_counter() - tick)
                rows.append(record)
                committed.append((state.policy, state.model, state.lam))
            trained = time.perf_counter()
            outcome, check = (self._evaluate(inputs, state)
                              if self._evaluate else ({}, None))
            finished = time.perf_counter()

        for k, (policy, model, lam) in enumerate(committed):
            if not (np.isfinite(policy.params.values).all()
                    and np.isfinite(model.params.values).all()
                    and np.isfinite(lam) and np.isfinite(rows[k]["kl"])):
                violations.append(f"iteration {k}: non-finite committed "
                                  "parameters or KL")
        if check is not None:
            violations.extend(check())
        aborted = int(sum(row["aborted"] for row in rows))
        stats = dict(outcome, aborted=aborted, iterations=len(rows),
                     aborted_frac=aborted / max(len(rows), 1))
        fingerprint = _digest(rows, state.policy.params.values,
                              state.model.params.values, state.lam, outcome,
                              violations)
        attempted = len(rows) + (len(rows) < self.n_ops) + bool(self._evaluate)
        return JobResult(op_seconds=op_seconds,
                         budget_seconds=trained - started,
                         eval_seconds=finished - trained,
                         fingerprint=fingerprint, attempted=attempted,
                         violations=violations, stats=stats)


def _tabular_inputs(env, n_rows: int, seed: int) -> TrainingInputs:
    dataset = _rows_dataset(env, "uniform", n_rows, seed)
    anchor = mle_fit(dataset, CategoricalWorldModel.uniform(env),
                     alpha=ANCHOR_ALPHA)
    return TrainingInputs(env, dataset, anchor, TrainerConfig(seed=seed))


def _small_inputs(seed: int) -> TrainingInputs:
    return _tabular_inputs(gradient_mdp(), SMALL_ROWS, seed)


def _large_inputs(seed: int) -> TrainingInputs:
    return _tabular_inputs(synthetic_mdp(seed, **LARGE_SHAPE), LARGE_ROWS,
                           seed)


def _tracking_inputs(seed: int) -> TrainingInputs:
    env = tracking_mdp()
    dataset = rollout_dataset(env, tracking_behavior_policy(env),
                              n_episodes=TRACKING_EPISODES, seed=seed)
    anchor = mle_fit(dataset, DiagGaussianWorldModel.zeros(env.state_dim,
                                                           env.action_dim))
    return TrainingInputs(env, dataset, anchor, TrainerConfig(seed=seed))


def _certify(inputs: TrainingInputs, state):
    """Worst-case return of the final policy over the anchored KL ball."""
    value, model = worst_case_return(
        inputs.env, state.policy, inputs.anchor, inputs.dataset,
        inputs.config.epsilon, n_starts=WORST_CASE_STARTS,
        n_steps=WORST_CASE_STEPS, step_size=WORST_CASE_STEP_SIZE,
        seed=inputs.config.seed)

    def check():
        kl = check_kl(inputs.dataset, model, inputs.anchor)
        if not (np.isfinite(value) and kl <= inputs.config.epsilon):
            return [f"worst-case model outside the ball: KL {kl!r} > "
                    f"epsilon {inputs.config.epsilon!r} or return {value!r}"]
        return []

    return {"robust_return": value}, check


def _deploy(inputs: TrainingInputs, state):
    """Clean and noisy deployment returns of the final policy."""
    result = robust_evaluate(inputs.env, state.policy, TRACKING_NOISE,
                             n_episodes=TRACKING_EVAL_EPISODES,
                             seed=inputs.config.seed)

    def check():
        if not all(np.isfinite(v) for v in result.values()):
            return [f"non-finite deployment returns {result!r}"]
        return []

    return ({"clean_return": result["clean"],
             "noisy_return": result["noisy"]}, check)


class CoverageWorkload:
    """``COVERAGE_CALLS`` calls of ``coverage_check``, one seed stream each."""

    n_ops = COVERAGE_CALLS

    def setup(self, seed: int):
        return gradient_mdp(), [
            int(np.random.SeedSequence([seed, call]).generate_state(1)[0])
            for call in range(self.n_ops)]

    def run_job(self, inputs) -> JobResult:
        env, call_seeds = inputs
        reports, op_seconds = [], []
        started = time.perf_counter()
        for call_seed in call_seeds:
            tick = time.perf_counter()
            reports.append(coverage_check(
                env, "uniform", n_transitions=COVERAGE_ROWS,
                delta=COVERAGE_DELTA, n_trials=COVERAGE_TRIALS,
                seed=call_seed, n_workers=1))
            op_seconds.append(time.perf_counter() - tick)
        finished = time.perf_counter()
        violations = [f"call {k}: coverage {r.coverage!r} below threshold "
                      f"{r.threshold!r}"
                      for k, r in enumerate(reports) if not r.passed]
        payload = [r.to_dict() for r in reports]
        return JobResult(op_seconds=op_seconds,
                         budget_seconds=finished - started, eval_seconds=0.0,
                         fingerprint=_digest(payload), attempted=self.n_ops,
                         violations=violations,
                         stats={"coverage": float(np.mean(
                             [r.coverage for r in reports]))})


WORKLOADS = {
    "tabular-small": TrainingWorkload(SMALL_ITERATIONS, _small_inputs,
                                      _certify),
    "tabular-large": TrainingWorkload(LARGE_ITERATIONS, _large_inputs),
    "tracking": TrainingWorkload(TRACKING_ITERATIONS, _tracking_inputs,
                                 _deploy),
    "coverage": CoverageWorkload(),
}
