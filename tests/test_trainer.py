"""Segment trainer: vanilla preset, seeded artifacts, checkpoints, aborts."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import reference_oracles as ref_oracles
import reference_samplers as ref
from conftest import dirichlet_mdp
from reference_estimators import (discounted_weights, model_gradient,
                                  policy_gradient)

import stackmbrl
from stackmbrl import estimators, models, trainer
from stackmbrl.dynamics import LearningRates
from stackmbrl.estimators import (dataset_dual_coupling, dataset_kl,
                                  factors_from_batch, penalty_curvature)
from stackmbrl.mdp import SamplingError, exact_return, sample_tabular_batch
from stackmbrl.models import (CategoricalWorldModel, DiagGaussianPolicy,
                              DiagGaussianWorldModel, OfflineDataset,
                              SoftmaxPolicy, mle_fit, rollout_dataset,
                              sample_offline_dataset)
from stackmbrl.oracles import central_difference
from stackmbrl.testbeds import (TABULAR_TESTBEDS, tracking_behavior_policy,
                                tracking_mdp)
from stackmbrl.trainer import (_COLLECT_STREAM, _POLICY_STREAM,
                               DYNAMICS_MODES, LinearCritic, ReplayBuffer,
                               TrainerConfig, collect_rollouts,
                               episode_returns, initial_state,
                               load_checkpoint, robust_evaluate,
                               save_checkpoint, train, train_iteration,
                               vanilla_config, worst_case_return)
from stackmbrl.woodbury import (BlockScores, CellCurvature, DualRow,
                                LowRankFactors, WoodburySolver,
                                leader_gradient)


@pytest.fixture(scope="module")
def tracking_setup():
    """Tracking task with the dataset and anchor ``stackmbrl train`` builds
    for seed 0: 50 behavior episodes and the Gaussian MLE."""
    return _tracking_inputs(seed=0)


def column(trace, name) -> np.ndarray:
    return np.array([row[name] for row in trace.rows])


def _tracking_inputs(seed):
    env = tracking_mdp()
    dataset = rollout_dataset(env, tracking_behavior_policy(env),
                              n_episodes=50, seed=seed)
    anchor = mle_fit(dataset, DiagGaussianWorldModel.zeros(env.state_dim,
                                                           env.action_dim))
    return env, dataset, anchor


# ---------------------------------------------------------------------------
# batched likelihoods against the per-step loops they replace
# ---------------------------------------------------------------------------


def _row_loop(fn, *arrays):
    """``fn`` evaluated step by step over the (n, h) leading axes."""
    n, h = arrays[0].shape[:2]
    return np.array([[fn(*(x[i, t] for x in arrays)) for t in range(h)]
                     for i in range(n)])


def _softmax_row_score(probs, *index):
    """One step's flat score: -p over its softmax block, +1 at its entry."""
    grad = np.zeros_like(probs)
    grad[index[:-1]] = -probs[index[:-1]]
    grad[index] += 1.0
    return grad.ravel()


def _gaussian_row_log_prob(weights, log_std, feats, y):
    z = (y - weights @ feats) / np.exp(log_std)
    return float(-0.5 * (z ** 2).sum() - log_std.sum()
                 - 0.5 * y.size * np.log(2.0 * np.pi))


def _gaussian_row_score(weights, log_std, feats, y):
    std = np.exp(log_std)
    z = (y - weights @ feats) / std
    return np.concatenate([((z / std)[:, None] * feats[None, :]).ravel(),
                           z ** 2 - 1.0])


def _assert_matches_rows(family, ref_log_prob, ref_score, *steps):
    log_probs, scores = family.log_probs(*steps), family.scores(*steps).dense()
    assert scores.shape == steps[0].shape[:2] + (family.n_params,)
    assert np.array_equal(log_probs, _row_loop(ref_log_prob, *steps))
    assert np.array_equal(scores, _row_loop(ref_score, *steps))
    assert np.array_equal(log_probs, _row_loop(family.log_prob, *steps))
    assert np.array_equal(scores, _row_loop(family.score, *steps))


def test_batched_softmax_likelihoods_match_the_step_loop(grad_triple,
                                                         grad_dataset):
    env, policy, model = grad_triple
    batch = collect_rollouts(env, policy, model, grad_dataset[0],
                             n_rollouts=6, length=3, seed=2)
    states, actions = batch["states"][:, :3], batch["actions"][:, :3]
    pol, mod = policy.probs_all(), model.probs_all()
    _assert_matches_rows(policy, lambda s, a: np.log(pol)[s, a],
                         lambda s, a: _softmax_row_score(pol, s, a),
                         states, actions)
    _assert_matches_rows(model, lambda s, a, k: np.log(mod)[s, a, k],
                         lambda s, a, k: _softmax_row_score(mod, s, a, k),
                         states, actions, batch["outcomes"])


def test_rollouts_append_one_bootstrap_action(grad_triple, grad_dataset,
                                              tracking_setup):
    """The tabular sampler draws one action per step, and the continuous
    path loop one more; either way ``collect_rollouts`` returns a trailing
    action at each segment's last state, with its log-probability."""
    tracking, dataset, anchor = tracking_setup
    env, policy, model = grad_triple
    batch = sample_tabular_batch(env, policy, model, horizon=3, seed=9)
    assert batch["actions"].shape == batch["logp_policy"].shape == (1, 3)
    cases = [(*grad_triple, grad_dataset[0]),
             (tracking, tracking_behavior_policy(tracking), anchor, dataset)]
    for env, policy, model, data in cases:
        batch = collect_rollouts(env, policy, model, data, n_rollouts=4,
                                 length=3, seed=2)
        assert batch["actions"].shape[:2] == batch["logp_policy"].shape \
            == (4, 4)
        assert np.array_equal(
            batch["logp_policy"][:, -1],
            [policy.log_prob(s, a) for s, a
             in zip(batch["states"][:, -1], batch["actions"][:, -1])])


def test_batched_gaussian_likelihoods_match_the_step_loop(tracking_setup):
    env, dataset, anchor = tracking_setup
    rng = np.random.default_rng(4)
    policy = DiagGaussianPolicy(
        rng.normal(size=(env.action_dim, env.state_dim + 1)),
        0.3 * rng.normal(size=env.action_dim))
    batch = collect_rollouts(env, policy, anchor, dataset, n_rollouts=6,
                             length=4, seed=3)
    assert batch["lengths"].tolist() == [4] * 6
    states, actions = batch["states"][:, :4], batch["actions"][:, :4]
    emissions = _row_loop(
        lambda s_next, r: np.append(s_next, r), batch["states"][:, 1:],
        batch["rewards"])
    assert np.array_equal(batch["outcomes"], emissions)

    def policy_args(s, a):
        return policy.weights, policy.log_std, np.append(s, 1.0), a

    def model_args(s, a, y):
        return (anchor.weights, anchor.log_std,
                np.append(np.concatenate([s, a]), 1.0), y)

    _assert_matches_rows(
        policy, lambda *row: _gaussian_row_log_prob(*policy_args(*row)),
        lambda *row: _gaussian_row_score(*policy_args(*row)),
        states, actions)
    _assert_matches_rows(
        anchor, lambda *row: _gaussian_row_log_prob(*model_args(*row)),
        lambda *row: _gaussian_row_score(*model_args(*row)),
        states, actions, emissions)


@pytest.mark.parametrize("dynamics", DYNAMICS_MODES)
def test_tabular_iteration_builds_no_dense_score_table(
        grad_triple, grad_dataset, monkeypatch, dynamics):
    """An iteration forms no dense score table and expands no block scores.
    On the core route (the Dirichlet MDP: 216 model parameters, 64 atoms)
    it also reads no dense factor and never forms A_hat."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense scores or factors built")

    monkeypatch.setattr(estimators, "model_score_table", refuse)
    monkeypatch.setattr(estimators, "policy_score_table", refuse)
    monkeypatch.setattr(BlockScores, "dense", refuse)
    env = dirichlet_mdp(0, num_states=6)
    dataset = rollout_dataset(env, "uniform", n_episodes=50, seed=0)
    anchor = mle_fit(dataset, CategoricalWorldModel.uniform(env), alpha=0.5)
    cases = [(grad_triple[0], *grad_dataset), (env, dataset, anchor)]
    config = TrainerConfig(seed=2, dynamics=dynamics)
    for case, (env, dataset, anchor) in enumerate(cases):
        if case:
            for name in ("u", "v", "x", "y", "z"):
                monkeypatch.setattr(LowRankFactors, name, property(refuse))
            monkeypatch.setattr(LowRankFactors, "dense", refuse)
        state = initial_state(env, anchor, config)
        new_state, record = train_iteration(state, env, dataset, anchor,
                                            config)
        assert record["aborted"] == 0
        assert new_state.iteration == 1


def test_core_route_iteration_applies_the_base_inverse_in_full_once(
        monkeypatch):
    """A default ``constrained`` iteration on the core route (the Dirichlet
    MDP: 216 model parameters, 64 atoms, two policy epochs) applies the
    penalty base's N^{-1} to a full-layout vector once, for the dual row's
    N^{-1} b; each epoch's correction stays in the atoms' k-space. Solving
    g_phi and the dual coupling in full in each epoch made 4."""
    full = Counter()
    solve_blocks = CellCurvature.solve_blocks

    def counted(self, cells, blocks):
        full["applications"] += isinstance(cells, slice)
        return solve_blocks(self, cells, blocks)

    monkeypatch.setattr(CellCurvature, "solve_blocks", counted)
    env = dirichlet_mdp(0, num_states=6)
    dataset = rollout_dataset(env, "uniform", n_episodes=50, seed=0)
    anchor = mle_fit(dataset, CategoricalWorldModel.uniform(env), alpha=0.5)
    config = TrainerConfig(seed=0)
    assert config.dynamics == "constrained" and config.policy_epochs == 2
    state = initial_state(env, anchor, config)
    _, record = train_iteration(state, env, dataset, anchor, config)
    assert record["aborted"] == 0
    assert full["applications"] <= 1


def test_iteration_computes_committed_dataset_terms_once(grad_triple,
                                                        grad_dataset,
                                                        monkeypatch):
    """A default iteration evaluates each dataset term twice: once on the
    committed model, shared by both policy epochs, the first model epoch and
    the dual phase, and once on a stepped model (the second model epoch's
    coupling and the recorded KL)."""
    calls = Counter()
    for module in (trainer, estimators):
        for name in ("dataset_kl", "dataset_dual_coupling"):
            def counted(*args, _name=name, _fn=getattr(module, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
    env = grad_triple[0]
    dataset, anchor = grad_dataset
    config = TrainerConfig(seed=2)
    state = initial_state(env, anchor, config)
    _, record = train_iteration(state, env, dataset, anchor, config)
    assert record["aborted"] == 0
    assert calls == {"dataset_kl": 2, "dataset_dual_coupling": 2}


def test_committed_model_dataset_kl_is_evaluated_once(grad_triple,
                                                     grad_dataset,
                                                     monkeypatch):
    """Over two consecutive iterations each committed model's dataset KL is
    evaluated once: an iteration records its stepped model's KL, and the
    next one reads that record as its committed KL."""
    evaluated = []

    def counted(dataset, model, anchor, _fn=trainer.dataset_kl):
        evaluated.append(model)
        return _fn(dataset, model, anchor)

    monkeypatch.setattr(trainer, "dataset_kl", counted)
    env = grad_triple[0]
    dataset, anchor = grad_dataset
    config = TrainerConfig(seed=2)
    state = initial_state(env, anchor, config)
    committed = [state.model]
    for _ in range(2):
        state, record = train_iteration(state, env, dataset, anchor, config)
        assert record["aborted"] == 0
        assert record["kl"] == dataset_kl(dataset, state.model, anchor)
        committed.append(state.model)
    assert [sum(model is c for model in evaluated) for c in committed] == [
        1, 1, 1]
    assert len(evaluated) == 3


def test_iterations_group_the_dataset_and_normalise_the_anchor_once(
        grad_triple, grad_dataset, monkeypatch):
    """Over several iterations the dataset's cells are grouped once, the
    anchor's logits are normalised once and the support of its KL at the
    cells is grouped once: all are fixed for the run, and every dataset
    term, factor draw and critic fit reads the cached arrays."""
    env = grad_triple[0]
    cached_dataset, cached_anchor = grad_dataset
    dataset = OfflineDataset(cached_dataset.states, cached_dataset.actions,
                             cached_dataset.rewards,
                             cached_dataset.next_states)
    anchor = cached_anchor.with_params(cached_anchor.params.values)
    counts = Counter()

    def grouped(*args, _fn=models._packed_key):
        counts["dataset grouped"] += 1
        return _fn(*args)

    def normalised(logits, _fn=models._softmax):
        counts["anchor normalised"] += logits is anchor.logits
        return _fn(logits)

    def kl_support(p, _fn=models.categorical_kl_from):
        counts["anchor KL support grouped"] += 1
        return _fn(p)

    monkeypatch.setattr(models, "_packed_key", grouped)
    monkeypatch.setattr(models, "_softmax", normalised)
    monkeypatch.setattr(models, "categorical_kl_from", kl_support)
    config = TrainerConfig(seed=2)
    state = initial_state(env, anchor, config)
    for _ in range(3):
        state, record = train_iteration(state, env, dataset, anchor, config)
        assert record["aborted"] == 0
    assert counts == {"dataset grouped": 1, "anchor normalised": 1,
                      "anchor KL support grouped": 1}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("env_name", ["gradient", "tracking", "dirichlet"])
def test_solver_is_backward_stable_on_trainer_factors(env_name, grad_triple,
                                                      grad_dataset,
                                                      monkeypatch):
    """Normwise backward error ||A x - g|| / (||A||_2 ||x|| + ||g||) of
    x = A^{-1} g for g = g_phi and for the dual coupling b, against the
    dense factors of every leader step that default runs take (seeds 0-4,
    4 iterations each; a step whose core is rejected aborts its iteration
    and is not counted). ``gradient`` and ``tracking`` have fewer model
    parameters than score atoms, so the solver forms A densely; ``dirichlet``
    (216 parameters, 64 atoms) works through the k x k core."""
    solves = []

    def capture(grad_policy, model_weights, factors):
        out = leader_gradient(grad_policy, model_weights, factors)
        solves.append((factors.model_gradient(model_weights), factors))
        return out

    monkeypatch.setattr(trainer, "leader_gradient", capture)
    for seed in range(5):
        if env_name == "gradient":
            env, (dataset, anchor) = grad_triple[0], grad_dataset
        elif env_name == "tracking":
            env, dataset, anchor = _tracking_inputs(seed)
        else:
            env = dirichlet_mdp(0, num_states=6)
            dataset = rollout_dataset(env, "uniform", n_episodes=50, seed=0)
            anchor = mle_fit(dataset, CategoricalWorldModel.uniform(env),
                             alpha=0.5)
        config = TrainerConfig(seed=seed)
        state = initial_state(env, anchor, config)
        for _ in range(4):
            state, _ = train_iteration(state, env, dataset, anchor, config)
    assert len(solves) >= 20
    for grad_model, factors in solves:
        dense = factors.dense()
        solver = WoodburySolver(factors)
        for rhs in (grad_model, factors.dual_coupling):
            x = solver.solve(rhs)
            assert np.linalg.norm(dense @ x - rhs) <= 1e-9 * (
                np.linalg.norm(dense, 2) * np.linalg.norm(x)
                + np.linalg.norm(rhs))


def test_iteration_memory_stays_within_one_epochs_factors():
    """The leader update holds one policy epoch's block-score atoms,
    coefficient matrices and the solver's two k x k matrices at a time,
    O(k * (K + rank) + k^2) plus a few n_phi-vectors: about 250 bytes per
    model parameter at the peak of one iteration, 735 when this test runs
    first in its process. Dense (k, n_phi) atoms peaked near 1.4 KB (1.8 KB
    first in the process), full-height factor columns and solver caches
    near 2.6 KB, and two epochs' sets of them near 5.75 KB."""
    env = dirichlet_mdp(0, num_states=20)
    dataset = rollout_dataset(env, "uniform", n_episodes=200, seed=0)
    anchor = mle_fit(dataset, CategoricalWorldModel.uniform(env), alpha=0.5)
    config = TrainerConfig(seed=0)
    state = initial_state(env, anchor, config)
    assert anchor.n_params == 2400
    tracemalloc.start()
    try:
        _, record = train_iteration(state, env, dataset, anchor, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert record["aborted"] == 0
    assert peak / anchor.n_params <= 1200


def test_policy_epoch_memory_holds_block_scores_only():
    """One policy epoch at n_phi = 2,400 (k = 64 atoms, blocks of K = 40)
    peaks at about 215 bytes per model parameter: the solver's k x k
    matrices (four at once while the core is factored), the penalty base
    and a few n_phi-vectors. Dense (m, h, n_phi) step scores and
    (k, n_phi) atoms peaked at about 1,350."""
    env = dirichlet_mdp(0, num_states=20)
    dataset = rollout_dataset(env, "uniform", n_episodes=200, seed=0)
    anchor = mle_fit(dataset, CategoricalWorldModel.uniform(env), alpha=0.5)
    config = TrainerConfig(seed=0)
    state = initial_state(env, anchor, config)
    batch = collect_rollouts(env, state.policy, state.model, dataset,
                             config.rollouts_per_iter, config.segment_length,
                             seed=0)
    coupling = dataset_dual_coupling(dataset, state.model, anchor)
    gap = dataset_kl(dataset, state.model, anchor) - config.epsilon
    assert anchor.n_params == 2400
    tracemalloc.start()
    try:
        trainer._masked_epochs(
            state.policy, "logp_policy", 2,
            trainer._leader_rule(state, dataset, anchor, config,
                                 config.rates.at(0).policy, coupling, gap),
            1, _POLICY_STREAM, state.critic, batch, config, env.gamma, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / anchor.n_params <= 400


@pytest.mark.parametrize("epochs, full", [(1, True), (2, False)])
def test_mask_rate_is_the_last_epochs(grad_triple, grad_dataset, epochs,
                                      full):
    """The reported rate is the last epoch's: one epoch reads exactly 1,
    since its ratio is exactly one, and a large first step masks steps of
    the second."""
    env = grad_triple[0]
    dataset, anchor = grad_dataset
    config = TrainerConfig(seed=0)
    state = initial_state(env, anchor, config)
    batch = collect_rollouts(env, state.policy, state.model, dataset,
                             config.rollouts_per_iter, config.segment_length,
                             seed=0)
    _, rate = trainer._masked_epochs(
        state.policy, "logp_policy", 2,
        lambda epoch, policy, steps, weights, scores, grad: 100.0 * grad,
        epochs, _POLICY_STREAM, state.critic, batch, config, env.gamma, 0)
    assert (rate == 1.0) == full and 0.0 < rate <= 1.0


@pytest.mark.parametrize("dynamics", DYNAMICS_MODES)
def test_vanilla_preset_is_one_plain_coupled_step(grad_triple, grad_dataset,
                                                  dynamics):
    env = grad_triple[0]
    dataset, anchor = grad_dataset
    config = vanilla_config(TrainerConfig(seed=3, dynamics=dynamics,
                                          rollouts_per_iter=24), env.horizon)
    state = initial_state(env, anchor, config)
    policy, model, lam = state.policy, state.model, state.lam
    new_state, record = train_iteration(state, env, dataset, anchor, config)

    h = env.horizon
    batch = collect_rollouts(env, policy, model, dataset, 24, h,
                             np.random.default_rng((3, _COLLECT_STREAM, 0)))
    weights = discounted_weights(batch["rewards"], env.gamma)
    theta_scores = policy.scores(batch["states"][:, :-1],
                                 batch["actions"][:, :h])
    phi_scores = model.scores(batch["states"][:, :-1],
                              batch["actions"][:, :h], batch["outcomes"])
    grad_policy = policy_gradient(weights, theta_scores.dense())
    grad_model = model_gradient(weights, phi_scores.dense())
    total = grad_policy
    if dynamics != "naive":
        base = penalty_curvature(dataset, model, anchor, lam, config.ridge)
        dual = None if dynamics != "constrained" else DualRow(
            base, lam, dataset_dual_coupling(dataset, model, anchor),
            dataset_kl(dataset, model, anchor) - config.epsilon)
        factors = factors_from_batch(weights, phi_scores, theta_scores, base,
                                     dual)
        np.testing.assert_allclose(factors.model_gradient(weights.ravel()),
                                   grad_model, rtol=0.0, atol=1e-12)
        total = leader_gradient(grad_policy, weights.ravel(), factors)
    rates = config.rates.at(0)
    coupling = dataset_dual_coupling(dataset, model, anchor)
    expected_lam = lam
    if dynamics == "constrained":
        gap = dataset_kl(dataset, model, anchor) - config.epsilon
        expected_lam = max(0.0, lam + rates.dual * gap)

    assert record["aborted"] == 0
    assert record["mask_rate_policy"] == record["mask_rate_model"] == 1.0
    np.testing.assert_allclose(new_state.policy.params.values,
                               policy.params.values + rates.policy * total,
                               rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(
        new_state.model.params.values,
        model.params.values - rates.model * (grad_model + lam * coupling),
        rtol=0.0, atol=1e-12)
    assert new_state.lam == pytest.approx(expected_lam, rel=0.0, abs=1e-12)


def _raise_in_phase(phase, monkeypatch):
    """Make one phase of the next iteration raise an aborting error; the
    critic phase raises after its fit has run."""
    def fail(*args, **kwargs):
        raise FloatingPointError(f"{phase} phase failed")

    if phase == "critic":
        fit = trainer.TabularCritic.fit_epoch

        def fit_then_fail(*args, **kwargs):
            fit(*args, **kwargs)
            fail()

        monkeypatch.setattr(trainer.TabularCritic, "fit_epoch", fit_then_fail)
    else:
        name = {"collection": "collect_rollouts", "policy": "_leader_rule",
                "model": "_follower_rule", "dual": "_dual_phase"}[phase]
        monkeypatch.setattr(trainer, name, fail)


def _committed(state) -> tuple:
    transitions = state.buffer.transitions()
    return (state.policy.params.values.copy(),
            state.model.params.values.copy(), state.lam,
            state.critic.to_dict(), len(state.buffer),
            {key: value.copy() for key, value in transitions.items()})


@pytest.mark.parametrize("phase",
                         ["collection", "critic", "policy", "model", "dual"])
def test_a_failing_phase_leaves_every_committed_part(phase, grad_triple,
                                                     grad_dataset,
                                                     monkeypatch):
    """An iteration that aborts in any phase keeps the policy, the model,
    the multiplier, the critic and the buffer it started from."""
    env = grad_triple[0]
    dataset, anchor = grad_dataset
    config = TrainerConfig(seed=4)
    state, _ = train_iteration(initial_state(env, anchor, config), env,
                               dataset, anchor, config)
    before = _committed(state)
    _raise_in_phase(phase, monkeypatch)
    with pytest.warns(UserWarning, match=f"{phase} phase failed"):
        new_state, record = train_iteration(state, env, dataset, anchor,
                                            config)
    after = _committed(new_state)
    assert record["aborted"] == 1
    assert new_state.iteration == 2
    assert np.array_equal(after[0], before[0])
    assert np.array_equal(after[1], before[1])
    assert after[2] == before[2]
    assert after[3] == before[3]
    assert after[4] == before[4] == 1
    for key, value in before[5].items():
        assert np.array_equal(after[5][key], value), key


def test_seeded_runs_write_identical_artifacts(grad_triple, grad_dataset,
                                               tmp_path):
    env = grad_triple[0]
    dataset, anchor = grad_dataset
    config = TrainerConfig(n_iterations=3, seed=5, checkpoint_every=2)
    for run in ("a", "b"):
        train(env, dataset, anchor, config, out_dir=tmp_path / run)
    names = ["checkpoint_0002.json", "checkpoint_final.json", "trace.csv"]
    assert sorted(path.name for path in (tmp_path / "a").iterdir()) == names
    for name in names:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name


# (iterations, {file: sha256}) of ``train(env, dataset, anchor,
# TrainerConfig(n_iterations=iterations, seed=0), out_dir=...)`` on the
# inputs of ``_digest_run``. ``gradient`` (36 model parameters) and
# ``tracking`` (8) form A_hat densely; ``sparse`` (144 parameters, 64
# score atoms) solves through the k x k core.
ARTIFACT_DIGESTS = {
    "gradient": (10, {
        "trace.csv": "4a16af88efadb9b75c249b16c68a6efa544c17f06bf649cbb766a74f198f6fb2",
        "checkpoint_final.json": "a3fd0d5a87b0cbf7761754fbb48819c2bb9e832aabb78489ca3d8b539e455f36",
    }),
    "sparse": (10, {
        "trace.csv": "9fdfc83cb57976d60ed84f7c6058e38b12ddcb852ee7811c8c00fdcc51112109",
        "checkpoint_final.json": "c3cabe371aa4876e13946ad1f3410c7acae21b2e06ad6bf9bc412c1d4302f92b",
    }),
    "tracking": (5, {
        "trace.csv": "499b47bd04bf241bd1ac878d6eea037d46daa90150a6c5084a346b5fc4b5dd92",
        "checkpoint_final.json": "6d51b8ed897648acc04d872969de86293dfdf101e4cce916f38371910c7b28b2",
    }),
}


def _digest_run(env_name, out_dir) -> dict:
    """Train the ``ARTIFACT_DIGESTS`` run of ``env_name`` into ``out_dir``
    and return {file: sha256} of its recorded files. The tabular runs use
    a 300-row uniform dataset and the alpha = 0.5 MLE anchor."""
    if env_name == "tracking":
        env, dataset, anchor = _tracking_inputs(seed=0)
    else:
        env = TABULAR_TESTBEDS[env_name]()[0]
        dataset = sample_offline_dataset(env, "uniform", n=300, seed=0)
        anchor = mle_fit(dataset, CategoricalWorldModel.uniform(env),
                         alpha=0.5)
    iterations, digests = ARTIFACT_DIGESTS[env_name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        train(env, dataset, anchor,
              TrainerConfig(n_iterations=iterations, seed=0), out_dir=out_dir)
    return {name: hashlib.sha256((Path(out_dir) / name).read_bytes())
            .hexdigest() for name in digests}


@pytest.mark.parametrize("env_name", sorted(ARTIFACT_DIGESTS))
def test_seeded_run_artifacts_match_recorded_digests(env_name, tmp_path):
    """Guards byte-reproducibility across refactors: the trace and the final
    checkpoint of a short seeded run hash to recorded constants. A change
    meant to alter the numbers updates ``ARTIFACT_DIGESTS``, with a line in
    CHANGES.md saying why."""
    assert _digest_run(env_name, tmp_path) == ARTIFACT_DIGESTS[env_name][1]


@pytest.mark.parametrize("threads", ["1", None])
def test_core_route_artifacts_match_at_any_blas_thread_count(threads,
                                                             tmp_path):
    """The ``sparse`` run, in a fresh process with OPENBLAS_NUM_THREADS=1
    and with no thread variable set (the library's default count), hashes
    to its recorded digests: every step of a solve is a QR or a matrix
    product, whose bits do not depend on the thread count. Verified on a
    2-core machine only."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                          "OMP_NUM_THREADS")}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    here = Path(__file__).resolve().parent
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(here), str(Path(stackmbrl.__file__).parents[1]),
                      os.environ.get("PYTHONPATH"))))
    code = ("import json, sys\n"
            "from test_trainer import _digest_run\n"
            "print(json.dumps(_digest_run('sparse', sys.argv[1])))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ARTIFACT_DIGESTS["sparse"][1]


@pytest.mark.parametrize("field, value, match", [
    ("ridge", 0.0, "ridge"), ("ridge", np.nan, "ridge"),
    ("epsilon", np.nan, "epsilon"), ("clip", np.nan, "clip"),
    ("lam_init", np.nan, "lam_init"),
    ("rates.decay_power", np.nan, "decay_power"),
    ("rates.policy", np.nan, "rates")])
def test_config_rejects_a_bad_value(field, value, match):
    """A config that would only fail inside the iterations is refused at
    construction: the curvature factors need ridge > 0, and NaN fails every
    sign check, the rates' too when their ordering is not enforced."""
    with pytest.raises(ValueError, match=match):
        if field.startswith("rates."):
            LearningRates(enforce_ordering=False,
                          **{field.removeprefix("rates."): value})
        else:
            TrainerConfig(**{field: value})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("env_name", ["gradient", "tracking"])
def test_checkpoint_round_trip(env_name, tracking_setup, grad_triple,
                               grad_dataset, tmp_path):
    """The players and the critic, linear or tabular, come back as saved."""
    if env_name == "tracking":
        env, dataset, anchor = tracking_setup
    else:
        env, (dataset, anchor) = grad_triple[0], grad_dataset
    config = TrainerConfig(n_iterations=2, seed=1, rollouts_per_iter=8)
    state, _ = train(env, dataset, anchor, config)
    save_checkpoint(state, tmp_path / "ckpt.json")
    loaded = load_checkpoint(tmp_path / "ckpt.json", env)
    assert type(loaded["critic"]) is type(state.critic)
    assert loaded["iteration"] == state.iteration == 2
    assert loaded["lam"] == state.lam
    assert np.array_equal(loaded["policy"].params.values,
                          state.policy.params.values)
    assert np.array_equal(loaded["model"].params.values,
                          state.model.params.values)
    assert loaded["critic"].to_dict() == state.critic.to_dict()


@pytest.mark.parametrize("part, edit, message", [
    ("policy", lambda d: d.pop("values"), "policy: missing key(s) values"),
    ("critic", lambda d: d.update(extra=1), "critic: unknown key(s) extra"),
    ("model", None, "model: expected a JSON object"),
], ids=["missing-key", "unknown-key", "not-an-object"])
def test_checkpoint_part_keys_are_checked_by_name(part, edit, message,
                                                  grad_triple, grad_dataset,
                                                  tmp_path):
    env, (dataset, anchor) = grad_triple[0], grad_dataset
    config = TrainerConfig(n_iterations=1, seed=1, rollouts_per_iter=8)
    path = tmp_path / "ckpt.json"
    save_checkpoint(train(env, dataset, anchor, config)[0], path)
    payload = json.loads(path.read_text())
    if edit is None:
        payload[part] = [1]
    else:
        edit(payload[part])
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as err:
        load_checkpoint(path, env)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_updates_abort_and_keep_committed_parameters(
        tracking_setup):
    env, dataset, anchor = tracking_setup
    config = TrainerConfig(seed=0, n_iterations=12, dynamics="naive")
    with pytest.warns(UserWarning, match="aborted"):
        state, trace = train(env, dataset, anchor, config)
    aborted = column(trace, "aborted")
    assert state.iteration == len(trace.rows) == 12
    assert aborted.any()
    assert np.isfinite(state.policy.weights).all()
    assert np.isfinite(state.model.weights).all()
    assert np.isfinite(state.model.log_std).all()
    assert np.isfinite(column(trace, "kl")).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_model_with_non_finite_dataset_kl_is_never_committed():
    """``stackmbrl train --env tracking --seed 105``: iteration 5's model
    step keeps every parameter finite but sends the reward log-std to about
    -3.7e4, where the dataset KL is nan. That iteration aborts instead of
    committing the model."""
    env, dataset, anchor = _tracking_inputs(seed=105)
    with pytest.warns(UserWarning, match="non-finite dataset KL"):
        state, trace = train(env, dataset, anchor,
                             TrainerConfig(seed=105, n_iterations=7))
    assert column(trace, "aborted")[5] == 1
    assert np.isfinite(column(trace, "kl")).all()
    assert np.isfinite(dataset_kl(dataset, state.model, anchor))


class _LogProbFailsAfter:
    """Wraps a model so its log-densities turn non-finite after ``n``
    batched calls, one per step, while its samples stay finite."""

    def __init__(self, model, n):
        self.model, self.n = model, n

    def samples(self, states, actions, normals):
        return self.model.samples(states, actions, normals)

    def log_probs(self, states, actions, outcomes):
        self.n -= 1
        logp = self.model.log_probs(states, actions, outcomes)
        return logp if self.n >= 0 else np.full_like(logp, -np.inf)


class _LogProbFailsAt:
    """Wraps a model so its log-density is -inf at one state vector."""

    def __init__(self, model, state):
        self.model, self.state = model, state

    def samples(self, states, actions, normals):
        return self.model.samples(states, actions, normals)

    def log_probs(self, states, actions, outcomes):
        logp = self.model.log_probs(states, actions, outcomes)
        return np.where((states == self.state).all(axis=-1), -np.inf, logp)


def test_rollouts_truncate_at_non_finite_model_log_prob(tracking_setup):
    env, dataset, anchor = tracking_setup
    policy = DiagGaussianPolicy.zeros(env.state_dim, env.action_dim)
    batch = collect_rollouts(env, policy, _LogProbFailsAfter(anchor, 2),
                             dataset, n_rollouts=1, length=5, seed=0)
    assert (batch["lengths"] < 5).any()
    assert batch["lengths"].tolist() == [2]
    assert np.isfinite(batch["logp_model"]).all()
    with pytest.raises(SamplingError):
        collect_rollouts(env, policy, _LogProbFailsAfter(anchor, 0), dataset,
                         n_rollouts=1, length=5, seed=0)


def test_a_truncated_row_leaves_the_other_rows_draws(tracking_setup):
    """Row 1's model log-density turns -inf at its third state. Each row
    draws a fixed block of normals, so rows 0, 2 and 3 keep the untruncated
    batch's bits; row 1 keeps its first two steps, then freezes its state
    and pads zero rewards and log-densities."""
    env, dataset, anchor = tracking_setup
    policy = tracking_behavior_policy(env)
    clean = collect_rollouts(env, policy, anchor, dataset, n_rollouts=4,
                             length=5, seed=1)
    assert not (clean["lengths"] < 5).any()
    frozen = clean["states"][1, 2]
    batch = collect_rollouts(env, policy, _LogProbFailsAt(anchor, frozen),
                             dataset, n_rollouts=4, length=5, seed=1)
    assert (batch["lengths"] < 5).any()
    assert batch["lengths"].tolist() == [5, 2, 5, 5]
    for key in ("states", "actions", "rewards", "outcomes", "logp_policy",
                "logp_model"):
        assert np.array_equal(batch[key][[0, 2, 3]], clean[key][[0, 2, 3]])
        assert np.array_equal(batch[key][1, :2], clean[key][1, :2])
    assert (batch["states"][1, 2:] == frozen).all()
    assert (batch["rewards"][1, 2:] == 0.0).all()
    assert (batch["logp_model"][1, 2:] == 0.0).all()
    assert np.array_equal(batch["logp_policy"][1],
                          policy.log_probs(batch["states"][1],
                                           batch["actions"][1]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_draws_match_the_per_row_reference(seed):
    """On ``tracking``, every batched continuous draw gives the bits of the
    per-row loops in ``reference_samplers``: rollouts with no truncation,
    one critic refit, a behavior dataset, and deployment returns with and
    without noise."""
    env, dataset, anchor = _tracking_inputs(seed)
    policy = tracking_behavior_policy(env)
    batch = collect_rollouts(env, policy, anchor, dataset, n_rollouts=8,
                             length=4, seed=seed)
    assert batch["lengths"].tolist() == [4] * 8
    expected = ref.collect_rollouts(policy, anchor, dataset, 8, 4, seed)
    for key, value in expected.items():
        assert np.array_equal(batch[key], value), key

    transitions = ReplayBuffer(1).with_batch(batch).transitions()
    critic, twin = (LinearCritic(np.zeros(3), np.zeros(2),
                                 np.array([0.3, -0.2])) for _ in range(2))
    critic.fit_epoch(policy, anchor, env.gamma, transitions,
                     np.random.default_rng(seed))
    ref.critic_fit_epoch(twin, policy, anchor, env.gamma, transitions,
                         np.random.default_rng(seed))
    assert critic.to_dict() == twin.to_dict()

    data = rollout_dataset(env, policy, n_episodes=6, seed=seed)
    for got, want in zip((data.states, data.actions, data.rewards,
                          data.next_states),
                         ref.rollout_dataset(env, policy, 6, seed)):
        assert np.array_equal(got, want)

    for noise, returns in zip((0.0, 0.3), episode_returns(
            env, policy, (0.0, 0.3), 12, seed)):
        assert np.array_equal(
            returns,
            ref.episode_returns(env, policy, noise, 12, seed))


def test_robust_evaluate_pairs_clean_and_noisy_streams(tracking_setup,
                                                       grad_triple):
    """Clean and noisy runs share every random stream: with no noise they
    agree bit for bit, the degradation is their difference, and a seed
    repeats the whole dict. A tabular environment has no noisy deployment."""
    env = tracking_setup[0]
    policy = tracking_behavior_policy(env)
    quiet = robust_evaluate(env, policy, 0.0, n_episodes=20, seed=3)
    assert quiet["clean"] == quiet["noisy"]
    assert quiet["degradation"] == 0.0
    noisy = robust_evaluate(env, policy, 0.3, n_episodes=20, seed=3)
    assert noisy["clean"] == quiet["clean"] != noisy["noisy"]
    assert noisy["degradation"] == noisy["clean"] - noisy["noisy"]
    assert robust_evaluate(env, policy, 0.3, n_episodes=20, seed=3) == noisy
    with pytest.raises(TypeError):
        robust_evaluate(grad_triple[0], grad_triple[1], 0.1)


def test_episode_returns_do_not_depend_on_the_episode_count(tracking_setup):
    """Episode e reads row e of one stream's block: 7 and 14 episodes agree
    bit for bit on the first 7, at both noise fractions."""
    env = tracking_setup[0]
    policy = tracking_behavior_policy(env)
    few = episode_returns(env, policy, (0.0, 0.3), 7, seed=4)
    more = episode_returns(env, policy, (0.0, 0.3), 14, seed=4)
    assert np.array_equal(more[:, :7], few)


@pytest.mark.parametrize("n_episodes", [0, -1])
def test_an_episode_count_below_one_is_rejected(tracking_setup, n_episodes):
    env = tracking_setup[0]
    policy = tracking_behavior_policy(env)
    with pytest.raises(ValueError, match="n_episodes"):
        episode_returns(env, policy, (0.0, 0.3), n_episodes)
    with pytest.raises(ValueError, match="n_episodes"):
        robust_evaluate(env, policy, 0.3, n_episodes=n_episodes)


def test_worst_case_return_stays_in_the_ball_and_repeats():
    """On ``gradient`` with a 50-row dataset and the alpha = 0.5 anchor, at
    the benchmark's 2 starts x 12 steps of size 2.0: the returned model lies
    in the ball, the value is its exact return and no higher than the
    anchor's, and a repeated seed gives the same bits."""
    mdp = TABULAR_TESTBEDS["gradient"]()[0]
    dataset = sample_offline_dataset(mdp, "uniform", n=50, seed=0)
    anchor = mle_fit(dataset, CategoricalWorldModel.uniform(mdp), alpha=0.5)
    policy = SoftmaxPolicy.zeros(mdp.num_states, mdp.num_actions)
    epsilon = TrainerConfig().epsilon
    value, model = worst_case_return(mdp, policy, anchor, dataset, epsilon,
                                     n_starts=2, n_steps=12, step_size=2.0,
                                     seed=3)
    assert dataset_kl(dataset, model, anchor) <= epsilon
    assert value == exact_return(mdp, policy, model)
    assert value <= exact_return(mdp, policy, anchor)
    again, again_model = worst_case_return(mdp, policy, anchor, dataset,
                                           epsilon, n_starts=2, n_steps=12,
                                           step_size=2.0, seed=3)
    assert again == value
    assert again_model.logits.tobytes() == model.logits.tobytes()


@pytest.mark.parametrize("name", sorted(TABULAR_TESTBEDS) + ["dirichlet"])
def test_bisection_on_cell_arrays_gives_the_reference_bits(name,
                                                          monkeypatch):
    """``_pulled_into_ball`` bisects on the visited cells' logits alone, yet
    returns the bits of the reference that builds a model and calls
    ``dataset_kl`` per halving: on random models outside the ball, and
    through ``worst_case_return`` at 2 starts x 12 steps of size 2.0. The
    Dirichlet MDP's dataset visits 60 cells, enough for a pairwise sum to
    differ from the running one."""
    if name == "dirichlet":
        mdp, rows = dirichlet_mdp(0, num_states=20), 500
    else:
        mdp, rows = TABULAR_TESTBEDS[name]()[0], 50
    dataset = sample_offline_dataset(mdp, "uniform", n=rows, seed=0)
    anchor = mle_fit(dataset, CategoricalWorldModel.uniform(mdp), alpha=0.5)
    epsilon = TrainerConfig().epsilon
    rng = np.random.default_rng(11)
    for scale in (1.0, 3.0, 10.0):
        model = anchor.with_params(anchor.params.values
                                   + scale * rng.standard_normal(anchor.n_params))
        assert dataset_kl(dataset, model, anchor) > epsilon
        got = trainer._pulled_into_ball(model, anchor, dataset, epsilon)
        want = ref_oracles.pulled_into_ball(model, anchor, dataset, epsilon)
        assert got.logits.tobytes() == want.logits.tobytes()
    args = (mdp, SoftmaxPolicy.zeros(mdp.num_states, mdp.num_actions), anchor,
            dataset, epsilon)
    value, model = worst_case_return(*args, n_starts=2, n_steps=12,
                                     step_size=2.0)
    monkeypatch.setattr(trainer, "_pulled_into_ball",
                        ref_oracles.pulled_into_ball)
    want_value, want_model = worst_case_return(*args, n_starts=2, n_steps=12,
                                               step_size=2.0)
    assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
    assert model.logits.tobytes() == want_model.logits.tobytes()


@pytest.mark.parametrize("name", sorted(TABULAR_TESTBEDS))
def test_worst_case_step_is_the_exact_model_gradient(name,
                                                     enumerated_testbeds):
    """The gradient ``worst_case_return`` steps along, called through its
    ``trainer`` name, equals the enumeration reference's and a central
    difference of the exact return."""
    (mdp, policy, model), reference, _ = enumerated_testbeds[name]
    grad = trainer.exact_return_model_gradient(mdp, policy, model).grad_model
    assert np.abs(grad - reference.grad_model).max() <= 1e-12
    fd = central_difference(
        lambda phi: exact_return(mdp, policy, model.with_params(phi)),
        model.params.values)
    assert np.abs(grad - fd).max() <= 1e-6
