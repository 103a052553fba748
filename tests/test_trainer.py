"""Segment trainer: vanilla preset, seeded artifacts, checkpoints, aborts."""

import hashlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from conftest import dirichlet_mdp

from stackmbrl import estimators, trainer
from stackmbrl.estimators import (dataset_dual_coupling, dataset_kl,
                                  discounted_weights, factors_from_batch,
                                  model_gradient, policy_gradient)
from stackmbrl.mdp import SamplingError
from stackmbrl.models import (CategoricalWorldModel, DiagGaussianPolicy,
                              DiagGaussianWorldModel, mle_fit, rollout_dataset)
from stackmbrl.testbeds import tracking_behavior_policy, tracking_mdp
from stackmbrl.trainer import (_COLLECT_STREAM, _POLICY_STREAM,
                               DYNAMICS_MODES, TrainerConfig,
                               collect_rollouts, initial_state,
                               load_checkpoint, save_checkpoint, train,
                               train_iteration, vanilla_config)
from stackmbrl.woodbury import WoodburySolver, leader_gradient


@pytest.fixture(scope="module")
def tracking_setup():
    """Tracking task with the dataset and anchor ``stackmbrl train`` builds
    for seed 0: 50 behavior episodes and the Gaussian MLE."""
    return _tracking_inputs(seed=0)


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
    log_probs, scores = family.log_probs(*steps), family.scores(*steps)
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
    def refuse(*args, **kwargs):
        raise AssertionError("dense score table built")

    monkeypatch.setattr(estimators, "model_score_table", refuse)
    monkeypatch.setattr(estimators, "policy_score_table", refuse)
    env = grad_triple[0]
    dataset, anchor = grad_dataset
    config = TrainerConfig(seed=2, dynamics=dynamics)
    state = initial_state(env, anchor, config)
    new_state, record = train_iteration(state, env, dataset, anchor, config)
    assert record["aborted"] == 0
    assert new_state.iteration == 1


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("env_name", ["gradient", "tracking", "dirichlet"])
def test_solver_is_backward_stable_on_trainer_factors(env_name, grad_triple,
                                                      grad_dataset,
                                                      monkeypatch):
    """Normwise backward error ||A x - g|| / (||A||_2 ||x|| + ||g||) of
    x = A^{-1} g_phi against the dense factors, over the factors that
    default runs build (seeds 0-4, 4 iterations each). ``gradient`` and
    ``tracking`` have fewer model parameters than score atoms, so the
    solver works in the identity basis; ``dirichlet`` (216 parameters,
    128 atoms) works in the atoms' span."""
    solves = []

    def capture(grad_policy, grad_model, factors, **kwargs):
        solves.append((grad_model, factors))
        return leader_gradient(grad_policy, grad_model, factors, **kwargs)

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
        x = WoodburySolver(factors).solve(grad_model)
        error = np.linalg.norm(dense @ x - grad_model) / (
            np.linalg.norm(dense, 2) * np.linalg.norm(x)
            + np.linalg.norm(grad_model))
        assert error <= 1e-9


def test_iteration_memory_stays_within_one_epochs_factors():
    """The leader update holds one policy epoch's score atoms, coefficient
    matrices and k x k solver caches at a time, O(k * n_phi + k^2): about
    1.3 KB per model parameter at the peak of one iteration, 1.7 KB when
    this test runs first in its process. Full-height factor columns and
    solver caches peaked near 2.6 KB, and two epochs' sets of them near
    5.75 KB."""
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
    assert peak / anchor.n_params <= 3000


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
    grad_policy = policy_gradient(weights, theta_scores)
    grad_model = model_gradient(weights, phi_scores)
    total = grad_policy
    if dynamics != "naive":
        factors = factors_from_batch(
            weights, phi_scores, theta_scores.sum(axis=1), dataset, model,
            anchor, lam, dataset_dual_coupling(dataset, model, anchor),
            dataset_kl(dataset, model, anchor) - config.epsilon,
            np.random.default_rng((3, _POLICY_STREAM, 0, 0)),
            n_step_cols=config.step_columns,
            n_penalty_cols=config.penalty_batch_size, ridge=config.ridge)
        total = leader_gradient(grad_policy, grad_model, factors,
                                use_dual_row=dynamics == "constrained")
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


def test_seeded_runs_write_identical_artifacts(grad_triple, grad_dataset,
                                               tmp_path):
    env = grad_triple[0]
    dataset, anchor = grad_dataset
    config = TrainerConfig(n_iterations=3, seed=5, checkpoint_every=2)
    for run in ("a", "b"):
        train(env, dataset, anchor, config, out_dir=tmp_path / run)
    for name in ("trace.csv", "checkpoint_0002.json", "checkpoint_final.json",
                 "manifest.json"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name


# (iterations, {file: sha256}) of ``train(env, dataset, anchor,
# TrainerConfig(n_iterations=iterations, seed=0), out_dir=...)``.
ARTIFACT_DIGESTS = {
    "gradient": (10, {
        "trace.csv": "5dd61f099eb2745592d0468fbf39241f86aa9e8f0a2a2de050967f1c34947abf",
        "checkpoint_final.json": "bc8a840130ba8c244c57b2592705390f48944ac7e583525d0dbf59dc684ad949",
    }),
    "tracking": (5, {
        "trace.csv": "8c9d8bc00ff3a21539eb934c533402cfad72d06ff0cf649c5c6e255e8d58cd2a",
        "checkpoint_final.json": "0f6c5ac8ea2605e3e2e3ac45e6cd9364360583400f0cad797dc464837adc5f6a",
    }),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("env_name", sorted(ARTIFACT_DIGESTS))
def test_seeded_run_artifacts_match_recorded_digests(env_name, request,
                                                     tmp_path):
    """Guards byte-reproducibility across refactors: the trace and the final
    checkpoint of a short seeded run hash to recorded constants, with the
    BLAS library's default thread count or with one thread. A change meant
    to alter the numbers updates ``ARTIFACT_DIGESTS``, with a line in
    CHANGES.md saying why."""
    if env_name == "gradient":
        env = request.getfixturevalue("grad_triple")[0]
        dataset, anchor = request.getfixturevalue("grad_dataset")
    else:
        env, dataset, anchor = request.getfixturevalue("tracking_setup")
    iterations, digests = ARTIFACT_DIGESTS[env_name]
    train(env, dataset, anchor, TrainerConfig(n_iterations=iterations, seed=0),
          out_dir=tmp_path)
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() \
            == digest, name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_checkpoint_round_trip(tracking_setup, tmp_path):
    env, dataset, anchor = tracking_setup
    config = TrainerConfig(n_iterations=2, seed=1, rollouts_per_iter=8)
    state, _ = train(env, dataset, anchor, config)
    save_checkpoint(state, tmp_path / "ckpt.json")
    loaded = load_checkpoint(
        tmp_path / "ckpt.json",
        DiagGaussianPolicy.zeros(env.state_dim, env.action_dim),
        DiagGaussianWorldModel.zeros(env.state_dim, env.action_dim))
    assert loaded["iteration"] == state.iteration == 2
    assert loaded["lam"] == state.lam
    assert np.array_equal(loaded["policy"].params.values,
                          state.policy.params.values)
    assert np.array_equal(loaded["model"].params.values,
                          state.model.params.values)
    assert loaded["critic"].to_dict() == state.critic.to_dict()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_updates_abort_and_keep_committed_parameters(
        tracking_setup):
    env, dataset, anchor = tracking_setup
    config = TrainerConfig(seed=0, n_iterations=12, dynamics="naive")
    with pytest.warns(UserWarning, match="aborted"):
        state, trace = train(env, dataset, anchor, config)
    aborted = trace.column("aborted")
    assert state.iteration == len(trace) == 12
    assert aborted.any()
    assert np.isfinite(state.policy.weights).all()
    assert np.isfinite(state.model.weights).all()
    assert np.isfinite(state.model.log_std).all()
    assert np.isfinite(trace.column("kl")).all()


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
    assert trace.column("aborted")[5] == 1
    assert np.isfinite(trace.column("kl")).all()
    assert np.isfinite(dataset_kl(dataset, state.model, anchor))


class _LogProbFailsAfter:
    """Wraps a model so its log-density turns non-finite after ``n`` calls,
    while its samples stay finite."""

    def __init__(self, model, n):
        self.model, self.n = model, n

    def sample(self, s, a, rng):
        return self.model.sample(s, a, rng)

    def log_prob(self, s, a, y):
        self.n -= 1
        return self.model.log_prob(s, a, y) if self.n >= 0 else -np.inf


def test_rollouts_truncate_at_non_finite_model_log_prob(tracking_setup):
    env, dataset, anchor = tracking_setup
    policy = DiagGaussianPolicy.zeros(env.state_dim, env.action_dim)
    batch = collect_rollouts(env, policy, _LogProbFailsAfter(anchor, 2),
                             dataset, n_rollouts=1, length=5, seed=0)
    assert batch["truncated"]
    assert batch["lengths"].tolist() == [2]
    assert np.isfinite(batch["logp_model"]).all()
    with pytest.raises(SamplingError):
        collect_rollouts(env, policy, _LogProbFailsAfter(anchor, 0), dataset,
                         n_rollouts=1, length=5, seed=0)
