"""Environment containers, DP oracles, samplers, and the noisy deployment."""

import csv

import numpy as np
import pytest

from conftest import ScriptedRng, dirichlet_mdp

from stackmbrl.mdp import (NoisyDeployment, SamplingError, TabularMdp,
                           _cdf_columns, _draw_categorical_rows,
                           _format_state, _tabular_paths,
                           dp_optimal_policy, dp_values, exact_return,
                           load_transitions_csv, perturb_step,
                           sample_tabular_batch, sample_trajectory,
                           transition_marginal)
from stackmbrl.models import CategoricalWorldModel, SoftmaxPolicy
from stackmbrl.oracles import enumerate_paths
from stackmbrl.testbeds import tracking_mdp

from reference_oracles import (normalized_occupancy, per_step_occupancy,
                               simulation_gap_and_bound)


def save_batch_csv(batch: dict, path) -> None:
    """Write a batch's transition rows (episode, t, s, a, r, s_next,
    logp_policy, logp_model)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "t", "s", "a", "r", "s_next",
                         "logp_policy", "logp_model"])
        n, h = batch["actions"].shape
        for ep in range(n):
            for t in range(h):
                writer.writerow([
                    ep, t,
                    _format_state(batch["states"][ep, t]),
                    _format_state(batch["actions"][ep, t]),
                    repr(float(batch["rewards"][ep, t])),
                    _format_state(batch["states"][ep, t + 1]),
                    repr(float(batch["logp_policy"][ep, t])),
                    repr(float(batch["logp_model"][ep, t])),
                ])


def stationary_values(joint: np.ndarray, outcome_rewards: np.ndarray,
                      outcome_next: np.ndarray, policy_probs: np.ndarray,
                      gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Infinite-horizon discounted (V, Q) under (policy, model), by linear solve."""
    s = joint.shape[0]
    trans = transition_marginal(joint, outcome_next, s)
    r_sa = joint @ outcome_rewards
    p_pi = np.einsum("sa,sau->su", policy_probs, trans)
    r_pi = (policy_probs * r_sa).sum(axis=1)
    v = np.linalg.solve(np.eye(s) - gamma * p_pi, r_pi)
    q = r_sa + gamma * trans @ v
    return v, q


def constant_reward_chain(gamma=0.5, horizon=3):
    """Single state, single action, reward 1 every step."""
    return TabularMdp(transition=np.ones((1, 1, 1)),
                      reward_values=np.array([1.0]),
                      reward_probs=np.ones((1, 1, 1)),
                      init_dist=np.array([1.0]),
                      gamma=gamma, horizon=horizon)


def deterministic_cycle():
    """Three states cycling 0 -> 1 -> 2 -> 0 deterministically, reward = s/2."""
    s_n = 3
    transition = np.zeros((s_n, 1, s_n))
    for s in range(s_n):
        transition[s, 0, (s + 1) % s_n] = 1.0
    reward_probs = np.zeros((s_n, 1, s_n))
    for s in range(s_n):
        reward_probs[s, 0, s] = 1.0  # reward value index == state
    return TabularMdp(transition=transition,
                      reward_values=np.array([0.0, 0.5, 1.0]),
                      reward_probs=reward_probs,
                      init_dist=np.array([1.0, 0.0, 0.0]),
                      gamma=0.9, horizon=4)


# ---------------------------------------------------------------------------
# exact_return
# ---------------------------------------------------------------------------


def test_exact_return_geometric():
    # reward 1 at every step, gamma 0.5, horizon 3: 1 + 0.5 + 0.25
    assert exact_return(constant_reward_chain(), "uniform") == pytest.approx(1.75, abs=1e-12)


def test_exact_return_matches_enumeration(grad_triple):
    mdp, policy, model = grad_triple
    by_paths = sum(prob * (rewards * mdp.gamma ** np.arange(mdp.horizon)).sum()
                   for prob, _, _, _, rewards in enumerate_paths(mdp, policy, model))
    assert exact_return(mdp, policy, model) == pytest.approx(by_paths, abs=1e-12)


def test_exact_return_zero_rewards():
    mdp = constant_reward_chain()
    zero = TabularMdp(transition=mdp.transition, reward_values=np.array([0.0]),
                      reward_probs=mdp.reward_probs, init_dist=mdp.init_dist,
                      gamma=mdp.gamma, horizon=mdp.horizon)
    assert exact_return(zero, "uniform") == 0.0


def test_exact_return_rejects_continuous():
    with pytest.raises(TypeError):
        exact_return(tracking_mdp(), "uniform")


def test_dp_values_against_enumeration(grad_triple):
    mdp, policy, model = grad_triple
    v, q = dp_values(model.probs_all(), model.outcome_rewards,
                     model.outcome_next_states, policy.probs_all(),
                     mdp.gamma, mdp.horizon)
    assert v.shape == (mdp.horizon + 1, mdp.num_states)
    assert np.all(v[-1] == 0.0)
    # V[0][s0] should equal the enumerated relative return from s0
    forced = TabularMdp(transition=mdp.transition, reward_values=mdp.reward_values,
                        reward_probs=mdp.reward_probs,
                        init_dist=np.array([1.0, 0.0, 0.0]),
                        gamma=mdp.gamma, horizon=mdp.horizon)
    by_paths = sum(prob * (rewards * mdp.gamma ** np.arange(mdp.horizon)).sum()
                   for prob, _, _, _, rewards in enumerate_paths(forced, policy, model))
    assert v[0][0] == pytest.approx(by_paths, abs=1e-12)
    # Q is the action-conditional refinement of V
    assert np.allclose((policy.probs_all() * q[0]).sum(axis=1), v[0], atol=1e-12)


def test_stationary_values_solve_bellman(grad_triple):
    mdp, policy, _ = grad_triple
    joint = mdp.joint_outcome_probs()
    out_r, out_s = mdp.outcome_table()
    v, q = stationary_values(joint, out_r, out_s, policy.probs_all(), mdp.gamma)
    assert np.allclose((policy.probs_all() * q).sum(axis=1), v, atol=1e-10)
    # one more backup must be a fixed point
    from stackmbrl.mdp import transition_marginal
    trans = transition_marginal(joint, out_s, mdp.num_states)
    assert np.allclose(q, joint @ out_r + mdp.gamma * trans @ v, atol=1e-10)


def test_dp_optimal_policy_on_obvious_mdp():
    # action 1 pays 1.0 deterministically, action 0 pays 0.0; self loops
    transition = np.zeros((2, 2, 2))
    transition[:, :, 0] = 1.0
    reward_probs = np.zeros((2, 2, 2))
    reward_probs[:, 0, 0] = 1.0
    reward_probs[:, 1, 1] = 1.0
    mdp = TabularMdp(transition=transition, reward_values=np.array([0.0, 1.0]),
                     reward_probs=reward_probs, init_dist=np.array([1.0, 0.0]),
                     gamma=0.9, horizon=5)
    assert dp_optimal_policy(mdp).tolist() == [1, 1]


# ---------------------------------------------------------------------------
# container validation
# ---------------------------------------------------------------------------


def test_tabular_mdp_validation():
    good = constant_reward_chain()
    with pytest.raises(ValueError):
        TabularMdp(transition=np.ones((1, 1, 1)) * 0.5,  # rows don't sum to 1
                   reward_values=good.reward_values, reward_probs=good.reward_probs,
                   init_dist=good.init_dist, gamma=0.5, horizon=3)
    with pytest.raises(ValueError):
        TabularMdp(transition=good.transition, reward_values=np.array([2.0]),
                   reward_probs=good.reward_probs, init_dist=good.init_dist,
                   gamma=0.5, horizon=3)
    with pytest.raises(ValueError):
        TabularMdp(transition=good.transition, reward_values=good.reward_values,
                   reward_probs=good.reward_probs, init_dist=good.init_dist,
                   gamma=1.0, horizon=3)
    with pytest.raises(ValueError):
        TabularMdp(transition=good.transition, reward_values=good.reward_values,
                   reward_probs=good.reward_probs, init_dist=good.init_dist,
                   gamma=0.5, horizon=0)


def test_tabular_save_load_roundtrip(tmp_path, grad_triple):
    mdp, _, _ = grad_triple
    path = tmp_path / "env.json"
    mdp.save(path)
    loaded = TabularMdp.load(path)
    assert np.array_equal(loaded.transition, mdp.transition)
    assert np.array_equal(loaded.reward_probs, mdp.reward_probs)
    assert loaded.gamma == mdp.gamma and loaded.horizon == mdp.horizon


def test_outcome_table_packing(grad_triple):
    mdp, _, _ = grad_triple
    rewards, nexts = mdp.outcome_table()
    k = mdp.num_outcomes
    assert k == mdp.num_reward_values * mdp.num_states
    assert rewards.shape == (k,) and nexts.shape == (k,)
    joint = mdp.joint_outcome_probs()
    assert np.allclose(joint.sum(axis=-1), 1.0, atol=1e-12)
    # marginalizing the joint recovers the factored tables
    r_marg = joint.reshape(3, 2, 2, 3).sum(axis=3)
    s_marg = joint.reshape(3, 2, 2, 3).sum(axis=2)
    assert np.allclose(r_marg, mdp.reward_probs, atol=1e-12)
    assert np.allclose(s_marg, mdp.transition, atol=1e-12)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_batch_deterministic_chain():
    mdp = deterministic_cycle()
    batch = sample_tabular_batch(mdp, "uniform", seed=0)
    assert batch["states"][0].tolist() == [0, 1, 2, 0, 1]
    assert batch["rewards"][0].tolist() == [0.0, 0.5, 1.0, 0.0]
    assert batch["rewards"].shape[1] == 4 \
        and batch["actions"].shape[1] == batch["rewards"].shape[1]


def test_batch_seed_determinism(grad_triple):
    mdp, policy, model = grad_triple
    a = sample_tabular_batch(mdp, policy, model, seed=42)
    b = sample_tabular_batch(mdp, policy, model, seed=42)
    assert np.array_equal(a["states"], b["states"])
    assert np.array_equal(a["actions"], b["actions"])
    assert np.array_equal(a["rewards"], b["rewards"])
    c = sample_tabular_batch(mdp, policy, model, seed=43)
    assert not (np.array_equal(a["states"], c["states"])
                and np.array_equal(a["actions"], c["actions"]))


def test_batch_frequencies_match_occupancy(grad_triple):
    # (t, s, a) frequencies from 1e5 rollouts vs the exact per-step occupancy
    mdp, policy, model = grad_triple
    n = 100_000
    batch = sample_tabular_batch(mdp, policy, model, n=n, seed=7)
    d = per_step_occupancy(mdp, policy, model)
    for t in range(mdp.horizon):
        counts = np.zeros((mdp.num_states, mdp.num_actions))
        np.add.at(counts, (batch["states"][:, t], batch["actions"][:, t]), 1.0)
        freq = counts / n
        sigma = np.sqrt(np.maximum(d[t] * (1 - d[t]), 1e-12) / n)
        assert np.all(np.abs(freq - d[t]) <= 4.0 * sigma + 1e-9), f"step {t}"


def test_batch_seed_bitwise(grad_triple):
    mdp, policy, model = grad_triple
    a = sample_tabular_batch(mdp, policy, model, n=50, seed=5)
    b = sample_tabular_batch(mdp, policy, model, n=50, seed=5)
    for key in a:
        assert np.array_equal(a[key], b[key]), key


def test_batch_rejects_bad_sizes(grad_triple):
    mdp, policy, model = grad_triple
    with pytest.raises(ValueError):
        sample_tabular_batch(mdp, policy, model, n=0)
    with pytest.raises(ValueError):
        sample_tabular_batch(mdp, policy, model, n=3,
                             init_states=np.array([0, 1]))


def test_batch_logps_match_tables(grad_triple):
    mdp, policy, model = grad_triple
    batch = sample_tabular_batch(mdp, policy, model, n=20, seed=1)
    lp = np.log(policy.probs_all())
    lm = np.log(model.probs_all())
    s, a, k = batch["states"][:, :-1], batch["actions"], batch["outcomes"]
    assert np.allclose(batch["logp_policy"], lp[s, a], atol=1e-12)
    assert np.allclose(batch["logp_model"], lm[s, a, k], atol=1e-12)


def test_draw_skips_a_trailing_zero_entry_of_a_short_row():
    """A row summing to 1 - 1e-11, which ``TabularMdp`` accepts, ending in a
    zero: a uniform above the row's sum maps to its last positive entry, as
    ``rng.choice`` maps it, and the zero entry is never drawn."""
    row = [0.5, 0.5 - 1e-11, 0.0]
    mdp = TabularMdp(transition=np.array([[row]] * 3),
                     reward_values=np.array([0.5]),
                     reward_probs=np.ones((3, 1, 1)),
                     init_dist=np.array([1.0, 0.0, 0.0]), gamma=0.9,
                     horizon=1)
    u = 1.0 - 1e-12
    assert _draw_categorical_rows(mdp.joint_outcome_probs()[0],
                                  ScriptedRng(uniform_queue=[[u]])) == [1]
    assert _draw_categorical_rows(np.array([row]),
                                  ScriptedRng(uniform_queue=[[u]])) == [1]


def test_batch_matches_per_row_choice_draws():
    """``sample_tabular_batch`` on a K = 80 MDP (S = 40, A = 3, R = 2),
    with a non-true model, a greedy policy (zero-probability actions) and
    given start states, draws what per-step, per-row ``rng.choice`` draws
    from one generator: all rows' actions, then all rows' outcomes."""
    mdp = dirichlet_mdp(3, 40)
    rng = np.random.default_rng(8)
    model = CategoricalWorldModel.uniform(mdp).with_params(
        rng.normal(scale=2.0, size=mdp.num_states * mdp.num_actions
                   * mdp.num_outcomes))
    greedy = np.zeros((mdp.num_states, mdp.num_actions))
    greedy[np.arange(mdp.num_states), dp_optimal_policy(mdp)] = 1.0
    starts = rng.integers(0, mdp.num_states, size=48)
    batch = sample_tabular_batch(mdp, greedy, model, n=48, seed=21,
                                 init_states=starts)

    joint, loop = model.probs_all(), np.random.default_rng(21)
    states = np.empty((48, mdp.horizon + 1), dtype=np.int64)
    actions, outcomes = np.empty((2, 48, mdp.horizon), dtype=np.int64)
    states[:, 0] = starts
    for t in range(mdp.horizon):
        s = states[:, t]
        actions[:, t] = [loop.choice(mdp.num_actions, p=greedy[i]) for i in s]
        outcomes[:, t] = [loop.choice(mdp.num_outcomes, p=joint[i, a])
                          for i, a in zip(s, actions[:, t])]
        states[:, t + 1] = model.outcome_next_states[outcomes[:, t]]
    s = states[:, :-1]
    assert batch["states"].tolist() == states.tolist()
    assert batch["actions"].tolist() == actions.tolist()
    assert batch["outcomes"].tolist() == outcomes.tolist()
    assert batch["logp_policy"].tolist() == np.log(greedy[s, actions]).tolist()
    assert batch["logp_model"].tolist() == \
        np.log(joint[s, actions, outcomes]).tolist()


def test_column_lookup_edge_cases_in_the_path_loop():
    """Through ``_tabular_paths``: an entry of zero probability inside a
    row, whose CDF repeats the entry before it, is never drawn, not even by
    a uniform equal to that CDF value; the largest uniform below 1 gives an
    index below K; and one-entry rows (K = 1) always give 0."""
    top = np.nextafter(1.0, 0.0)
    u = np.concatenate([np.linspace(0.0, top, 201), [0.5, 0.25, top]])
    n = len(u)
    policy = np.array([[0.25, 0.0, 0.75], [0.5, 0.5, 0.0]])
    joint = np.broadcast_to([0.5, 0.0, 0.5], (2, 3, 3))
    states0 = np.arange(n) % 2
    states, actions, outcomes = _tabular_paths(
        _cdf_columns(policy), _cdf_columns(joint), np.array([0, 1, 1]),
        states0, np.vstack([u, u[::-1]]))
    for s in (0, 1):
        cdf = np.cumsum(policy[s]) / policy[s].sum()
        assert actions[states0 == s, 0].tolist() == \
            cdf.searchsorted(u[states0 == s], side="right").tolist()
    assert not (actions[states0 == 0] == 1).any()
    assert not (actions[states0 == 1] == 2).any()
    assert not (outcomes == 1).any()
    assert actions[-1, 0] == 1 and outcomes[0, 0] == 2  # top's draws
    assert actions[-2, 0] == 2  # state 0, u = 0.25: the repeated value

    one = np.ones((3, 1))
    states, actions, outcomes = _tabular_paths(
        _cdf_columns(one), _cdf_columns(one[:, :, None]), np.array([2]),
        np.array([0, 1, 2]), np.array([[0.0, 0.5, top]] * 6))
    assert actions.tolist() == outcomes.tolist() == [[0, 0, 0]] * 3
    assert states[:, 1:].tolist() == [[2, 2, 2]] * 3


def test_mc_return_within_four_se(grad_triple):
    """Repeated MC return estimates land inside 4 SE of the exact value
    in at least 99% of repetitions."""
    mdp, policy, model = grad_triple
    target = exact_return(mdp, policy, model)
    reps, n = 300, 400
    gammas = mdp.gamma ** np.arange(mdp.horizon)
    hits = 0
    for rep in range(reps):
        batch = sample_tabular_batch(mdp, policy, model, n=n, seed=(100, rep))
        returns = (batch["rewards"] * gammas).sum(axis=1)
        se = returns.std(ddof=1) / np.sqrt(n)
        hits += abs(returns.mean() - target) <= 4.0 * se
    assert hits / reps >= 0.99


# ---------------------------------------------------------------------------
# occupancy
# ---------------------------------------------------------------------------


def test_per_step_occupancy_sums_to_one(grad_triple):
    mdp, policy, model = grad_triple
    d = per_step_occupancy(mdp, policy, model)
    assert d.shape == (mdp.horizon, mdp.num_states, mdp.num_actions)
    assert np.allclose(d.sum(axis=(1, 2)), 1.0, atol=1e-12)
    mix = normalized_occupancy(mdp, policy, model)
    assert mix.sum() == pytest.approx(1.0, abs=1e-12)


def test_occupancy_matches_enumeration(grad_triple):
    mdp, policy, model = grad_triple
    d = per_step_occupancy(mdp, policy, model)
    ref = np.zeros_like(d)
    for prob, states, actions, _, _ in enumerate_paths(mdp, policy, model):
        for t in range(mdp.horizon):
            ref[t, states[t], actions[t]] += prob
    assert np.allclose(d, ref, atol=1e-12)


# ---------------------------------------------------------------------------
# simulation gap and its occupancy-weighted bound
# ---------------------------------------------------------------------------


def random_mdp(rng, s_n=3, a_n=2, r_n=2, horizon=4):
    transition = rng.dirichlet(np.ones(s_n), size=(s_n, a_n))
    reward_probs = rng.dirichlet(np.ones(r_n), size=(s_n, a_n))
    init = rng.dirichlet(np.ones(s_n))
    return TabularMdp(transition=transition,
                      reward_values=np.sort(rng.uniform(0, 1, size=r_n)),
                      reward_probs=reward_probs, init_dist=init,
                      gamma=float(rng.uniform(0.3, 0.95)), horizon=horizon)


def test_simulation_gap_bounded_on_random_instances():
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(120):
        mdp = random_mdp(rng)
        policy = SoftmaxPolicy(rng.standard_normal((3, 2)))
        base = CategoricalWorldModel.from_mdp(mdp)
        live = base.logits > -300.0
        model_b = CategoricalWorldModel(
            base.logits + live * rng.standard_normal(base.logits.shape),
            base.outcome_rewards, base.outcome_next_states)
        gap, bound = simulation_gap_and_bound(mdp, policy, "true", model_b)
        if abs(gap) > bound + 1e-12:
            violations += 1
    assert violations == 0


def test_simulation_gap_zero_for_identical_models(grad_triple):
    mdp, policy, model = grad_triple
    gap, bound = simulation_gap_and_bound(mdp, policy, model, model)
    assert gap == 0.0
    assert bound <= 1e-12


# ---------------------------------------------------------------------------
# noisy deployment
# ---------------------------------------------------------------------------


def test_perturb_step_zero_fraction_identity():
    rng = np.random.default_rng(0)
    s = np.array([0.3, -1.2])
    s_next = np.array([0.9, -0.7])
    out = perturb_step(0.0, s, s_next, rng)
    assert np.array_equal(out, s_next)


def test_perturb_step_moments():
    # displacement 1 in dimension 0 at fraction 0.05: mean s_next, std 0.05
    rng = np.random.default_rng(123)
    s = np.array([0.0])
    s_next = np.array([1.0])
    draws = np.array([perturb_step(0.05, s, s_next, rng)[0]
                      for _ in range(20_000)])
    se_mean = 0.05 / np.sqrt(draws.size)
    assert abs(draws.mean() - 1.0) <= 3.0 * se_mean
    assert abs(draws.std() - 0.05) <= 0.003


def test_perturb_step_zero_displacement_dimension():
    rng = np.random.default_rng(5)
    s = np.array([0.4, 2.0])
    s_next = np.array([0.4, 3.0])  # dimension 0 does not move
    draws = np.array([perturb_step(0.5, s, s_next, rng) for _ in range(100)])
    assert np.all(draws[:, 0] == 0.4)
    assert draws[:, 1].std() > 0.0


def test_perturb_step_rejects_negative_fraction():
    with pytest.raises(ValueError):
        perturb_step(-0.1, np.zeros(1), np.ones(1), np.random.default_rng(0))


def test_noisy_deployment_couples_streams():
    """Clean and noisy runs consume identical randomness, so the fraction-0
    deployment reproduces the bare environment step-for-step."""
    env = tracking_mdp()
    deploy = NoisyDeployment(env, 0.0)
    rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
    noise_rng = np.random.default_rng(99)
    s_a, s_b = env.reset(rng_a), deploy.reset(rng_b)
    assert np.array_equal(s_a, s_b)
    a = np.array([0.3])
    nxt_a, r_a = env.step(s_a, a, rng_a)
    nxt_b, r_b = deploy.step(s_b, a, rng_b, noise_rng)
    assert np.array_equal(nxt_a, nxt_b) and r_a == r_b


# ---------------------------------------------------------------------------
# trajectory CSV round trip
# ---------------------------------------------------------------------------


def test_trajectory_csv_roundtrip(tmp_path, grad_triple):
    mdp, policy, model = grad_triple
    batch = sample_tabular_batch(mdp, policy, model, n=4, seed=11)
    path = tmp_path / "rollouts.csv"
    save_batch_csv(batch, path)
    rows = load_transitions_csv(path)
    assert len(rows) == batch["rewards"].size
    first = rows[0]
    assert first["s"] == int(batch["states"][0, 0])
    assert first["a"] == int(batch["actions"][0, 0])
    assert first["r"] == float(batch["rewards"][0, 0])
    assert first["s_next"] == int(batch["states"][0, 1])


def test_continuous_rollout_dataset_clamps_rewards():
    env = tracking_mdp()
    from stackmbrl.models import rollout_dataset
    from stackmbrl.testbeds import tracking_behavior_policy
    dataset = rollout_dataset(env, tracking_behavior_policy(env), 1, seed=3)
    assert dataset.n == env.horizon
    assert np.array_equal(dataset.states[1:], dataset.next_states[:-1])
    # rewards are clamped on emission
    assert np.all(dataset.rewards >= 0.0) and np.all(dataset.rewards <= 1.0)


def test_sample_trajectory_rejects_a_tabular_environment(grad_triple):
    mdp, policy, model = grad_triple
    with pytest.raises(TypeError, match="sample_tabular_batch"):
        sample_trajectory(mdp, policy, model)


def test_continuous_model_rollout_truncates_on_nonfinite():
    from stackmbrl.models import DiagGaussianPolicy, DiagGaussianWorldModel
    env = tracking_mdp()
    policy = DiagGaussianPolicy.zeros(1, 1)
    model = DiagGaussianWorldModel.zeros(1, 1)
    bad = model.params.values.copy()
    bad[0] = np.nan  # poisoned mean weight
    model = model.with_params(bad)
    with pytest.raises(SamplingError):
        sample_trajectory(env, policy, model=model, seed=0)
