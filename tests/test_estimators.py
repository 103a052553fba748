"""Sampled estimators: advantages, masks, factor assembly, unbiasedness."""

import numpy as np
import pytest

from reference_estimators import (discounted_weights, mc_estimator_stats,
                                  model_gradient, policy_gradient,
                                  psi_gradients)
from reference_oracles import (enumerate_paths, exact_grad_lagrangian_model,
                               fim_hess_j)

from stackmbrl.estimators import (ESTIMATOR_NAMES, dataset_dual_coupling,
                                  dataset_kl, factors_from_batch,
                                  generalized_advantages,
                                  masked_surrogate_gradient,
                                  model_score_table, penalty_curvature,
                                  policy_score_table, ratio_masks)
from stackmbrl.mdp import (_draw_categorical_rows, dp_values,
                           sample_tabular_batch)
from stackmbrl.models import DiagGaussianWorldModel
from stackmbrl.oracles import (central_difference, exact_estimator_targets,
                               exact_expectations, exact_penalty_terms)
from stackmbrl.woodbury import DualRow


# ---------------------------------------------------------------------------
# weights, surrogate gradients
# ---------------------------------------------------------------------------


def test_discounted_weights_geometric():
    w = discounted_weights(np.ones((1, 3)), 0.5)
    assert np.allclose(w, [[1.75, 0.75, 0.25]], atol=1e-15)


def test_psi_gradient_forward_backward_swap(small_triple):
    """Sum_t w_t s_t equals sum_j gamma^j r_j (prefix score sum)_j exactly."""
    mdp, policy, model = small_triple
    batch = sample_tabular_batch(mdp, policy, model, n=64, seed=11)
    weights = discounted_weights(batch["rewards"], mdp.gamma)
    scores = policy.scores(batch["states"][:, :-1], batch["actions"]).dense()
    forward = psi_gradients(weights, scores)
    disc = batch["rewards"] * mdp.gamma ** np.arange(mdp.horizon)
    prefix = scores.cumsum(axis=1)
    backward = np.einsum("nh,nhp->np", disc, prefix)
    assert np.abs(forward - backward).max() <= 1e-12


def test_plain_gradients_average_per_trajectory_terms(small_triple):
    mdp, policy, model = small_triple
    batch = sample_tabular_batch(mdp, policy, model, n=16, seed=5)
    weights = discounted_weights(batch["rewards"], mdp.gamma)
    th = policy.scores(batch["states"][:, :-1], batch["actions"]).dense()
    ph = model.scores(batch["states"][:, :-1], batch["actions"],
                      batch["outcomes"]).dense()
    assert np.allclose(policy_gradient(weights, th),
                       psi_gradients(weights, th).mean(axis=0), atol=1e-15)
    assert np.allclose(model_gradient(weights, ph),
                       psi_gradients(weights, ph).mean(axis=0), atol=1e-15)


def test_dense_score_tables_hold_the_per_row_scores(grad_triple):
    _, policy, model = grad_triple
    pol_table, mod_table = policy_score_table(policy), model_score_table(model)
    assert mod_table.shape == model.logits.shape + (model.n_params,)
    for s, a, k in np.ndindex(model.logits.shape):
        assert np.array_equal(mod_table[s, a, k], model.score(s, a, k))
        assert np.array_equal(pol_table[s, a], policy.score(s, a))


# ---------------------------------------------------------------------------
# advantages
# ---------------------------------------------------------------------------


def test_advantages_with_full_mixing_telescope():
    """zeta=1 collapses to discounted reward-to-go plus boundary values."""
    rng = np.random.default_rng(3)
    n, h, gamma = 5, 6, 0.9
    rewards = rng.uniform(0, 1, size=(n, h))
    values = rng.standard_normal((n, h + 1))
    tail = rng.standard_normal(n)
    adv = generalized_advantages(rewards, values, tail, gamma, zeta=1.0)
    for t in range(h):
        togo = (rewards[:, t:] * gamma ** np.arange(h - t)).sum(axis=1)
        expected = togo + gamma ** (h - t) * tail - values[:, t]
        assert np.allclose(adv[:, t], expected, atol=1e-12)


def test_advantages_zero_inputs_zero_output():
    adv = generalized_advantages(np.zeros((3, 4)), np.zeros((3, 5)),
                                 np.zeros(3), 0.9, zeta=0.7)
    assert np.all(adv == 0.0)


def test_advantages_no_mixing_is_one_step_residual():
    rng = np.random.default_rng(8)
    rewards = rng.uniform(size=(2, 4))
    values = rng.standard_normal((2, 5))
    tail = rng.standard_normal(2)
    adv = generalized_advantages(rewards, values, tail, 0.8, zeta=0.0)
    v_eff = values.copy()
    v_eff[:, 4] = tail
    deltas = rewards + 0.8 * v_eff[:, 1:] - v_eff[:, :-1]
    assert np.allclose(adv, deltas, atol=1e-12)


# ---------------------------------------------------------------------------
# ratio masks
# ---------------------------------------------------------------------------


def test_masks_all_active_on_first_pass():
    logp = np.log(np.random.default_rng(0).uniform(0.1, 1.0, size=(4, 5)))
    adv = np.random.default_rng(1).standard_normal((4, 5))
    assert np.all(ratio_masks(logp, logp, adv, clip=0.2) == 1.0)


def test_masks_drop_overshooting_positive_steps():
    clip = 0.2
    logp_old = np.zeros((1, 1))
    logp_new = np.log([[1.0 + 2 * clip]])
    assert ratio_masks(logp_new, logp_old, np.array([[1.0]]), clip) == 0.0
    assert ratio_masks(logp_new, logp_old, np.array([[-1.0]]), clip) == 1.0


def test_masks_drop_undershooting_negative_steps():
    clip = 0.2
    logp_old = np.zeros((1, 1))
    logp_new = np.log([[1.0 - 2 * clip]])
    assert ratio_masks(logp_new, logp_old, np.array([[-1.0]]), clip) == 0.0
    assert ratio_masks(logp_new, logp_old, np.array([[1.0]]), clip) == 1.0


def test_masks_infinite_clip_keeps_everything():
    rng = np.random.default_rng(2)
    logp_new = rng.standard_normal((6, 3))
    logp_old = rng.standard_normal((6, 3))
    adv = rng.standard_normal((6, 3))
    assert np.all(ratio_masks(logp_new, logp_old, adv, clip=np.inf) == 1.0)


# ---------------------------------------------------------------------------
# masked surrogate gradient
# ---------------------------------------------------------------------------


def test_masked_gradient_reduces_to_plain_estimator(small_triple):
    """Zero critic + full mixing + open masks = the return-weighted score."""
    mdp, policy, model = small_triple
    batch = sample_tabular_batch(mdp, policy, model, n=32, seed=7)
    weights = discounted_weights(batch["rewards"], mdp.gamma)
    scores = policy.scores(batch["states"][:, :-1], batch["actions"])
    n, h = weights.shape
    adv = generalized_advantages(batch["rewards"], np.zeros((n, h + 1)),
                                 np.zeros(n), mdp.gamma, zeta=1.0)
    masks = np.ones((n, h))
    reduced = masked_surrogate_gradient(scores, masks, adv, mdp.gamma)
    assert np.abs(reduced - policy_gradient(weights, scores.dense())).max() \
        <= 1e-12


@pytest.mark.parametrize("family", ["policy", "model", "gaussian"])
def test_masked_gradient_matches_the_dense_step_scores(small_triple, family):
    """The block scatter equals the dense contraction over (n, h, n_params)
    step scores within 1e-13, with cells visited many times."""
    mdp, policy, model = small_triple
    batch = sample_tabular_batch(mdp, policy, model, n=32, seed=13)
    steps = (batch["states"][:, :-1], batch["actions"])
    if family == "policy":
        scores = policy.scores(*steps)
    elif family == "model":
        scores = model.scores(*steps, batch["outcomes"])
    else:
        rng = np.random.default_rng(3)
        gaussian = DiagGaussianWorldModel(rng.standard_normal((2, 3)),
                                          rng.standard_normal(2), 1, 1)
        scores = gaussian.scores(rng.standard_normal((32, mdp.horizon, 1)),
                                 rng.standard_normal((32, mdp.horizon, 1)),
                                 rng.standard_normal((32, mdp.horizon, 2)))
    rng = np.random.default_rng(4)
    masks = (rng.random((32, mdp.horizon)) < 0.7).astype(float)
    adv = rng.standard_normal((32, mdp.horizon - 1))
    got = masked_surrogate_gradient(scores, masks, adv, mdp.gamma)
    weights = masks[:, :-1] * adv * mdp.gamma ** np.arange(mdp.horizon - 1)
    want = np.einsum("nh,nhp->p", weights, scores.dense()[:, :-1]) / 32
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_masked_gradient_zero_when_all_masked(small_triple):
    mdp, policy, model = small_triple
    batch = sample_tabular_batch(mdp, policy, model, n=8, seed=9)
    scores = policy.scores(batch["states"][:, :-1], batch["actions"])
    adv = np.ones((8, mdp.horizon))
    out = masked_surrogate_gradient(scores, np.zeros((8, mdp.horizon)), adv,
                                    mdp.gamma)
    assert np.all(out == 0.0)


def _value_table_for(batch_states, v_steps):
    n, h_plus_1 = batch_states.shape
    return v_steps[np.arange(h_plus_1)[None, :], batch_states]


def test_value_baseline_keeps_estimator_unbiased_enumeration(small_triple):
    """Expectation of the value-baselined surrogate equals the exact gradient."""
    mdp, policy, model = small_triple
    exp = exact_expectations(mdp, policy, model)
    v_steps, _ = dp_values(model.probs_all(), model.outcome_rewards,
                           model.outcome_next_states, policy.probs_all(),
                           mdp.gamma, mdp.horizon)
    acc = np.zeros(policy.n_params)
    for prob, states, actions, outcomes, rewards in enumerate_paths(mdp, policy, model):
        scores = policy.scores(states[None, :-1], actions[None, :])
        values = _value_table_for(states[None, :], v_steps)
        adv = generalized_advantages(rewards[None, :], values, np.zeros(1),
                                     mdp.gamma, zeta=1.0)
        term = masked_surrogate_gradient(scores, np.ones((1, mdp.horizon)),
                                         adv, mdp.gamma)
        acc += prob * term
    assert np.abs(acc - exp.grad_policy).max() <= 1e-10


def test_value_baseline_sampled_mean_and_variance(small_triple):
    """Sampled baselined gradients stay within 4 SE of the exact gradient and
    shrink the per-coordinate variance against the plain estimator."""
    mdp, policy, model = small_triple
    exp = exact_expectations(mdp, policy, model)
    n = 30_000
    batch = sample_tabular_batch(mdp, policy, model, n=n, seed=123)
    weights = discounted_weights(batch["rewards"], mdp.gamma)
    scores = policy.scores(batch["states"][:, :-1], batch["actions"]).dense()
    v_steps, _ = dp_values(model.probs_all(), model.outcome_rewards,
                           model.outcome_next_states, policy.probs_all(),
                           mdp.gamma, mdp.horizon)
    values = _value_table_for(batch["states"], v_steps)
    adv = generalized_advantages(batch["rewards"], values, np.zeros(n),
                                 mdp.gamma, zeta=1.0)
    per_traj = np.einsum("nh,nhp->np", adv * mdp.gamma ** np.arange(mdp.horizon),
                         scores)
    mean = per_traj.mean(axis=0)
    se = per_traj.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(mean - exp.grad_policy) <= 4.0 * se + 1e-12)
    plain = psi_gradients(weights, scores)
    assert per_traj.var(axis=0).sum() < plain.var(axis=0).sum()


# ---------------------------------------------------------------------------
# dataset-side closed forms
# ---------------------------------------------------------------------------


def test_dataset_kl_and_coupling_match_enumeration(small_triple, small_dataset):
    _, _, model = small_triple
    dataset, anchor = small_dataset
    pen = exact_penalty_terms(dataset, model, anchor)
    assert dataset_kl(dataset, model, anchor) == pytest.approx(pen.kl_mean, abs=1e-12)
    coupling = dataset_dual_coupling(dataset, model, anchor)
    assert np.abs(coupling + pen.score_mean).max() <= 1e-12


def test_gaussian_dataset_kl_gradient_matches_coupling():
    """FD of the dataset KL equals the coupling vector for the Gaussian family."""
    rng = np.random.default_rng(12)
    anchor = DiagGaussianWorldModel(rng.standard_normal((2, 3)) * 0.3,
                                    np.log([0.4, 0.7]), state_dim=1, action_dim=1)
    model = DiagGaussianWorldModel(rng.standard_normal((2, 3)) * 0.3,
                                   np.log([0.5, 0.6]), state_dim=1, action_dim=1)
    from stackmbrl.models import OfflineDataset
    states = rng.standard_normal((6, 1))
    actions = rng.standard_normal((6, 1))
    dataset = OfflineDataset(states=states, actions=actions,
                             rewards=rng.uniform(size=6),
                             next_states=rng.standard_normal((6, 1)))
    coupling = dataset_dual_coupling(dataset, model, anchor)
    fd = central_difference(
        lambda phi: dataset_kl(dataset, model.with_params(phi), anchor),
        model.params.values)
    assert np.abs(fd - coupling).max() <= 1e-6


def model_penalty_gradient(weights, phi_scores, dataset, model, anchor, lam):
    """grad_phi of the penalized objective J + lam * E_D[KL(anchor || model)].

    The KL term's gradient is -lam * E_{anchor o D}[score], which is exactly
    ``lam * dataset_dual_coupling``.
    """
    return (model_gradient(weights, phi_scores.dense())
            + lam * dataset_dual_coupling(dataset, model, anchor))


def test_penalized_model_gradient_expectation(small_triple, small_dataset):
    """Enumerated expectation of the penalized estimator equals the exact
    penalized gradient."""
    mdp, policy, model = small_triple
    dataset, anchor = small_dataset
    lam = 0.8
    acc = np.zeros(model.n_params)
    for prob, states, actions, outcomes, rewards in enumerate_paths(mdp, policy, model):
        weights = discounted_weights(rewards[None, :], mdp.gamma)
        ph = model.scores(states[None, :-1], actions[None, :],
                          outcomes[None, :])
        acc += prob * model_penalty_gradient(weights, ph, dataset, model,
                                             anchor, lam)
    target = exact_grad_lagrangian_model(mdp, policy, model, anchor, dataset, lam)
    assert np.abs(acc - target).max() <= 1e-10


# ---------------------------------------------------------------------------
# factor assembly
# ---------------------------------------------------------------------------


def _dual_terms(dataset, model, anchor, epsilon):
    """The exact dataset terms a trainer passes to ``factors_from_batch``."""
    return {"coupling": dataset_dual_coupling(dataset, model, anchor),
            "slope": dataset_kl(dataset, model, anchor) - epsilon}


def _path_batch(model, policy, states, actions, outcomes, rewards, gamma):
    weights = discounted_weights(rewards[None, :], gamma)
    ph = model.scores(states[None, :-1], actions[None, :],
                      outcomes[None, :])
    th = policy.scores(states[None, :-1], actions[None, :])
    return weights, ph, th


def _sampled_batch(mdp, policy, model, n, seed):
    batch = sample_tabular_batch(mdp, policy, model, n=n, seed=seed)
    weights = discounted_weights(batch["rewards"], mdp.gamma)
    ph = model.scores(batch["states"][:, :-1], batch["actions"],
                      batch["outcomes"])
    th = policy.scores(batch["states"][:, :-1], batch["actions"])
    return weights, ph, th


def _factors(weights, ph, th, dataset, model, anchor, lam, epsilon,
             ridge=1e-3):
    """``factors_from_batch`` over the penalty base a trainer builds."""
    base = penalty_curvature(dataset, model, anchor, lam, ridge)
    return factors_from_batch(weights, ph, th, base, lam, DualRow.over(
        base, **_dual_terms(dataset, model, anchor, epsilon)))


def test_factor_columns_use_documented_scalings(small_triple, small_dataset):
    mdp, policy, model = small_triple
    dataset, anchor = small_dataset
    weights, ph, th = _sampled_batch(mdp, policy, model, 2, 31)
    lam = 0.7
    factors = _factors(weights, ph, th, dataset, model, anchor, lam, 0.1)
    m, h = weights.shape
    ph, th_traj = ph.dense(), th.dense().sum(axis=1)
    psi = psi_gradients(weights, ph)
    assert np.allclose(factors.u, psi.T / np.sqrt(m), atol=1e-15)
    assert np.allclose(factors.v, ph.sum(axis=1).T / np.sqrt(m), atol=1e-15)
    assert np.allclose(factors.w, th_traj.T / np.sqrt(m), atol=1e-15)
    assert factors.x.shape[1] == factors.y.shape[1] == m * h
    for i in range(m):
        for t in range(h):
            col = i * h + t
            assert np.allclose(factors.y[:, col], ph[i, t] / np.sqrt(m),
                               atol=1e-15)
            assert np.allclose(factors.x[:, col],
                               ph[i, t] * weights[i, t] / np.sqrt(m),
                               atol=1e-15)
    assert factors.n_atoms == m * h and factors.z.shape == (model.n_params, 0)
    assert factors.lam == lam


def test_step_factor_product_is_the_batch_step_score_product(small_triple,
                                                             small_dataset):
    """XY^T is (1/m) sum over the batch's steps of w_it s_it s_it^T, with
    nothing drawn: the call takes no generator."""
    mdp, policy, model = small_triple
    dataset, anchor = small_dataset
    weights, ph, th = _sampled_batch(mdp, policy, model, 5, 23)
    factors = _factors(weights, ph, th, dataset, model, anchor, 0.4, 0.1)
    dense = ph.dense()
    target = np.einsum("it,itp,itq->pq", weights, dense, dense) / len(weights)
    assert np.abs(factors.x @ factors.y.T - target).max() <= 1e-12


def test_factor_zero_multiplier_zeroes_penalty_columns(small_triple, small_dataset):
    """At lam = 0 the penalty base is exactly ridge * I."""
    _, _, model = small_triple
    dataset, anchor = small_dataset
    base = penalty_curvature(dataset, model, anchor, 0.0, 1e-3)
    assert np.array_equal(base.dense(), 1e-3 * np.eye(model.n_params))
    rhs = np.random.default_rng(0).standard_normal(model.logits.shape)
    cells = np.arange(rhs[..., 0].size)  # every cell of the layout
    assert np.array_equal(base.solve_blocks(cells, rhs.reshape(len(cells), -1)),
                          rhs.reshape(len(cells), -1))


def test_factor_expectation_matches_curvature_surrogate(small_triple, small_dataset):
    """Enumerate every rollout, each a batch of one: E[A_hat] equals the
    exact score-product curvature plus lam times the anchor-averaged score
    product plus the ridge, and E[UW^T] the exact mixed derivative."""
    mdp, policy, model = small_triple
    dataset, anchor = small_dataset
    exp = exact_expectations(mdp, policy, model)
    pen = exact_penalty_terms(dataset, model, anchor)
    n_phi = model.n_params
    lam, ridge = 0.6, 1e-3
    acc = np.zeros((n_phi, n_phi))
    acc_mixed = np.zeros((n_phi, policy.n_params))
    for prob, states, actions, outcomes, rewards in enumerate_paths(mdp, policy, model):
        weights, ph, th = _path_batch(model, policy, states, actions,
                                           outcomes, rewards, mdp.gamma)
        factors = _factors(weights, ph, th, dataset, model, anchor, lam, 0.0,
                           ridge)
        acc += prob * factors.dense()
        acc_mixed += prob * factors.u @ factors.w.T
    target = fim_hess_j(exp) + lam * pen.fim_mean + ridge * np.eye(n_phi)
    assert np.abs(acc - target).max() <= 1e-10
    assert np.abs(acc_mixed - exp.mixed).max() <= 1e-10


def test_penalty_factor_expectation_matches_fim(small_triple, small_dataset):
    """The closed penalty block is lam times the anchor-averaged score
    product, E_{(s,a)~D, k~anchor}[score score^T]."""
    _, _, model = small_triple
    dataset, anchor = small_dataset
    lam, ridge = 0.9, 1e-3
    pen = exact_penalty_terms(dataset, model, anchor)
    base = penalty_curvature(dataset, model, anchor, lam, ridge)
    block = base.dense() - ridge * np.eye(model.n_params)
    assert np.abs(block - lam * pen.fim_mean).max() <= 1e-10


def test_penalty_emissions_match_the_per_row_choice_loop():
    """One CDF lookup draws what ``rng.choice(K, p=row)`` draws row after
    row, zero-probability outcomes and rows that sum to one only up to
    rounding included, and leaves the generator where the loop leaves it."""
    cases = np.random.default_rng(0)
    for seed in range(100):
        logits = cases.standard_normal((64, 9)) * cases.uniform(0.1, 5.0)
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        if seed % 2:
            # zero out outcomes, keeping each row's most likely one
            probs[(cases.random(probs.shape) < 0.4)
                  & (probs < probs.max(axis=1, keepdims=True))] = 0.0
            probs /= probs.sum(axis=1, keepdims=True)
        loop_rng = np.random.default_rng(seed)
        block_rng = np.random.default_rng(seed)
        want = [loop_rng.choice(probs.shape[1], p=row) for row in probs]
        assert np.array_equal(_draw_categorical_rows(probs, block_rng), want)
        assert block_rng.random() == loop_rng.random()


def test_factor_penalty_column_and_exact_dual_terms(small_triple, small_dataset):
    """The dual coupling and slope are the caller's exact dataset terms."""
    mdp, policy, model = small_triple
    dataset, anchor = small_dataset
    weights, ph, th = _sampled_batch(mdp, policy, model, 2, 41)
    eps, lam = 0.3, 0.5
    factors = _factors(weights, ph, th, dataset, model, anchor, lam, eps)
    assert np.array_equal(factors.dual_coupling,
                          dataset_dual_coupling(dataset, model, anchor))
    assert factors.dual.slope == dataset_kl(dataset, model, anchor) - eps


# ---------------------------------------------------------------------------
# Monte-Carlo estimator statistics
# ---------------------------------------------------------------------------


def test_estimator_stats_cover_every_name_and_hit_targets(small_triple, small_dataset):
    mdp, policy, model = small_triple
    dataset, anchor = small_dataset
    lam, eps = 0.6, 0.2
    stats = mc_estimator_stats(mdp, policy, model, dataset, anchor, lam, eps,
                               n_samples=40_000, seed=2024)
    targets = exact_estimator_targets(mdp, policy, model, dataset, anchor,
                                      lam, eps)
    assert set(stats) == set(ESTIMATOR_NAMES) == set(targets)
    total, hits = 0, 0
    for name in ESTIMATOR_NAMES:
        mean, se = stats[name]
        diff = np.abs(mean - targets[name])
        ok = diff <= 4.0 * se + 1e-12
        hits += int(ok.sum())
        total += ok.size
    assert hits / total >= 0.95, f"{hits}/{total} coordinates within 4 SE"


def test_estimator_stats_deterministic(small_triple, small_dataset):
    mdp, policy, model = small_triple
    dataset, anchor = small_dataset
    a = mc_estimator_stats(mdp, policy, model, dataset, anchor, 0.5, 0.1,
                           n_samples=2000, seed=7)
    b = mc_estimator_stats(mdp, policy, model, dataset, anchor, 0.5, 0.1,
                           n_samples=2000, seed=7)
    for name in ESTIMATOR_NAMES:
        assert np.array_equal(a[name][0], b[name][0])
        assert np.array_equal(a[name][1], b[name][1])


def test_constraint_gap_target_at_anchor(small_triple, small_dataset):
    mdp, policy, _ = small_triple
    dataset, anchor = small_dataset
    eps = 0.35
    targets = exact_estimator_targets(mdp, policy, anchor, dataset, anchor,
                                      1.0, eps)
    assert targets["constraint_gap"][0] == pytest.approx(-eps, abs=1e-12)
    assert np.abs(targets["dual_coupling"]).max() <= 1e-12
