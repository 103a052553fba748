"""Enumeration oracles: exact expectations and their finite-difference twins."""

import numpy as np
import pytest

from stackmbrl.estimators import dataset_kl
from stackmbrl.mdp import TabularMdp, exact_return, per_step_occupancy
from stackmbrl.models import CategoricalWorldModel, OfflineDataset, SoftmaxPolicy
from stackmbrl.oracles import (_softmax_cov, central_difference,
                               central_difference_mixed, enumerate_paths,
                               exact_expectations, exact_penalty_terms,
                               mixed_return_fn, model_return_fn,
                               policy_return_fn)

from reference_oracles import (continuation_error, exact_constrained_hessian,
                               exact_grad_lagrangian_model, exact_lagrangian,
                               hess_j_model)

KL_EXAMPLE = 0.14384103622589042


def occupancy_immediate_error(mdp: TabularMdp, policy: SoftmaxPolicy,
                              model: CategoricalWorldModel) -> np.ndarray:
    """Occupancy-weighted route to the immediate-reward substitution error.

    sum_t gamma^t sum_{s,a} d_t(s,a) sum_k r(k) hess_phi P(k|s,a); must agree
    with ``ExactExpectations.immediate_error`` (dual-route identity).
    """
    s_n, a_n, k_n = model.logits.shape
    n_phi = model.n_params
    d = per_step_occupancy(mdp, policy, model)
    probs = model.probs_all()
    out = np.zeros((n_phi, n_phi))
    rewards = model.outcome_rewards
    for s, a in np.ndindex(s_n, a_n):
        p = probs[s, a]
        start = (s * a_n + a) * k_n
        sc = np.eye(k_n) - p  # row k: score of outcome k on the cell block
        # sum_k r(k) hess P(k), with hess P(k) = P(k) * (score score^T - cov)
        block = (np.einsum("k,ki,kj->ij", rewards * p, sc, sc)
                 - (rewards @ p) * _softmax_cov(p))
        weight = (d[:, s, a] * mdp.gamma ** np.arange(mdp.horizon)).sum()
        out[start:start + k_n, start:start + k_n] += weight * block
    return out


def constant_reward_mdp() -> TabularMdp:
    """Every transition pays 0.7 regardless of the model, so J is flat in phi."""
    transition = np.array([
        [[0.6, 0.4], [0.3, 0.7]],
        [[0.5, 0.5], [0.8, 0.2]],
    ])
    reward_probs = np.zeros((2, 2, 1))
    reward_probs[:, :, 0] = 1.0
    return TabularMdp(transition=transition, reward_values=np.array([0.7]),
                      reward_probs=reward_probs, init_dist=np.array([0.5, 0.5]),
                      gamma=0.8, horizon=3)


def two_outcome_world() -> tuple[TabularMdp, CategoricalWorldModel,
                                 CategoricalWorldModel, OfflineDataset]:
    """One cell, two outcomes: anchor (.5, .5) against model (.25, .75)."""
    transition = np.ones((1, 1, 1))
    reward_probs = np.array([[[0.5, 0.5]]])
    mdp = TabularMdp(transition=transition, reward_values=np.array([0.0, 1.0]),
                     reward_probs=reward_probs, init_dist=np.array([1.0]),
                     gamma=0.9, horizon=1)
    anchor = CategoricalWorldModel(np.log([[[0.5, 0.5]]]),
                                   np.array([0.0, 1.0]), np.array([0, 0]))
    model = CategoricalWorldModel(np.log([[[0.25, 0.75]]]),
                                  np.array([0.0, 1.0]), np.array([0, 0]))
    dataset = OfflineDataset(states=np.array([0, 0]), actions=np.array([0, 0]),
                             rewards=np.array([0.0, 1.0]),
                             next_states=np.array([0, 0]))
    return mdp, anchor, model, dataset


# ---------------------------------------------------------------------------
# finite-difference helpers
# ---------------------------------------------------------------------------


def test_central_difference_exact_on_quadratic():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    a = a + a.T
    b = rng.standard_normal(4)
    x = rng.standard_normal(4)
    grad = central_difference(lambda v: 0.5 * v @ a @ v + b @ v, x)
    assert np.abs(grad - (a @ x + b)).max() <= 1e-8


def test_central_difference_mixed_exact_on_bilinear():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((3, 5))
    u = rng.standard_normal(3)
    v = rng.standard_normal(5)
    out = central_difference_mixed(lambda r, c: r @ m @ c, u, v)
    assert np.abs(out - m).max() <= 1e-7


# ---------------------------------------------------------------------------
# path enumeration
# ---------------------------------------------------------------------------


def test_enumerated_paths_form_a_distribution(small_triple):
    mdp, policy, model = small_triple
    total = 0.0
    expected_return = 0.0
    count = 0
    prev_key = None
    for prob, states, actions, outcomes, rewards in enumerate_paths(mdp, policy, model):
        assert prob > 0.0
        total += prob
        expected_return += prob * (rewards * mdp.gamma ** np.arange(mdp.horizon)).sum()
        key = (states[0],) + tuple(zip(actions, outcomes))
        if prev_key is not None:
            assert key > prev_key  # deterministic ascending-index order
        prev_key = key
        count += 1
    assert total == pytest.approx(1.0, abs=1e-12)
    assert count == 2 * (2 * 4) ** 3
    assert expected_return == pytest.approx(exact_return(mdp, policy, model), abs=1e-12)


def test_enumerate_paths_skips_impossible_branches():
    transition = np.array([[[1.0, 0.0], [0.0, 1.0]]] * 2)
    reward_probs = np.ones((2, 2, 1))
    mdp = TabularMdp(transition=transition, reward_values=np.array([0.5]),
                     reward_probs=reward_probs, init_dist=np.array([1.0, 0.0]),
                     gamma=0.9, horizon=2)
    policy = SoftmaxPolicy.zeros(2, 2)
    model = CategoricalWorldModel.from_mdp(mdp)
    paths = list(enumerate_paths(mdp, policy, model))
    # 1 start state, 2 actions per step, 1 feasible outcome each -> 4 paths
    # (floored logits leave ~1e-304 dust; those branches survive but are tiny)
    heavy = [p for p in paths if p[0] > 1e-100]
    assert len(heavy) == 4
    assert sum(p[0] for p in paths) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# first-order expectations
# ---------------------------------------------------------------------------


def test_exact_policy_gradient_matches_finite_difference(small_triple):
    mdp, policy, model = small_triple
    exp = exact_expectations(mdp, policy, model)
    fd = central_difference(policy_return_fn(mdp, policy, model),
                            policy.params.values)
    assert np.abs(exp.grad_policy - fd).max() <= 1e-6
    assert exp.j == pytest.approx(exact_return(mdp, policy, model), abs=1e-12)
    assert exp.total_prob == pytest.approx(1.0, abs=1e-12)


def test_policy_gradient_gauge_symmetry(small_triple):
    """Adding a constant to one state's logits never changes the policy, so
    the gradient must sum to zero along each state's row."""
    mdp, policy, model = small_triple
    exp = exact_expectations(mdp, policy, model)
    rows = exp.grad_policy.reshape(policy.logits.shape)
    assert np.abs(rows.sum(axis=1)).max() <= 1e-12


def test_exact_model_gradient_matches_finite_difference(small_triple):
    mdp, policy, model = small_triple
    exp = exact_expectations(mdp, policy, model)
    fd = central_difference(model_return_fn(mdp, policy, model),
                            model.params.values)
    assert np.abs(exp.grad_model - fd).max() <= 1e-6


def test_model_gradient_vanishes_for_constant_rewards():
    mdp = constant_reward_mdp()
    policy = SoftmaxPolicy(np.array([[0.4, -0.2], [0.1, 0.3]]))
    rng = np.random.default_rng(5)
    base = CategoricalWorldModel.from_mdp(mdp)
    model = base.with_params(base.params.values + 0.3 * rng.standard_normal(base.n_params))
    exp = exact_expectations(mdp, policy, model)
    assert np.abs(exp.grad_model).max() <= 1e-12
    assert exp.j == pytest.approx(0.7 * (1 + 0.8 + 0.64), abs=1e-12)


# ---------------------------------------------------------------------------
# second-order expectations
# ---------------------------------------------------------------------------


def test_mixed_derivative_matches_four_point_stencil(small_triple):
    mdp, policy, model = small_triple
    exp = exact_expectations(mdp, policy, model)
    fd = central_difference_mixed(mixed_return_fn(mdp, policy, model),
                                  model.params.values, policy.params.values)
    assert np.abs(exp.mixed - fd).max() <= 1e-5


def test_single_step_mixed_is_an_outer_product():
    """With horizon 1 the mixed derivative collapses to a rank-<=1 matrix of
    reward-weighted score outer products; check it term by term."""
    transition = np.array([
        [[0.7, 0.3], [0.4, 0.6]],
        [[0.5, 0.5], [0.2, 0.8]],
    ])
    reward_probs = np.array([
        [[0.6, 0.4], [0.3, 0.7]],
        [[0.8, 0.2], [0.45, 0.55]],
    ])
    mdp = TabularMdp(transition=transition, reward_values=np.array([0.1, 0.8]),
                     reward_probs=reward_probs, init_dist=np.array([0.6, 0.4]),
                     gamma=0.9, horizon=1)
    policy = SoftmaxPolicy(np.array([[0.2, -0.3], [-0.1, 0.4]]))
    model = CategoricalWorldModel.from_mdp(mdp)
    exp = exact_expectations(mdp, policy, model)
    manual = np.zeros_like(exp.mixed)
    for s in range(2):
        for a in range(2):
            for k in range(model.num_outcomes):
                p = mdp.init_dist[s] * policy.probs(s)[a] * model.probs(s, a)[k]
                if p == 0.0:
                    continue
                manual += p * model.outcome_rewards[k] * np.outer(
                    model.score(s, a, k), policy.score(s, a))
    assert np.abs(exp.mixed - manual).max() <= 1e-12


def test_model_hessian_matches_finite_difference(small_triple):
    mdp, policy, model = small_triple

    def grad(phi):
        return exact_expectations(mdp, policy, model.with_params(phi)).grad_model

    fd_hess = central_difference(grad, model.params.values)
    exact_hess = hess_j_model(exact_expectations(mdp, policy, model))
    assert np.abs(exact_hess - fd_hess).max() <= 1e-6


def test_hessian_decomposition_identities(small_triple):
    mdp, policy, model = small_triple
    exp = exact_expectations(mdp, policy, model)
    # substitution error is exactly the gap between the true Hessian and its
    # score-product surrogate
    gap = hess_j_model(exp) - exp.fim_hess_j
    assert np.abs(gap - exp.substitution_error).max() <= 1e-12
    assert np.abs(exp.substitution_error
                  - exp.immediate_error - continuation_error(exp)).max() <= 1e-12
    # both second-order matrices are symmetric
    assert np.abs(exp.uv - exp.uv.T).max() <= 1e-12
    assert np.abs(exp.xy - exp.xy.T).max() <= 1e-12


def test_immediate_error_dual_route_identity(small_triple):
    mdp, policy, model = small_triple
    exp = exact_expectations(mdp, policy, model)
    via_occupancy = occupancy_immediate_error(mdp, policy, model)
    assert np.abs(exp.immediate_error - via_occupancy).max() <= 1e-12


def test_layered_mdp_has_exact_score_product_hessian(sparse_triple):
    """Constant per-cell continuation values kill the substitution error."""
    mdp, policy, model = sparse_triple
    exp = exact_expectations(mdp, policy, model)
    assert np.abs(exp.substitution_error).max() <= 1e-8
    assert np.abs(hess_j_model(exp) - exp.fim_hess_j).max() <= 1e-8
    # the ingredients themselves are far from zero
    assert np.abs(exp.xy).max() > 1e-3


# ---------------------------------------------------------------------------
# dataset-side penalty terms
# ---------------------------------------------------------------------------


def test_kl_to_anchor_frozen_example():
    _, anchor, model, dataset = two_outcome_world()
    assert dataset_kl(dataset, model, anchor) == pytest.approx(
        KL_EXAMPLE, abs=1e-12)
    assert dataset_kl(dataset, anchor, anchor) == 0.0


def test_penalty_terms_enumeration(small_triple):
    mdp, _, model = small_triple
    dataset, _ = _small_dataset_and_anchor(mdp)
    anchor = CategoricalWorldModel.from_mdp(mdp)
    pen = exact_penalty_terms(dataset, model, anchor)
    k_n = model.num_outcomes
    counts = dataset.cell_counts()
    score_mean = np.zeros(model.n_params)
    fim_mean = np.zeros((model.n_params, model.n_params))
    kl_mean = 0.0
    for (s, a), count in counts.items():
        w = count / dataset.n
        pbar = anchor.probs(s, a)
        p = model.probs(s, a)
        for k in range(k_n):
            sc = model.score(s, a, k)
            score_mean += w * pbar[k] * sc
            fim_mean += w * pbar[k] * np.outer(sc, sc)
        kl_mean += w * float(np.sum(pbar * (np.log(pbar) - np.log(p))))
    assert np.abs(pen.score_mean - score_mean).max() <= 1e-12
    assert np.abs(pen.fim_mean - fim_mean).max() <= 1e-12
    assert pen.kl_mean == pytest.approx(kl_mean, abs=1e-12)
    assert pen.kl_mean == pytest.approx(dataset_kl(dataset, model, anchor),
                                        abs=1e-12)


def _small_dataset_and_anchor(mdp):
    from stackmbrl.models import mle_fit, sample_offline_dataset
    dataset = sample_offline_dataset(mdp, "uniform", n=200, seed=3)
    anchor = mle_fit(dataset, CategoricalWorldModel.uniform(mdp), alpha=0.5)
    return dataset, anchor


def test_penalty_gradient_is_minus_kl_gradient(small_triple):
    """grad_phi E_D[KL(anchor || model)] = -score_mean, checked by FD."""
    mdp, _, model = small_triple
    dataset, anchor = _small_dataset_and_anchor(mdp)
    pen = exact_penalty_terms(dataset, model, anchor)
    fd = central_difference(
        lambda phi: dataset_kl(dataset, model.with_params(phi), anchor),
        model.params.values)
    assert np.abs(fd + pen.score_mean).max() <= 1e-6


def test_anchor_point_penalty_terms(small_triple):
    """At model == anchor the score mean vanishes and fim = -hess_log."""
    mdp, _, _ = small_triple
    dataset, anchor = _small_dataset_and_anchor(mdp)
    pen = exact_penalty_terms(dataset, anchor, anchor)
    assert np.abs(pen.score_mean).max() <= 1e-12
    assert pen.kl_mean <= 1e-12
    assert np.abs(pen.fim_mean + pen.hess_log_mean).max() <= 1e-12


# ---------------------------------------------------------------------------
# Lagrangian assembly
# ---------------------------------------------------------------------------


def test_lagrangian_multiplier_slope_at_anchor(small_triple):
    """At model == anchor the constraint gap is exactly -epsilon."""
    mdp, policy, _ = small_triple
    dataset, anchor = _small_dataset_and_anchor(mdp)
    eps = 0.25
    j = exact_return(mdp, policy, anchor)
    for lam in (0.0, 0.7, 2.0):
        val = exact_lagrangian(mdp, policy, anchor, anchor, dataset, lam, eps)
        assert val == pytest.approx(j - lam * eps, abs=1e-12)


def test_lagrangian_model_gradient_matches_finite_difference(small_triple):
    mdp, policy, model = small_triple
    dataset, anchor = _small_dataset_and_anchor(mdp)
    lam, eps = 0.8, 0.1
    grad = exact_grad_lagrangian_model(mdp, policy, model, anchor, dataset, lam)
    fd = central_difference(
        lambda phi: exact_lagrangian(mdp, policy, model.with_params(phi),
                                     anchor, dataset, lam, eps),
        model.params.values)
    assert np.abs(grad - fd).max() <= 1e-6


def test_constrained_hessian_assembly(small_triple):
    mdp, policy, model = small_triple
    dataset, anchor = _small_dataset_and_anchor(mdp)
    lam = 0.6
    hess = exact_constrained_hessian(mdp, policy, model, anchor, dataset, lam)
    exp = exact_expectations(mdp, policy, model)
    pen = exact_penalty_terms(dataset, model, anchor)
    assert np.abs(hess - (exp.fim_hess_j + lam * pen.fim_mean)).max() <= 1e-12
    assert np.abs(hess - hess.T).max() <= 1e-12
