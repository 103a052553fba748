"""Exact oracles that only the tests read. The enumeration here visits every
full-horizon path, (A*K)^h per start state, and is the reference the
library's dynamic-programming oracles must match; the rest builds on the
library's oracles. Per softmax cell with probability row p:
hess log P(k) = -(diag(p) - p p^T) for every k, and
hess P(k) / P(k) = score(k) score(k)^T - (diag(p) - p p^T).
"""

from itertools import product

import numpy as np

from stackmbrl.estimators import (dataset_kl, model_score_table,
                                  policy_score_table)
from stackmbrl.mdp import (TabularMdp, _model_tables, _policy_probs,
                           exact_return, transition_marginal)
from stackmbrl.models import CategoricalWorldModel, OfflineDataset, SoftmaxPolicy
from stackmbrl.oracles import (ExactExpectations, exact_expectations,
                               exact_penalty_terms)


def enumerate_paths(mdp: TabularMdp, policy, model):
    """Yield (prob, states, actions, outcomes, rewards) over all full-horizon
    paths with positive probability, in ascending index order."""
    probs = _policy_probs(policy, mdp)
    joint, out_r, out_s = _model_tables(model, mdp)
    h = mdp.horizon
    steps = list(product(range(mdp.num_actions), range(mdp.num_outcomes)))
    for s0 in range(mdp.num_states):
        p0 = mdp.init_dist[s0]
        if p0 == 0.0:
            continue
        for choice in product(steps, repeat=h):
            prob = p0
            states = np.empty(h + 1, dtype=np.int64)
            actions = np.empty(h, dtype=np.int64)
            outcomes = np.empty(h, dtype=np.int64)
            rewards = np.empty(h)
            states[0] = s0
            alive = True
            for t, (a, k) in enumerate(choice):
                s = states[t]
                step_p = probs[s, a] * joint[s, a, k]
                if step_p == 0.0:
                    alive = False
                    break
                prob *= step_p
                actions[t] = a
                outcomes[t] = k
                rewards[t] = out_r[k]
                states[t + 1] = out_s[k]
            if alive:
                yield prob, states, actions, outcomes, rewards


def enumerated_expectations(mdp: TabularMdp, policy: SoftmaxPolicy,
                            model: CategoricalWorldModel
                            ) -> tuple[ExactExpectations, float]:
    """Every ``ExactExpectations`` field accumulated over the enumerated
    paths, and the total path probability."""
    n_theta = policy.n_params
    n_phi = model.n_params
    h = mdp.horizon
    gammas = mdp.gamma ** np.arange(h)

    pol_scores = policy_score_table(policy)
    mod_scores = model_score_table(model)
    fim_blocks = mod_scores[..., :, None] * mod_scores[..., None, :]

    j = 0.0
    total = 0.0
    grad_policy = np.zeros(n_theta)
    grad_model = np.zeros(n_phi)
    mixed = np.zeros((n_phi, n_theta))
    uv = np.zeros((n_phi, n_phi))
    xy = np.zeros((n_phi, n_phi))

    for prob, states, actions, outcomes, rewards in enumerate_paths(mdp, policy, model):
        total += prob
        w = (gammas * rewards)[::-1].cumsum()[::-1]  # w_t = sum_{j >= t} gamma^j r_j
        s_idx, a_idx = states[:-1], actions
        theta_steps = pol_scores[s_idx, a_idx]              # (h, n_theta)
        phi_steps = mod_scores[s_idx, a_idx, outcomes]      # (h, n_phi)
        psi_phi = w @ phi_steps

        j += prob * w[0]
        grad_policy += prob * (w @ theta_steps)
        grad_model += prob * psi_phi
        mixed += prob * np.outer(psi_phi, theta_steps.sum(axis=0))
        uv += prob * np.outer(psi_phi, phi_steps.sum(axis=0))
        xy += prob * np.tensordot(w, fim_blocks[s_idx, a_idx, outcomes], axes=1)

    return ExactExpectations(j=j, grad_policy=grad_policy, grad_model=grad_model,
                             mixed=mixed, uv=uv, xy=xy), total


def _softmax_cov(p: np.ndarray) -> np.ndarray:
    return np.diag(p) - np.outer(p, p)


def second_order_expectations(mdp: TabularMdp, policy: SoftmaxPolicy,
                              model: CategoricalWorldModel) -> tuple:
    """(E[hess_phi Psi], E[sum_t w_t hessP(k_t)/P(k_t)], the same with w_t
    replaced by gamma^t r_t): the exact log-prob Hessian term and the
    substitution errors of the score-product surrogate, by enumeration.
    A step at cell (s, a) touches only that cell's K x K block, so each
    step's block is accumulated alone and the blocks fill the dense
    (n_phi, n_phi) results at the end."""
    s_n, a_n, k_n = model.logits.shape
    n_phi = model.n_params
    h = mdp.horizon
    gammas = mdp.gamma ** np.arange(h)

    mod_probs = model.probs_all()
    mod_scores = model_score_table(model)
    cell_scores = np.empty((s_n, a_n, k_n, k_n))  # each score's own block
    covs = np.empty((s_n, a_n, k_n, k_n))
    for s, a in np.ndindex(s_n, a_n):
        start = (s * a_n + a) * k_n
        cell_scores[s, a] = mod_scores[s, a, :, start:start + k_n]
        covs[s, a] = _softmax_cov(mod_probs[s, a])
    fim_blocks = cell_scores[..., :, None] * cell_scores[..., None, :]

    blocks = np.zeros((3, s_n, a_n, k_n, k_n))  # hess_psi, sub_err, imm_err
    for prob, states, actions, outcomes, rewards in enumerate_paths(mdp, policy, model):
        disc = gammas * rewards
        w = disc[::-1].cumsum()[::-1]  # w_t = sum_{j >= t} gamma^j r_j
        cells = (states[:-1], actions)
        step_covs = covs[cells]                              # (h, K, K)
        excess = fim_blocks[cells + (outcomes,)] - step_covs  # (h, K, K)
        for block, weight, term in ((blocks[0], w, -step_covs),
                                    (blocks[1], w, excess),
                                    (blocks[2], disc, excess)):
            np.add.at(block, cells, (prob * weight)[:, None, None] * term)

    dense = np.zeros((3, n_phi, n_phi))
    for s, a in np.ndindex(s_n, a_n):
        start = (s * a_n + a) * k_n
        dense[:, start:start + k_n, start:start + k_n] = blocks[:, s, a]
    return dense[0], dense[1], dense[2]


def fim_hess_j(exp: ExactExpectations) -> np.ndarray:
    """FIM-substituted hess_phi J (what UV^T - XY^T estimates)."""
    return exp.uv - exp.xy


def hess_j_model(exp: ExactExpectations, hess_psi: np.ndarray) -> np.ndarray:
    """Exact hess_phi J = E[grad Psi grad logP^T + hess Psi]."""
    return exp.uv + hess_psi


def continuation_error(substitution_error: np.ndarray,
                       immediate_error: np.ndarray) -> np.ndarray:
    """Part of the substitution error carried by future rewards."""
    return substitution_error - immediate_error


def penalty_hess_log_mean(dataset: OfflineDataset,
                          model: CategoricalWorldModel) -> np.ndarray:
    """E_{(s,a)~D, k~anchor}[hess_phi log P_phi]: the softmax log-likelihood
    Hessian does not depend on k, so the anchor drops out."""
    _, a_n, k_n = model.logits.shape
    n_phi = model.n_params
    mod_probs = model.probs_all()
    hess_log_mean = np.zeros((n_phi, n_phi))
    for (s, a), count in dataset.cell_counts().items():
        weight = count / dataset.n
        start = (s * a_n + a) * k_n
        cov = _softmax_cov(mod_probs[s, a])
        hess_log_mean[start:start + k_n, start:start + k_n] += weight * (-cov)
    return hess_log_mean


def per_step_occupancy(mdp: TabularMdp, policy, model="true") -> np.ndarray:
    """d[t, s, a]: probability of being at (s, a) at step t, t = 0 .. h-1."""
    probs = _policy_probs(policy, mdp)
    joint, _, out_s = _model_tables(model, mdp)
    trans = transition_marginal(joint, out_s, mdp.num_states)
    d_state = mdp.init_dist.copy()
    rows = []
    for _ in range(mdp.horizon):
        d_sa = d_state[:, None] * probs
        rows.append(d_sa)
        d_state = np.einsum("sa,sau->u", d_sa, trans)
    return np.array(rows)


def normalized_occupancy(mdp: TabularMdp, policy, model="true") -> np.ndarray:
    """Discount-weighted state-action occupancy, normalized to sum to 1."""
    d = per_step_occupancy(mdp, policy, model)
    weights = mdp.gamma ** np.arange(mdp.horizon)
    mix = np.tensordot(weights, d, axes=1)
    return mix / weights.sum()


def simulation_gap_and_bound(mdp: TabularMdp, policy, model_a,
                             model_b) -> tuple[float, float]:
    """Exact value gap between two models and its occupancy-weighted bound.

    Returns (J_a - J_b, bound) with

        bound = (1 / (1 - gamma)^2) * E_{d_a}[TV(P_a(.|s,a), P_b(.|s,a))],

    where d_a is the discount-normalized occupancy under (policy, model_a)
    and TV is the half-L1 distance over the joint (r, s') outcome alphabet.
    Both sides are computed exactly, no sampling.
    """
    gap = exact_return(mdp, policy, model_a) - exact_return(mdp, policy, model_b)
    joint_a, _, _ = _model_tables(model_a, mdp)
    joint_b, _, _ = _model_tables(model_b, mdp)
    occupancy = normalized_occupancy(mdp, policy, model_a)
    tv = 0.5 * np.abs(joint_a - joint_b).sum(axis=2)
    bound = float((occupancy * tv).sum()) / (1.0 - mdp.gamma) ** 2
    return float(gap), bound


def exact_lagrangian(mdp: TabularMdp, policy: SoftmaxPolicy,
                     model: CategoricalWorldModel,
                     anchor: CategoricalWorldModel, dataset: OfflineDataset,
                     lam: float, epsilon: float) -> float:
    """L = J + lambda (E_D[KL(anchor || model)] - epsilon), both parts exact."""
    gap = dataset_kl(dataset, model, anchor) - epsilon
    return exact_return(mdp, policy, model) + lam * gap


def exact_grad_lagrangian_model(mdp: TabularMdp, policy: SoftmaxPolicy,
                                model: CategoricalWorldModel,
                                anchor: CategoricalWorldModel,
                                dataset: OfflineDataset, lam: float) -> np.ndarray:
    """Exact grad_phi L = grad_phi J - lambda E_{anchor o D}[score]."""
    exp = exact_expectations(mdp, policy, model)
    pen = exact_penalty_terms(dataset, model, anchor)
    return exp.grad_model - lam * pen.score_mean


def exact_constrained_hessian(mdp: TabularMdp, policy: SoftmaxPolicy,
                              model: CategoricalWorldModel,
                              anchor: CategoricalWorldModel,
                              dataset: OfflineDataset, lam: float) -> np.ndarray:
    """FIM-substituted hess_phi L: the exact target of UV^T - XY^T + D -
    ridge * I, with D the trainer's closed-form penalty base."""
    exp = exact_expectations(mdp, policy, model)
    pen = exact_penalty_terms(dataset, model, anchor)
    return fim_hess_j(exp) + lam * pen.fim_mean


def pulled_into_ball(model: CategoricalWorldModel,
                     anchor: CategoricalWorldModel, dataset: OfflineDataset,
                     epsilon: float, halvings: int = 60) -> CategoricalWorldModel:
    """``trainer._pulled_into_ball`` as a plain line search: every halving
    builds the interpolated model and calls ``dataset_kl`` on it."""
    def at(t: float) -> CategoricalWorldModel:
        logits = anchor.logits + t * (model.logits - anchor.logits)
        return CategoricalWorldModel(logits, anchor.outcome_rewards,
                                     anchor.outcome_next_states)

    if dataset_kl(dataset, model, anchor) <= epsilon:
        return model
    lo, hi = 0.0, 1.0
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        if dataset_kl(dataset, at(mid), anchor) <= epsilon:
            lo = mid
        else:
            hi = mid
    return at(lo)
