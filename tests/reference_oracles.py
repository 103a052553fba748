"""Exact oracles that only the tests read, built from the library's
enumeration and dataset-penalty oracles. Per softmax cell with probability
row p: hess log P(k) = -(diag(p) - p p^T) for every k, and
hess P(k) / P(k) = score(k) score(k)^T - (diag(p) - p p^T).
"""

import numpy as np

from stackmbrl.estimators import dataset_kl, model_score_table
from stackmbrl.mdp import (TabularMdp, _model_tables, _policy_probs,
                           exact_return, transition_marginal)
from stackmbrl.models import CategoricalWorldModel, OfflineDataset, SoftmaxPolicy
from stackmbrl.oracles import (ExactExpectations, enumerate_paths,
                               exact_expectations, exact_penalty_terms)


def _softmax_cov(p: np.ndarray) -> np.ndarray:
    return np.diag(p) - np.outer(p, p)


def second_order_expectations(mdp: TabularMdp, policy: SoftmaxPolicy,
                              model: CategoricalWorldModel) -> tuple:
    """(E[hess_phi Psi], E[sum_t w_t hessP(k_t)/P(k_t)], the same with w_t
    replaced by gamma^t r_t): the exact log-prob Hessian term and the
    substitution errors of the score-product surrogate, by enumeration."""
    s_n, a_n, k_n = model.logits.shape
    n_phi = model.n_params
    h = mdp.horizon
    gammas = mdp.gamma ** np.arange(h)

    mod_probs = model.probs_all()
    mod_scores = model_score_table(model)
    fim_blocks = mod_scores[..., :, None] * mod_scores[..., None, :]
    cov_blocks = np.zeros((s_n, a_n, n_phi, n_phi))
    for s, a in np.ndindex(s_n, a_n):
        start = (s * a_n + a) * k_n
        cov_blocks[s, a, start:start + k_n, start:start + k_n] = _softmax_cov(
            mod_probs[s, a])

    hess_psi = np.zeros((n_phi, n_phi))
    sub_err = np.zeros((n_phi, n_phi))
    imm_err = np.zeros((n_phi, n_phi))
    for prob, states, actions, outcomes, rewards in enumerate_paths(mdp, policy, model):
        disc = gammas * rewards
        w = disc[::-1].cumsum()[::-1]  # w_t = sum_{j >= t} gamma^j r_j
        s_idx, a_idx = states[:-1], actions
        fims = fim_blocks[s_idx, a_idx, outcomes]           # (h, n_phi, n_phi)
        covs = cov_blocks[s_idx, a_idx]                     # (h, n_phi, n_phi)
        hess_psi += prob * np.tensordot(w, -covs, axes=1)
        sub_err += prob * np.tensordot(w, fims - covs, axes=1)
        imm_err += prob * np.tensordot(disc, fims - covs, axes=1)
    return hess_psi, sub_err, imm_err


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
    """FIM-substituted hess_phi L: the exact target of UV^T - XY^T + ZZ^T."""
    exp = exact_expectations(mdp, policy, model)
    pen = exact_penalty_terms(dataset, model, anchor)
    return fim_hess_j(exp) + lam * pen.fim_mean
