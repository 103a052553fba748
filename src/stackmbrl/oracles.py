"""Exact enumeration and finite-difference oracles for tabular testbeds.

Everything here is an independent evaluation route: expectations are computed
by exhaustive trajectory enumeration (or closed-form dataset sums), never by
the sampling estimators they are used to verify.

Softmax-block analytic facts used throughout (per cell probability row p):
  score(k)            = e_k - p
  hess log P(k)       = -(diag(p) - p p^T)      (independent of k)
  hess P(k) / P(k)    = score(k) score(k)^T - (diag(p) - p p^T)
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .estimators import dataset_kl, model_score_table, policy_score_table
from .mdp import TabularMdp, _model_tables, _policy_probs
from .models import CategoricalWorldModel, OfflineDataset, SoftmaxPolicy, categorical_kl


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def central_difference(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite difference of ``f`` at the flat vector ``x``.

    A scalar ``f`` gives its gradient, shaped like ``x``; a vector-valued
    ``f`` gives its Jacobian, shaped (output, input).
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        up, down = x.copy(), x.copy()
        up[i] += eps
        down[i] -= eps
        cols.append((f(up) - f(down)) / (2.0 * eps))
    return np.stack(cols, axis=-1)


def central_difference_mixed(f, x_row: np.ndarray, x_col: np.ndarray,
                             eps: float = 1e-4) -> np.ndarray:
    """Four-point mixed second derivative d^2 f / d x_row d x_col.

    Returns a (len(x_row), len(x_col)) matrix; ``f(x_row, x_col)`` is scalar.
    """
    x_row = np.asarray(x_row, dtype=float)
    x_col = np.asarray(x_col, dtype=float)
    out = np.zeros((x_row.size, x_col.size))
    for i in range(x_row.size):
        for j in range(x_col.size):
            rp, rm = x_row.copy(), x_row.copy()
            rp[i] += eps
            rm[i] -= eps
            cp, cm = x_col.copy(), x_col.copy()
            cp[j] += eps
            cm[j] -= eps
            out[i, j] = (f(rp, cp) - f(rp, cm) - f(rm, cp) + f(rm, cm)) / (4 * eps * eps)
    return out


# ---------------------------------------------------------------------------
# trajectory enumeration
# ---------------------------------------------------------------------------


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


@dataclass
class ExactExpectations:
    """Exact values of every trajectory-side expectation the estimators target."""

    j: float
    grad_policy: np.ndarray          # E[grad_theta Psi]
    grad_model: np.ndarray           # E[grad_phi Psi]
    mixed: np.ndarray                # E[grad_phi Psi * (grad_theta log P(tau))^T]
    uv: np.ndarray                   # E[grad_phi Psi * (grad_phi log P(tau))^T]
    xy: np.ndarray                   # sum_t E[w_t * score_t score_t^T]
    hess_psi: np.ndarray             # E[hess_phi Psi]  (exact log-prob Hessians)
    substitution_error: np.ndarray   # E[sum_t w_t * hessP(k_t)/P(k_t)]
    immediate_error: np.ndarray      # same, with w_t replaced by gamma^t r_t
    total_prob: float

    @property
    def hess_j_model(self) -> np.ndarray:
        """Exact hess_phi J = E[grad Psi grad logP^T + hess Psi]."""
        return self.uv + self.hess_psi

    @property
    def fim_hess_j(self) -> np.ndarray:
        """FIM-substituted hess_phi J (what UV^T - XY^T estimates)."""
        return self.uv - self.xy

    @property
    def continuation_error(self) -> np.ndarray:
        """Part of the substitution error carried by future rewards."""
        return self.substitution_error - self.immediate_error


def _softmax_cov(p: np.ndarray) -> np.ndarray:
    return np.diag(p) - np.outer(p, p)


def exact_expectations(mdp: TabularMdp, policy: SoftmaxPolicy,
                       model: CategoricalWorldModel) -> ExactExpectations:
    """Enumerate P(tau; theta, phi) exactly and accumulate all expectations."""
    s_n, a_n, k_n = model.logits.shape
    n_theta = policy.n_params
    n_phi = model.n_params
    h = mdp.horizon
    gammas = mdp.gamma ** np.arange(h)

    mod_probs = model.probs_all()
    pol_scores = policy_score_table(policy)
    mod_scores = model_score_table(model)
    fim_blocks = mod_scores[..., :, None] * mod_scores[..., None, :]
    cov_blocks = np.zeros((s_n, a_n, n_phi, n_phi))
    for s, a in np.ndindex(s_n, a_n):
        start = (s * a_n + a) * k_n
        cov_blocks[s, a, start:start + k_n, start:start + k_n] = _softmax_cov(
            mod_probs[s, a])

    j = 0.0
    total = 0.0
    grad_policy = np.zeros(n_theta)
    grad_model = np.zeros(n_phi)
    mixed = np.zeros((n_phi, n_theta))
    uv = np.zeros((n_phi, n_phi))
    xy = np.zeros((n_phi, n_phi))
    hess_psi = np.zeros((n_phi, n_phi))
    sub_err = np.zeros((n_phi, n_phi))
    imm_err = np.zeros((n_phi, n_phi))

    for prob, states, actions, outcomes, rewards in enumerate_paths(mdp, policy, model):
        total += prob
        disc = gammas * rewards
        w = disc[::-1].cumsum()[::-1]  # w_t = sum_{j >= t} gamma^j r_j
        s_idx, a_idx = states[:-1], actions
        theta_steps = pol_scores[s_idx, a_idx]              # (h, n_theta)
        phi_steps = mod_scores[s_idx, a_idx, outcomes]      # (h, n_phi)
        psi_theta = w @ theta_steps
        psi_phi = w @ phi_steps
        traj_theta = theta_steps.sum(axis=0)
        traj_phi = phi_steps.sum(axis=0)
        fims = fim_blocks[s_idx, a_idx, outcomes]           # (h, n_phi, n_phi)
        covs = cov_blocks[s_idx, a_idx]                     # (h, n_phi, n_phi)

        j += prob * w[0]
        grad_policy += prob * psi_theta
        grad_model += prob * psi_phi
        mixed += prob * np.outer(psi_phi, traj_theta)
        uv += prob * np.outer(psi_phi, traj_phi)
        xy += prob * np.tensordot(w, fims, axes=1)
        hess_psi += prob * np.tensordot(w, -covs, axes=1)
        sub_err += prob * np.tensordot(w, fims - covs, axes=1)
        imm_err += prob * np.tensordot(disc, fims - covs, axes=1)

    return ExactExpectations(j=j, grad_policy=grad_policy, grad_model=grad_model,
                             mixed=mixed, uv=uv, xy=xy, hess_psi=hess_psi,
                             substitution_error=sub_err, immediate_error=imm_err,
                             total_prob=total)


def occupancy_immediate_error(mdp: TabularMdp, policy: SoftmaxPolicy,
                              model: CategoricalWorldModel) -> np.ndarray:
    """Occupancy-weighted route to the immediate-reward substitution error.

    sum_t gamma^t sum_{s,a} d_t(s,a) sum_k r(k) hess_phi P(k|s,a); must agree
    with ``ExactExpectations.immediate_error`` (dual-route identity).
    """
    from .mdp import per_step_occupancy
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


# ---------------------------------------------------------------------------
# dataset-side exact terms (KL penalty, dual coupling, FIM regularizer)
# ---------------------------------------------------------------------------


@dataclass
class ExactPenaltyTerms:
    score_mean: np.ndarray      # E_{(s,a)~D, k~anchor}[grad_phi log P_phi]
    fim_mean: np.ndarray        # E_{(s,a)~D, k~anchor}[score score^T]
    hess_log_mean: np.ndarray   # E_{(s,a)~D, k~anchor}[hess_phi log P_phi]
    kl_mean: float              # E_{(s,a)~D}[KL(anchor || model)]


def exact_penalty_terms(dataset: OfflineDataset, model: CategoricalWorldModel,
                        anchor: CategoricalWorldModel) -> ExactPenaltyTerms:
    s_n, a_n, k_n = model.logits.shape
    n_phi = model.n_params
    counts = dataset.cell_counts()
    mod_probs = model.probs_all()
    anc_probs = anchor.probs_all()
    score_mean = np.zeros(n_phi)
    fim_mean = np.zeros((n_phi, n_phi))
    hess_log_mean = np.zeros((n_phi, n_phi))
    kl_mean = 0.0
    for (s, a), count in counts.items():
        weight = count / dataset.n
        p = mod_probs[s, a]
        pbar = anc_probs[s, a]
        start = (s * a_n + a) * k_n
        score_mean[start:start + k_n] += weight * (pbar - p)
        cov = _softmax_cov(p)
        # E_{k~pbar}[(e_k - p)(e_k - p)^T] = diag(pbar) - pbar p^T - p pbar^T + p p^T
        fim = (np.diag(pbar) - np.outer(pbar, p) - np.outer(p, pbar)
               + np.outer(p, p))
        fim_mean[start:start + k_n, start:start + k_n] += weight * fim
        hess_log_mean[start:start + k_n, start:start + k_n] += weight * (-cov)
        kl_mean += weight * categorical_kl(pbar, p)
    return ExactPenaltyTerms(score_mean, fim_mean, hess_log_mean, kl_mean)


def exact_lagrangian(mdp: TabularMdp, policy: SoftmaxPolicy,
                     model: CategoricalWorldModel,
                     anchor: CategoricalWorldModel, dataset: OfflineDataset,
                     lam: float, epsilon: float) -> float:
    """L = J + lambda (E_D[KL(anchor || model)] - epsilon), both parts exact."""
    from .mdp import exact_return
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
    return exp.fim_hess_j + lam * pen.fim_mean


# ---------------------------------------------------------------------------
# scalar-function views for finite differencing
# ---------------------------------------------------------------------------


def policy_return_fn(mdp: TabularMdp, policy: SoftmaxPolicy, model):
    """J as a function of the flat policy parameters."""
    from .mdp import exact_return

    def fn(theta: np.ndarray) -> float:
        return exact_return(mdp, policy.with_params(theta), model)

    return fn


def model_return_fn(mdp: TabularMdp, policy, model: CategoricalWorldModel):
    """J as a function of the flat model parameters."""
    from .mdp import exact_return

    def fn(phi: np.ndarray) -> float:
        return exact_return(mdp, policy, model.with_params(phi))

    return fn


def mixed_return_fn(mdp: TabularMdp, policy: SoftmaxPolicy,
                    model: CategoricalWorldModel):
    """J as a function of (flat model params, flat policy params)."""
    from .mdp import exact_return

    def fn(phi: np.ndarray, theta: np.ndarray) -> float:
        return exact_return(mdp, policy.with_params(theta),
                            model.with_params(phi))

    return fn
