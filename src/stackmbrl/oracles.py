"""Exact oracles for tabular testbeds: one dynamic-programming pass, closed-form
dataset sums and finite differences.

Everything here is an independent evaluation route: expectations are computed
exactly, never by the sampling estimators they are used to verify. The pass
runs ``mdp.dp_values`` backward for V_t and Q_t, with the continuation
c_t(k) = r_k + gamma V_{t+1}(s'_k), and the state occupancy d_t forward. By
the policy-gradient theorem, applied to the model as well as to the policy,

    dJ/dtheta_sa = sum_t gamma^t d_t(s) pi(a|s) (Q_t(s,a) - V_t(s)),
    dJ/dphi_sak = sum_t gamma^t d_t(s) pi(a|s) P(k|s,a) (c_t(k) - Q_t(s,a)),

and the tail mass m(s,a,k) = sum_t gamma^t d_t(s) pi(a|s) P(k|s,a) c_t(k) is
E[sum_t w_t 1{(s_t, a_t, k_t) = (s, a, k)}], w_t = sum_{j >= t} gamma^j r_j.
A softmax cell with probability row p has score(k) = e_k - p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import TabularMdp, _model_tables, _policy_probs, dp_values
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
    """Four-point mixed second derivative d^2 f / d x_row d x_col: the
    central difference in ``x_col`` of the one in ``x_row``.

    Returns a (len(x_row), len(x_col)) matrix; ``f(x_row, x_col)`` is scalar.
    """
    return central_difference(
        lambda col: central_difference(lambda row: f(row, col), x_row, eps),
        x_col, eps)


# ---------------------------------------------------------------------------
# one forward/backward dynamic-programming pass
# ---------------------------------------------------------------------------


@dataclass
class ExactGradients:
    """J, its gradients with respect to both players' logits, and the tail
    mass."""

    j: float
    grad_policy: np.ndarray          # dJ/dtheta, flat
    grad_model: np.ndarray           # dJ/dphi, flat
    tail_mass: np.ndarray            # (S, A, K) m(s, a, k)


def _dp_pass(mdp: TabularMdp, pi: np.ndarray, probs: np.ndarray,
             out_r: np.ndarray, out_s: np.ndarray) -> ExactGradients:
    """The forward/backward pass over the (S, A) policy and (S, A, K) outcome
    tables. It only adds and multiplies them, so it runs on complex tables
    too."""
    gamma = mdp.gamma
    values, q = dp_values(probs, out_r, out_s, pi, gamma, mdp.horizon)
    conts = out_r + gamma * values[1:, out_s]              # c_t, (h, K)
    step_mass = np.einsum("sa,sak->sk", pi, probs)
    kernel = np.zeros((len(pi), len(pi)), dtype=step_mass.dtype)
    np.add.at(kernel.T, out_s, step_mass.T)
    occupancy = np.zeros_like(q[:-1])      # gamma^t d_t(s) pi(a|s), (h, S, A)
    tails = np.zeros_like(probs)           # sum_t gamma^t d_t(s) pi(a|s) c_t(k)
    dist = mdp.init_dist.copy()
    for t in range(mdp.horizon):
        tails += (gamma ** t) * dist[:, None, None] * pi[:, :, None] \
            * conts[t][None, None, :]
        occupancy[t] = (gamma ** t) * dist[:, None] * pi
        dist = dist @ kernel
    inner = (probs * tails).sum(axis=-1, keepdims=True)
    return ExactGradients(
        j=mdp.init_dist @ values[0],
        grad_policy=(occupancy * (q[:-1] - values[:-1, :, None]))
        .sum(axis=0).ravel(),
        grad_model=(probs * (tails - inner)).ravel(),
        tail_mass=probs * tails)


def exact_gradients(mdp: TabularMdp, policy, model) -> ExactGradients:
    """J, dJ/dtheta, dJ/dphi and the tail mass by one forward/backward pass;
    ``policy`` and ``model`` take the shorthands ``mdp.exact_return`` takes."""
    return _dp_pass(mdp, _policy_probs(policy, mdp),
                    *_model_tables(model, mdp))


def _softmax_covariances(table: np.ndarray) -> np.ndarray:
    """(C, K, K) diag(p) - p p^T of each row p of ``table`` (..., K): the
    Jacobian of the row with respect to its own logits."""
    rows = table.reshape(-1, table.shape[-1])
    return rows[:, :, None] * (np.eye(rows.shape[1]) - rows[:, None, :])


def _softmax_tangents(table: np.ndarray):
    """The derivative of a softmax table along each of its flat logits in
    turn: logit j of a row moves that row alone, by covariance row j."""
    covs = _softmax_covariances(table)
    for cell, j in np.ndindex(covs.shape[:2]):
        tangent = np.zeros_like(table)
        tangent.reshape(-1, covs.shape[1])[cell] = covs[cell, j]
        yield tangent


def _block_diagonal(blocks: np.ndarray) -> np.ndarray:
    """The (C*K, C*K) matrix with the (C, K, K) ``blocks`` on its diagonal."""
    cells, k_n, _ = blocks.shape
    out = np.zeros((cells, k_n, cells, k_n))
    out[np.arange(cells), :, np.arange(cells), :] = blocks
    return out.reshape(cells * k_n, cells * k_n)


@dataclass
class ExactExpectations:
    """Exact values of the trajectory-side expectations ``grad-check``
    compares the estimators against."""

    j: float
    grad_policy: np.ndarray          # E[grad_theta Psi]
    grad_model: np.ndarray           # E[grad_phi Psi]
    mixed: np.ndarray                # E[grad_phi Psi * (grad_theta log P(tau))^T]
    uv: np.ndarray                   # E[grad_phi Psi * (grad_phi log P(tau))^T]
    xy: np.ndarray                   # sum_t E[w_t * score_t score_t^T]


def exact_expectations(mdp: TabularMdp, policy: SoftmaxPolicy,
                       model: CategoricalWorldModel) -> ExactExpectations:
    """Every expectation in closed form from the DP pass.

    ``mixed`` is d^2 J / dphi dtheta and ``uv`` is d^2 J / dphi^2 plus
    sum_cells (sum_k m) (diag p - p p^T). Both take one tangent sweep of
    the pass per logit of either player: the pass runs on the tables plus
    i * h times the logit's tangent, and the imaginary part of dJ/dphi over
    h is its directional derivative, to rounding, since the pass is a
    polynomial in the tables. ``xy = sum_cells m score score^T`` is
    block-diagonal, because E[w_t | s_t, a_t, k_t] = gamma^t c_t(k_t).
    """
    pi = _policy_probs(policy, mdp)
    probs, out_r, out_s = _model_tables(model, mdp)
    first = _dp_pass(mdp, pi, probs, out_r, out_s)
    step = 1e-20

    def sweep(d_pi, d_probs) -> np.ndarray:
        return _dp_pass(mdp, pi + 1j * step * d_pi,
                        probs + 1j * step * d_probs, out_r,
                        out_s).grad_model.imag / step

    k_n = probs.shape[-1]
    mass = first.tail_mass.reshape(-1, k_n)
    scores = np.eye(k_n) - probs.reshape(-1, 1, k_n)  # row k: score(k)
    hess = np.stack([sweep(0.0, d) for d in _softmax_tangents(probs)], axis=1)
    return ExactExpectations(
        j=first.j, grad_policy=first.grad_policy, grad_model=first.grad_model,
        mixed=np.stack([sweep(d, 0.0) for d in _softmax_tangents(pi)], axis=1),
        uv=hess + _block_diagonal(mass.sum(axis=1)[:, None, None]
                                  * _softmax_covariances(probs)),
        xy=_block_diagonal(np.einsum("ck,cki,ckj->cij", mass, scores, scores)))


# ---------------------------------------------------------------------------
# dataset-side exact terms (KL penalty, dual coupling, FIM regularizer)
# ---------------------------------------------------------------------------


@dataclass
class ExactPenaltyTerms:
    score_mean: np.ndarray      # E_{(s,a)~D, k~anchor}[grad_phi log P_phi]
    fim_mean: np.ndarray        # E_{(s,a)~D, k~anchor}[score score^T]
    kl_mean: float              # E_{(s,a)~D}[KL(anchor || model)]


def exact_penalty_terms(dataset: OfflineDataset, model: CategoricalWorldModel,
                        anchor: CategoricalWorldModel) -> ExactPenaltyTerms:
    _, a_n, k_n = model.logits.shape
    n_phi = model.n_params
    counts = dataset.cell_counts()
    mod_probs = model.probs_all()
    anc_probs = anchor.probs_all()
    score_mean = np.zeros(n_phi)
    fim_mean = np.zeros((n_phi, n_phi))
    kl_mean = 0.0
    for (s, a), count in counts.items():
        weight = count / dataset.n
        p = mod_probs[s, a]
        pbar = anc_probs[s, a]
        start = (s * a_n + a) * k_n
        score_mean[start:start + k_n] += weight * (pbar - p)
        # E_{k~pbar}[(e_k - p)(e_k - p)^T] = diag(pbar) - pbar p^T - p pbar^T + p p^T
        fim = (np.diag(pbar) - np.outer(pbar, p) - np.outer(p, pbar)
               + np.outer(p, p))
        fim_mean[start:start + k_n, start:start + k_n] += weight * fim
        kl_mean += weight * categorical_kl(pbar, p)
    return ExactPenaltyTerms(score_mean, fim_mean, kl_mean)


# ---------------------------------------------------------------------------
# unbiasedness targets
# ---------------------------------------------------------------------------


def exact_estimator_targets(mdp, policy, model, dataset, anchor, lam: float,
                            epsilon: float) -> dict:
    """Exact expectations, one per ``estimators.ESTIMATOR_NAMES`` entry: the
    targets a Monte-Carlo average of each factor recipe's per-sample terms
    must hit."""
    exp = exact_expectations(mdp, policy, model)
    pen = exact_penalty_terms(dataset, model, anchor)
    return {
        "grad_policy": exp.grad_policy,
        "grad_model": exp.grad_model,
        "mixed": exp.mixed,
        "uv": exp.uv,
        "xy": exp.xy,
        "zz": lam * pen.fim_mean,
        "dual_coupling": -pen.score_mean,
        "constraint_gap": np.array([pen.kl_mean - epsilon]),
    }
