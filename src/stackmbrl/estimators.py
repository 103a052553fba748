"""Score-function estimators over sampled rollouts.

Conventions shared with the exact oracles:

* absolute discounting: the step weight is w_t = sum_{j >= t} gamma^j r_j,
  so gamma enters with the step's global index, not its offset from t;
* the per-trajectory objective surrogate is Psi = sum_t w_t log pi(a_t|s_t)
  (policy side) or sum_t w_t log P(k_t|s_t, a_t) (model side), and every
  gradient/curvature estimate below is an average of per-sample terms whose
  expectation equals the corresponding exact quantity;
* curvature is never formed densely here: batches are reduced to the score
  atoms and factor coefficients consumed by :mod:`.woodbury`.
"""

from __future__ import annotations

import numpy as np

from .mdp import _draw_categorical_rows
from .models import (CategoricalWorldModel, DiagGaussianWorldModel,
                     OfflineDataset, SoftmaxPolicy, categorical_kl,
                     gaussian_kl)
from .woodbury import RIDGE_DEFAULT, BlockScores, LowRankFactors

CLIP_DEFAULT = 0.2
GAE_LAMBDA_DEFAULT = 0.95


# ---------------------------------------------------------------------------
# score tables
# ---------------------------------------------------------------------------


def policy_score_table(policy: SoftmaxPolicy) -> np.ndarray:
    """(S, A, n_theta) dense score table, every (s, a) row at once: the
    enumeration reference in the tests reads it, and the benchmark tracer
    times it by this name."""
    return policy.scores(*np.indices(policy.logits.shape)).dense()


def model_score_table(model: CategoricalWorldModel) -> np.ndarray:
    """(S, A, K, n_phi) dense score table: ``grad-check``'s frozen score
    rows, which the benchmark tracer times by this name.

    Its size is quadratic in n_phi; sampled estimators evaluate
    ``model.scores`` on the steps they draw instead, as block scores.
    """
    return model.scores(*np.indices(model.logits.shape)).dense()


# ---------------------------------------------------------------------------
# advantage estimation and ratio masks
# ---------------------------------------------------------------------------


def generalized_advantages(rewards: np.ndarray, values: np.ndarray,
                           tail_values: np.ndarray, gamma: float,
                           zeta: float = GAE_LAMBDA_DEFAULT) -> np.ndarray:
    """Exponentially-mixed advantage estimates on every step of the segment.

    ``values`` holds V(s_t) for t = 0..h; the bootstrap value at the segment
    end is replaced by ``tail_values`` (a Q evaluated at the trailing
    state-action pair), which closes the recursion

        adv_t = delta_t + gamma * zeta * adv_{t+1},
        delta_t = r_t + gamma * V(s_{t+1}) - V(s_t).
    """
    rewards = np.atleast_2d(np.asarray(rewards, dtype=float))
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n, h = rewards.shape
    v_eff = values[:, :h + 1].copy()
    v_eff[:, h] = np.asarray(tail_values, dtype=float)
    deltas = rewards + gamma * v_eff[:, 1:] - v_eff[:, :-1]
    adv = np.zeros((n, h))
    running = np.zeros(n)
    for t in range(h - 1, -1, -1):
        running = deltas[:, t] + gamma * zeta * running
        adv[:, t] = running
    return adv


def ratio_masks(logp_new: np.ndarray, logp_old: np.ndarray,
                advantages: np.ndarray, clip: float = CLIP_DEFAULT) -> np.ndarray:
    """Per-step acceptance masks from the clipped-ratio comparison.

    A step stays active iff ratio * adv <= clip(ratio, 1-clip, 1+clip) * adv,
    i.e. iff the unclipped surrogate does not exceed the clipped one. With
    ``clip=inf`` the bounds are infinite, the clip returns the ratio itself
    and every step stays active.
    """
    ratio = np.exp(logp_new - logp_old)
    clipped = np.clip(ratio, 1.0 - clip, 1.0 + clip)
    return (ratio * advantages <= clipped * advantages + 1e-12).astype(float)


def masked_surrogate_gradient(step_scores: BlockScores, masks: np.ndarray,
                              advantages: np.ndarray, gamma: float) -> np.ndarray:
    """Mean over rollouts of sum_t mask_t * gamma^t * adv_t * score_t, for
    (n, h) step scores: one scatter of the weighted blocks.

    Reduces to the plain estimator when masks are all one, the advantage
    mixing is undamped and the critic is identically zero, since then
    gamma^t * adv_t equals the absolute-discounted return-to-go w_t.
    """
    ell = advantages.shape[1]
    weights = masks[:, :ell] * advantages * gamma ** np.arange(ell)
    return step_scores[:, :ell].expand(weights.ravel()) / len(weights)


# ---------------------------------------------------------------------------
# dataset-side penalty terms (closed forms under the anchor)
# ---------------------------------------------------------------------------


def dataset_kl(dataset: OfflineDataset, model, anchor) -> float:
    """E_{(s,a)~D}[KL(anchor(.|s,a) || model(.|s,a))], exact over the dataset."""
    if isinstance(model, CategoricalWorldModel):
        s, a, counts = dataset.cells
        kl = categorical_kl(anchor.probs(s, a), model.probs(s, a))
        # a running total in first-appearance order, not a pairwise sum
        return float(np.add.accumulate(counts / dataset.n * kl)[-1])
    kl = gaussian_kl(anchor.mean(dataset.states, dataset.actions),
                     np.exp(2.0 * anchor.log_std),
                     model.mean(dataset.states, dataset.actions),
                     np.exp(2.0 * model.log_std))
    # a running total in row order, not numpy's pairwise sum
    return float(np.add.accumulate(kl)[-1] / dataset.n)


def dataset_dual_coupling(dataset: OfflineDataset, model, anchor) -> np.ndarray:
    """-E_{(s,a)~D, y~anchor}[grad_phi log P_phi(y|s,a)], exact.

    This is the model/multiplier curvature block: the derivative of the
    KL-penalty gradient with respect to the multiplier.
    """
    if isinstance(model, CategoricalWorldModel):
        _, a_n, k_n = model.logits.shape
        s, a, counts = dataset.cells
        out = np.zeros(model.n_params)
        # one scatter: the cells are distinct, so no block is written twice
        out.reshape(-1, k_n)[s * a_n + a] -= (counts / dataset.n)[:, None] * (
            anchor.probs(s, a) - model.probs(s, a))
        return out
    scores = _gaussian_expected_score(model, anchor, dataset.states,
                                      dataset.actions)
    # a running total in row order, not numpy's pairwise sum
    return -np.add.accumulate(scores, axis=0)[-1] / dataset.n


def _gaussian_expected_score(model: DiagGaussianWorldModel, anchor,
                             states: np.ndarray,
                             actions: np.ndarray) -> np.ndarray:
    """(..., n_phi) E_{y~anchor}[grad_phi log P_phi(y|s,a)] per state-action
    pair, for the diagonal-Gaussian family."""
    feats = model._features(states, actions)
    mean_m = model.mean(states, actions)
    mean_a = anchor.mean(states, actions)
    var_m = np.exp(2.0 * model.log_std)
    var_a = np.exp(2.0 * anchor.log_std)
    grad_w = ((mean_a - mean_m) / var_m)[..., :, None] * feats[..., None, :]
    grad_log_std = (var_a + (mean_a - mean_m) ** 2) / var_m - 1.0
    return np.concatenate(
        [grad_w.reshape(grad_log_std.shape[:-1] + (-1,)), grad_log_std],
        axis=-1)


# ---------------------------------------------------------------------------
# factor assembly
# ---------------------------------------------------------------------------


def factors_from_batch(weights: np.ndarray, phi_scores: BlockScores,
                       theta_scores: BlockScores,
                       dataset: OfflineDataset, model, anchor,
                       lam: float, dual_coupling: np.ndarray,
                       dual_slope: float, rng: np.random.Generator,
                       n_step_cols: int = 64, n_penalty_cols: int = 64,
                       ridge: float = RIDGE_DEFAULT) -> LowRankFactors:
    """Reduce one rollout batch (plus dataset resamples) to curvature factors.

    The atoms are the batch's m * h model step scores, step (i, t) at row
    i * h + t, followed by the ``n_penalty_cols`` penalty score draws, all
    as block scores. Each factor is a coefficient matrix over them, so the
    factors add O(k * rank) to the k atoms' O(k * K):

    * U/V columns: per-trajectory weighted and unweighted model-score sums,
      w_t / sqrt(m) and 1 / sqrt(m) on the trajectory's steps; W is the
      (m, h) policy step scores ``theta_scores`` under V's coefficients.
    * X/Y columns: one (trajectory, step) pair drawn uniformly with
      replacement per column, sqrt(h / n_step_cols) on that step (times
      its weight in X); their product estimates sum_t E[w_t score_t
      score_t^T].
    * Z columns: dataset state-action pairs redrawn through the anchor,
      sqrt(lam / n_penalty_cols) on the draw.
    * ``dual_coupling`` and ``dual_slope`` are the caller's exact dataset
      terms (``dataset_dual_coupling`` and ``dataset_kl`` minus epsilon),
      carried through unchanged.
    """
    m, h = weights.shape
    n_steps = m * h
    traj_idx = rng.integers(0, m, size=n_step_cols)
    step_idx = rng.integers(0, h, size=n_step_cols)
    rows = rng.integers(0, dataset.n, size=n_penalty_cols)
    states, actions = dataset.states[rows], dataset.actions[rows]
    if isinstance(model, CategoricalWorldModel):
        emissions = _draw_categorical_rows(anchor.probs(states, actions),
                                           rng)
    else:
        emissions = anchor.samples(states, actions, rng.standard_normal(
            (n_penalty_cols, anchor.log_std.size)))
    atoms = BlockScores.concatenate(
        [phi_scores, model.scores(states, actions, emissions)])

    def coefficients(atom_rows, cols, rank, values):
        out = np.zeros((n_steps + n_penalty_cols, rank))
        out[atom_rows, cols] = values
        return out

    steps, picks = np.arange(n_steps), np.arange(n_step_cols)
    drawn, draws = traj_idx * h + step_idx, np.arange(n_penalty_cols)
    step_scale = np.sqrt(h / n_step_cols)
    c_v = coefficients(steps, steps // h, m, 1.0 / np.sqrt(m))
    return LowRankFactors(
        atoms,
        c_u=coefficients(steps, steps // h, m, weights.ravel() / np.sqrt(m)),
        c_v=c_v,
        c_x=coefficients(drawn, picks, n_step_cols,
                         step_scale * weights[traj_idx, step_idx]),
        c_y=coefficients(drawn, picks, n_step_cols, step_scale),
        c_z=coefficients(n_steps + draws, draws, n_penalty_cols,
                         np.sqrt(max(lam, 0.0) / n_penalty_cols)),
        w=theta_scores.expand(c_v[:n_steps]), ridge=ridge, lam=lam,
        dual_coupling=dual_coupling, dual_slope=dual_slope)


# ---------------------------------------------------------------------------
# estimator registry
# ---------------------------------------------------------------------------

ESTIMATOR_NAMES = ("grad_policy", "grad_model", "mixed", "uv", "xy", "zz",
                   "dual_coupling", "constraint_gap")

