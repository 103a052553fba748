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

from .models import (CategoricalWorldModel, OfflineDataset, SoftmaxPolicy,
                     categorical_kl, gaussian_kl)
from .woodbury import BlockScores, DualRow, LowRankFactors


# ---------------------------------------------------------------------------
# score tables
# ---------------------------------------------------------------------------


def policy_score_table(policy: SoftmaxPolicy) -> np.ndarray:
    """(S, A, n_theta) dense score table, every (s, a) row at once: the
    enumeration reference in the tests reads it, and the benchmark tracer
    times it by this name."""
    return policy.scores(*np.indices(policy.logits.shape)).dense()


def model_score_table(model: CategoricalWorldModel) -> np.ndarray:
    """(S, A, K, n_phi) dense score table, quadratic in n_phi:
    ``grad-check``'s frozen score rows, which the benchmark tracer times by
    this name. Sampled estimators use ``model.scores`` instead."""
    return model.scores(*np.indices(model.logits.shape)).dense()


# ---------------------------------------------------------------------------
# advantage estimation and ratio masks
# ---------------------------------------------------------------------------


def generalized_advantages(rewards: np.ndarray, values: np.ndarray,
                           tail_values: np.ndarray, gamma: float,
                           zeta: float) -> np.ndarray:
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
                advantages: np.ndarray, clip: float) -> np.ndarray:
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
    n, ell = advantages.shape
    weights = np.zeros(step_scores.cells.shape)  # steps past ell weigh 0
    weights[:, :ell] = masks[:, :ell] * advantages * gamma ** np.arange(ell)
    return step_scores.expand(weights.ravel()) / n


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
    scores = model.expected_scores(anchor, dataset.states, dataset.actions)
    # a running total in row order, not numpy's pairwise sum
    return -np.add.accumulate(scores, axis=0)[-1] / dataset.n


def penalty_curvature(dataset: OfflineDataset, model, anchor, lam: float,
                      ridge: float):
    """D = ridge * I + lam * E_{(s,a)~D, y~anchor}[score score^T] (the
    ``zz`` target of ``grad-check``), exact over the dataset's cells, or for
    the Gaussian family its rows."""
    s, a, counts = (dataset.cells if isinstance(model, CategoricalWorldModel)
                    else (dataset.states, dataset.actions, np.ones(dataset.n)))
    return model.penalty_curvature((s, a), max(lam, 0.0) * counts / dataset.n,
                                   anchor, ridge)


# ---------------------------------------------------------------------------
# factor assembly
# ---------------------------------------------------------------------------


def factors_from_batch(weights: np.ndarray, phi_scores: BlockScores,
                       theta_scores: BlockScores, base, lam: float,
                       dual: DualRow | None) -> LowRankFactors:
    """Reduce one rollout batch to curvature factors; nothing is drawn.
    The atoms are the (m, h) model step scores, step (i, t) at row i * h +
    t, and each factor is a coefficient matrix over them:

    * U/V columns: per-trajectory weighted and unweighted model-score sums,
      w_t / sqrt(m) and 1 / sqrt(m) on the trajectory's steps; W sums the
      policy step scores the same way, in one scatter onto m layouts.
    * X/Y columns: one per step, w_t / sqrt(m) (X) and 1 / sqrt(m) (Y) on
      that step alone, so XY^T = (1/m) sum_{i,t} w_it score_it score_it^T,
      the batch's own estimate of sum_t E[w_t score_t score_t^T].
    * no Z columns: ``base``, the closed ``penalty_curvature`` at ``lam``.
    * ``dual``: the caller's multiplier row over ``base``, or None.
    """
    m, h = weights.shape
    in_path = np.kron(np.eye(m), np.ones((h, 1)))  # step i * h + t: col i
    weighted, c_v = weights.reshape(-1, 1) / np.sqrt(m), in_path / np.sqrt(m)
    paths = BlockScores(theta_scores.n_cells * np.arange(m)[:, None]
                        + theta_scores.cells, theta_scores.blocks,
                        m * theta_scores.n_params)
    w = paths.expand(np.full(m * h, 1.0 / np.sqrt(m))).reshape(m, -1)
    return LowRankFactors(
        phi_scores, c_u=in_path * weighted, c_v=c_v,
        c_x=np.diag(weighted[:, 0]), c_y=np.eye(m * h) / np.sqrt(m),
        c_z=np.zeros((m * h, 0)), w=np.ascontiguousarray(w.T), base=base,
        lam=lam, dual=dual)


# ---------------------------------------------------------------------------
# estimator registry
# ---------------------------------------------------------------------------

ESTIMATOR_NAMES = ("grad_policy", "grad_model", "mixed", "uv", "xy", "zz",
                   "dual_coupling", "constraint_gap")

