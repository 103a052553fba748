"""Score-function estimators over sampled rollouts.

Conventions shared with the exact oracles:

* absolute discounting: the step weight is w_t = sum_{j >= t} gamma^j r_j,
  so gamma enters with the step's global index, not its offset from t;
* the per-trajectory objective surrogate is Psi = sum_t w_t log pi(a_t|s_t)
  (policy side) or sum_t w_t log P(k_t|s_t, a_t) (model side), and every
  gradient/curvature estimate below is an average of per-sample terms whose
  expectation equals the corresponding exact quantity;
* curvature is never formed densely here: batches are reduced to the factor
  columns consumed by :mod:`.woodbury`.
"""

from __future__ import annotations

import numpy as np

from .models import (CategoricalWorldModel, DiagGaussianWorldModel,
                     OfflineDataset, SoftmaxPolicy, categorical_kl,
                     gaussian_kl)
from .woodbury import RIDGE_DEFAULT, LowRankFactors

CLIP_DEFAULT = 0.2
GAE_LAMBDA_DEFAULT = 0.95


# ---------------------------------------------------------------------------
# step weights and score stacks
# ---------------------------------------------------------------------------


def discounted_weights(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """w_t = sum_{j >= t} gamma^j r_j for a (n, h) reward batch."""
    rewards = np.atleast_2d(np.asarray(rewards, dtype=float))
    disc = rewards * gamma ** np.arange(rewards.shape[1])
    return disc[:, ::-1].cumsum(axis=1)[:, ::-1]


def policy_score_table(policy: SoftmaxPolicy) -> np.ndarray:
    """(S, A, n_theta) dense score table for the enumeration oracles."""
    return policy.scores(*np.indices(policy.logits.shape))


def model_score_table(model: CategoricalWorldModel) -> np.ndarray:
    """(S, A, K, n_phi) dense score table for the enumeration oracles.

    Its size is quadratic in n_phi; sampled estimators evaluate
    ``model.scores`` on the steps they draw instead.
    """
    return model.scores(*np.indices(model.logits.shape))


# ---------------------------------------------------------------------------
# plain (full-return) gradient estimators
# ---------------------------------------------------------------------------


def psi_gradients(weights: np.ndarray, step_scores: np.ndarray) -> np.ndarray:
    """Per-trajectory grad Psi = sum_t w_t score_t; (n, n_params)."""
    return np.einsum("nh,nhp->np", weights, step_scores)


def policy_gradient(weights: np.ndarray, theta_scores: np.ndarray) -> np.ndarray:
    """Mean of per-trajectory policy-score gradients."""
    return psi_gradients(weights, theta_scores).mean(axis=0)


def model_gradient(weights: np.ndarray, phi_scores: np.ndarray) -> np.ndarray:
    """Mean of per-trajectory model-score gradients."""
    return psi_gradients(weights, phi_scores).mean(axis=0)


# ---------------------------------------------------------------------------
# advantage estimation and ratio masks
# ---------------------------------------------------------------------------


def generalized_advantages(rewards: np.ndarray, values: np.ndarray,
                           tail_values: np.ndarray, gamma: float,
                           zeta: float = GAE_LAMBDA_DEFAULT,
                           length: int | None = None) -> np.ndarray:
    """Exponentially-mixed advantage estimates on the first ``length`` steps.

    ``values`` holds V(s_t) for t = 0..h; the bootstrap value at the segment
    end is replaced by ``tail_values`` (a Q evaluated at the trailing
    state-action pair), which closes the recursion

        adv_t = delta_t + gamma * zeta * adv_{t+1},
        delta_t = r_t + gamma * V(s_{t+1}) - V(s_t).
    """
    rewards = np.atleast_2d(np.asarray(rewards, dtype=float))
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n, h = rewards.shape
    ell = h if length is None else int(length)
    if not 1 <= ell <= h:
        raise ValueError(f"segment length {ell} outside 1..{h}")
    v_eff = values[:, :ell + 1].copy()
    v_eff[:, ell] = np.asarray(tail_values, dtype=float)
    deltas = rewards[:, :ell] + gamma * v_eff[:, 1:] - v_eff[:, :-1]
    adv = np.zeros((n, ell))
    running = np.zeros(n)
    for t in range(ell - 1, -1, -1):
        running = deltas[:, t] + gamma * zeta * running
        adv[:, t] = running
    return adv


def ratio_masks(logp_new: np.ndarray, logp_old: np.ndarray,
                advantages: np.ndarray, clip: float = CLIP_DEFAULT) -> np.ndarray:
    """Per-step acceptance masks from the clipped-ratio comparison.

    A step stays active iff ratio * adv <= clip(ratio, 1-clip, 1+clip) * adv,
    i.e. iff the unclipped surrogate does not exceed the clipped one. With
    ``clip=inf`` every step stays active.
    """
    ratio = np.exp(logp_new - logp_old)
    if np.isinf(clip):
        clipped = ratio
    else:
        clipped = np.clip(ratio, 1.0 - clip, 1.0 + clip)
    return (ratio * advantages <= clipped * advantages + 1e-12).astype(float)


def masked_surrogate_gradient(step_scores: np.ndarray, masks: np.ndarray,
                              advantages: np.ndarray, gamma: float) -> np.ndarray:
    """Mean over rollouts of sum_t mask_t * gamma^t * adv_t * score_t.

    Reduces to the plain estimator when masks are all one, the advantage
    mixing is undamped and the critic is identically zero, since then
    gamma^t * adv_t equals the absolute-discounted return-to-go w_t.
    """
    ell = advantages.shape[1]
    weights = masks[:, :ell] * advantages * gamma ** np.arange(ell)
    return np.einsum("nh,nhp->p", weights, step_scores[:, :ell]) / step_scores.shape[0]


# ---------------------------------------------------------------------------
# dataset-side penalty terms (closed forms under the anchor)
# ---------------------------------------------------------------------------


def dataset_kl(dataset: OfflineDataset, model, anchor) -> float:
    """E_{(s,a)~D}[KL(anchor(.|s,a) || model(.|s,a))], exact over the dataset."""
    if isinstance(model, CategoricalWorldModel):
        mod = model.probs_all()
        anc = anchor.probs_all()
        return float(sum((count / dataset.n)
                         * categorical_kl(anc[s, a], mod[s, a])
                         for (s, a), count in dataset.cell_counts().items()))
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
        mod = model.probs_all()
        anc = anchor.probs_all()
        cells = dataset.cell_counts()
        s, a = np.array(list(cells), dtype=np.int64).T
        w = np.array(list(cells.values())) / dataset.n
        out = np.zeros(model.n_params)
        # one scatter: the cells are distinct, so no block is written twice
        out.reshape(-1, k_n)[s * a_n + a] -= w[:, None] * (anc[s, a] - mod[s, a])
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


def factors_from_batch(weights: np.ndarray, phi_scores: np.ndarray,
                       theta_trajectory_scores: np.ndarray,
                       dataset: OfflineDataset, model, anchor,
                       lam: float, epsilon: float,
                       rng: np.random.Generator,
                       n_step_cols: int = 64, n_penalty_cols: int = 64,
                       ridge: float = RIDGE_DEFAULT) -> LowRankFactors:
    """Reduce one rollout batch (plus dataset resamples) to curvature factors.

    * U/V columns: per-trajectory weighted and unweighted model-score sums,
      scaled 1/sqrt(m).
    * X/Y columns: one (trajectory, step) pair drawn uniformly with
      replacement per column, scaled sqrt(h / n_step_cols); their product
      estimates sum_t E[w_t score_t score_t^T].
    * Z columns: dataset state-action pairs redrawn through the anchor,
      scaled sqrt(lam / n_penalty_cols).
    * The dual coupling vector and constraint gap are always exact over the
      whole dataset (``dataset_dual_coupling`` and ``dataset_kl``).
    """
    m, h = weights.shape
    psi_phi = psi_gradients(weights, phi_scores)            # (m, n_phi)
    u = psi_phi.T / np.sqrt(m)
    v = phi_scores.sum(axis=1).T / np.sqrt(m)
    w_fac = theta_trajectory_scores.T / np.sqrt(m)

    traj_idx = rng.integers(0, m, size=n_step_cols)
    step_idx = rng.integers(0, h, size=n_step_cols)
    step_scale = np.sqrt(h / n_step_cols)
    y_cols = phi_scores[traj_idx, step_idx].T * step_scale
    x_cols = y_cols * weights[traj_idx, step_idx]

    rows = rng.integers(0, dataset.n, size=n_penalty_cols)
    pairs = list(zip(dataset.states[rows], dataset.actions[rows]))
    if isinstance(model, CategoricalWorldModel):
        anc_probs = anchor.probs_all()
        emissions = [rng.choice(anc_probs.shape[2], p=anc_probs[s, a])
                     for s, a in pairs]
    else:
        emissions = [np.append(*anchor.sample(s, a, rng)) for s, a in pairs]
    score_draws = model.scores(dataset.states[rows], dataset.actions[rows],
                               np.array(emissions))
    z_cols = (np.ascontiguousarray(score_draws.T)
              * np.sqrt(max(lam, 0.0) / n_penalty_cols))

    return LowRankFactors(
        u=u, v=v, x=x_cols, y=y_cols, z=z_cols, w=w_fac, ridge=ridge, lam=lam,
        dual_coupling=dataset_dual_coupling(dataset, model, anchor),
        dual_slope=dataset_kl(dataset, model, anchor) - epsilon)


def model_penalty_gradient(weights: np.ndarray, phi_scores: np.ndarray,
                           dataset: OfflineDataset, model, anchor,
                           lam: float) -> np.ndarray:
    """grad_phi of the penalized objective J + lam * E_D[KL(anchor || model)].

    The KL term's gradient is -lam * E_{anchor o D}[score], which is exactly
    ``lam * dataset_dual_coupling``.
    """
    return (model_gradient(weights, phi_scores)
            + lam * dataset_dual_coupling(dataset, model, anchor))


# ---------------------------------------------------------------------------
# streaming unbiasedness statistics
# ---------------------------------------------------------------------------

ESTIMATOR_NAMES = ("grad_policy", "grad_model", "mixed", "uv", "xy", "zz",
                   "dual_coupling", "constraint_gap")


class _Moments:
    """Streaming elementwise mean and standard error."""

    def __init__(self, shape):
        self.n = 0
        self.total = np.zeros(shape)
        self.total_sq = np.zeros(shape)

    def add(self, samples: np.ndarray):
        self.n += samples.shape[0]
        self.total += samples.sum(axis=0)
        self.total_sq += (samples ** 2).sum(axis=0)

    def mean(self) -> np.ndarray:
        return self.total / self.n

    def stderr(self) -> np.ndarray:
        mean = self.mean()
        var = np.maximum(self.total_sq / self.n - mean ** 2, 0.0)
        return np.sqrt(var / self.n)


def mc_estimator_stats(mdp, policy: SoftmaxPolicy,
                       model: CategoricalWorldModel,
                       dataset: OfflineDataset,
                       anchor: CategoricalWorldModel,
                       lam: float, epsilon: float, n_samples: int,
                       seed: int, chunk: int = 5000) -> dict:
    """Elementwise (mean, stderr) for every Monte-Carlo estimator.

    Rollout-side estimators draw trajectories from (policy, model); the
    step-pair and penalty estimators draw (trajectory, step) and
    (dataset row, anchor outcome) pairs, one per sample, exactly as the
    factor recipes do.
    """
    from .mdp import _draw_categorical_rows, sample_tabular_batch

    n_theta, n_phi = policy.n_params, model.n_params
    h = mdp.horizon
    stats = {
        "grad_policy": _Moments(n_theta),
        "grad_model": _Moments(n_phi),
        "mixed": _Moments((n_phi, n_theta)),
        "uv": _Moments((n_phi, n_phi)),
        "xy": _Moments((n_phi, n_phi)),
        "zz": _Moments((n_phi, n_phi)),
        "dual_coupling": _Moments(n_phi),
        "constraint_gap": _Moments(1),
    }
    rng = np.random.default_rng(seed)
    anc_probs = anchor.probs_all()
    mod_probs = model.probs_all()
    kl_cells = np.array([[categorical_kl(anc_probs[s, a], mod_probs[s, a])
                          for a in range(mdp.num_actions)]
                         for s in range(mdp.num_states)])

    done = 0
    batch_seed = 0
    while done < n_samples:
        size = min(chunk, n_samples - done)
        batch = sample_tabular_batch(mdp, policy, model, n=size, seed=(seed, batch_seed))
        batch_seed += 1
        weights = discounted_weights(batch["rewards"], mdp.gamma)
        states = batch["states"][:, :-1]
        th_scores = policy.scores(states, batch["actions"])
        ph_scores = model.scores(states, batch["actions"], batch["outcomes"])
        psi_th = psi_gradients(weights, th_scores)
        psi_ph = psi_gradients(weights, ph_scores)
        traj_th = th_scores.sum(axis=1)
        traj_ph = ph_scores.sum(axis=1)
        stats["grad_policy"].add(psi_th)
        stats["grad_model"].add(psi_ph)
        stats["mixed"].add(np.einsum("np,nq->npq", psi_ph, traj_th))
        stats["uv"].add(np.einsum("np,nq->npq", psi_ph, traj_ph))

        # one uniformly-drawn step per sample, scaled by the horizon
        t_idx = rng.integers(0, h, size=size)
        rows = np.arange(size)
        picked = ph_scores[rows, t_idx]
        w_picked = weights[rows, t_idx]
        stats["xy"].add(h * np.einsum("n,np,nq->npq", w_picked, picked, picked))

        # one dataset row + anchor outcome per sample
        data_rows = rng.integers(0, dataset.n, size=size)
        s_d = dataset.states[data_rows].astype(int)
        a_d = dataset.actions[data_rows].astype(int)
        k_d = _draw_categorical_rows(anc_probs[s_d, a_d], rng)
        pen_scores = model.scores(s_d, a_d, k_d)
        stats["zz"].add(lam * np.einsum("np,nq->npq", pen_scores, pen_scores))
        stats["dual_coupling"].add(-pen_scores)
        stats["constraint_gap"].add(kl_cells[s_d, a_d][:, None] - epsilon)
        done += size

    return {name: (mom.mean(), mom.stderr()) for name, mom in stats.items()}


def exact_estimator_targets(mdp, policy, model, dataset, anchor, lam: float,
                            epsilon: float) -> dict:
    """Enumeration-backed expectations matching ``mc_estimator_stats`` keys."""
    from .oracles import exact_expectations, exact_penalty_terms

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
