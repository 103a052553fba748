"""Dense reference estimators for the tests: plain score-function gradients
and streaming Monte-Carlo statistics of every factor recipe.

They take dense step scores, (n, h, n_params) arrays that callers expand
from the models' block scores with ``.dense()``; the library's estimators
never form them.
"""

import numpy as np

from stackmbrl.models import (CategoricalWorldModel, OfflineDataset,
                              SoftmaxPolicy, categorical_kl)


def discounted_weights(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """w_t = sum_{j >= t} gamma^j r_j for a (n, h) reward batch."""
    rewards = np.atleast_2d(np.asarray(rewards, dtype=float))
    disc = rewards * gamma ** np.arange(rewards.shape[1])
    return disc[:, ::-1].cumsum(axis=1)[:, ::-1]


def psi_gradients(weights: np.ndarray, step_scores: np.ndarray) -> np.ndarray:
    """Per-trajectory grad Psi = sum_t w_t score_t; (n, n_params)."""
    return np.einsum("nh,nhp->np", weights, step_scores)


def policy_gradient(weights: np.ndarray, theta_scores: np.ndarray) -> np.ndarray:
    """Mean of per-trajectory policy-score gradients."""
    return psi_gradients(weights, theta_scores).mean(axis=0)


def model_gradient(weights: np.ndarray, phi_scores: np.ndarray) -> np.ndarray:
    """Mean of per-trajectory model-score gradients."""
    return psi_gradients(weights, phi_scores).mean(axis=0)


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
    (dataset row, anchor outcome) pairs, one per sample. The step draw
    checks the ``xy`` target, which the factor recipe reaches with one
    column per batch step instead; the penalty draw checks the ``zz``
    target, which the trainer's penalty base holds in closed form.
    """
    from stackmbrl.mdp import _draw_categorical_rows, sample_tabular_batch

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
    kl_cells = categorical_kl(anc_probs, model.probs_all())

    done = 0
    batch_seed = 0
    while done < n_samples:
        size = min(chunk, n_samples - done)
        batch = sample_tabular_batch(mdp, policy, model, n=size, seed=(seed, batch_seed))
        batch_seed += 1
        weights = discounted_weights(batch["rewards"], mdp.gamma)
        states = batch["states"][:, :-1]
        th_scores = policy.scores(states, batch["actions"]).dense()
        ph_scores = model.scores(states, batch["actions"],
                                 batch["outcomes"]).dense()
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
        pen_scores = model.scores(s_d, a_d, k_d).dense()
        stats["zz"].add(lam * np.einsum("np,nq->npq", pen_scores, pen_scores))
        stats["dual_coupling"].add(-pen_scores)
        stats["constraint_gap"].add(kl_cells[s_d, a_d][:, None] - epsilon)
        done += size

    return {name: (mom.mean(), mom.stderr()) for name, mom in stats.items()}
