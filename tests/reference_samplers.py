"""Per-row continuous samplers that only the tests read. Each loop here
draws one row and one step at a time from its generator, as a step-by-step
sampler would; the library's batched path loop, ``mdp.sample_trajectory``,
and the batched draws around it must match them bit for bit wherever no
row truncates.
"""

import numpy as np

from stackmbrl.mdp import SamplingError, _as_rng
from stackmbrl.trainer import CRITIC_BATCH_SIZE, _EVAL_STREAM, _stream


def policy_sample(policy, s, rng):
    """One action at the state vector ``s``."""
    return policy.mean(s) + np.exp(policy.log_std) * rng.standard_normal(
        policy.action_dim)


def model_sample(model, s, a, rng):
    """One (next state, reward) emission of a Gaussian world model."""
    mean = model.mean(s, a)
    if not np.isfinite(mean).all():
        raise SamplingError("world model produced a non-finite mean")
    draw = mean + np.exp(model.log_std) * rng.standard_normal(mean.size)
    return draw[:-1], float(draw[-1])


def env_reset(env, rng):
    return env.init_mean + env.init_std * rng.standard_normal(env.state_dim)


def env_step(env, s, a, rng):
    """One true-environment transition, the reward clamped to [0, 1]."""
    mean = np.asarray(env.mean_fn(s, a), dtype=float)
    if not np.isfinite(mean).all():
        raise SamplingError("environment dynamics produced non-finite mean")
    draw = mean + env.std * rng.standard_normal(env.state_dim + 1)
    return draw[:-1], float(np.clip(draw[-1], 0.0, 1.0))


def perturb_step(noise_fraction, s, s_next, rng):
    noise = rng.standard_normal(s_next.shape) * (noise_fraction * (s_next - s))
    return s_next + noise


def collect_rollouts(policy, model, dataset, n_rollouts, length, seed):
    """``trainer.collect_rollouts`` on a continuous task, row after row: per
    step an action and then an emission, then the trailing action. Assumes
    no row truncates."""
    rng = _as_rng(seed)
    starts = np.asarray(dataset.states, dtype=float)[
        rng.integers(0, dataset.n, size=n_rollouts)]
    states, actions, rewards, logp_policy, logp_model = [], [], [], [], []
    for s in starts:
        row = {"s": [s], "a": [], "r": [], "lp": [], "lm": []}
        for _ in range(length):
            a = policy_sample(policy, s, rng)
            s_next, r = model_sample(model, s, a, rng)
            row["a"].append(a)
            row["lp"].append(policy.log_prob(s, a))
            row["lm"].append(model.log_prob(s, a, np.append(s_next, r)))
            row["r"].append(r)
            row["s"].append(s_next)
            s = s_next
        a = policy_sample(policy, s, rng)
        row["a"].append(a)
        row["lp"].append(policy.log_prob(s, a))
        for out, key in ((states, "s"), (actions, "a"), (rewards, "r"),
                         (logp_policy, "lp"), (logp_model, "lm")):
            out.append(row[key])
    states, rewards = np.array(states), np.array(rewards)
    return {"states": states, "actions": np.array(actions),
            "rewards": rewards, "logp_policy": np.array(logp_policy),
            "logp_model": np.array(logp_model),
            "outcomes": np.concatenate([states[:, 1:], rewards[..., None]],
                                       axis=-1)}


def critic_fit_epoch(critic, policy, model, gamma, transitions, rng):
    """``LinearCritic.fit_epoch`` with one model draw and then, after the Q
    fit, one policy draw per sampled transition."""
    n = len(transitions["rewards"])
    idx = rng.integers(0, n, size=min(CRITIC_BATCH_SIZE, n))
    states = np.asarray(transitions["states"], dtype=float)[idx]
    actions = np.asarray(transitions["actions"], dtype=float)[idx]
    next_states = np.empty_like(states)
    rewards = np.empty(len(idx))
    for i in range(len(idx)):
        next_states[i], rewards[i] = model_sample(model, states[i],
                                                  actions[i], rng)
    q_targets = rewards + gamma * critic.target_state_values(next_states)
    feats_q = np.concatenate([states, actions, np.ones((len(idx), 1))],
                             axis=1)
    critic.q = np.linalg.lstsq(feats_q, q_targets, rcond=None)[0]
    fresh = np.array([policy_sample(policy, s, rng) for s in states])
    feats_v = np.concatenate([states, np.ones((len(idx), 1))], axis=1)
    critic.v = np.linalg.lstsq(
        feats_v, critic.tail_values(states, fresh), rcond=None)[0]


def rollout_dataset(env, policy, n_episodes, seed):
    """(states, actions, rewards, next states) of ``models.rollout_dataset``
    on a continuous task, episode after episode."""
    rows = []
    for e in range(n_episodes):
        rng = np.random.default_rng((seed, e))
        s = env_reset(env, rng)
        for _ in range(env.horizon):
            a = policy_sample(policy, s, rng)
            s_next, r = env_step(env, s, a, rng)
            rows.append((s, a, r, s_next))
            s = s_next
    return tuple(map(np.array, zip(*rows)))


def episode_returns(env, policy, noise_fraction, n_episodes, seed):
    """``trainer.episode_returns``, episode after episode and step after
    step, from one stream: the start state, then per step the action, the
    emission and the noise, then the trailing action, drawn and discarded."""
    rng = _stream(seed, _EVAL_STREAM)
    returns = np.empty(n_episodes)
    for episode in range(n_episodes):
        s = env_reset(env, rng)
        episode_return = 0.0
        for t in range(env.horizon):
            a = policy_sample(policy, s, rng)
            s_next, reward = env_step(env, s, a, rng)
            s = perturb_step(noise_fraction, s, s_next, rng)
            episode_return += env.gamma ** t * reward
        policy_sample(policy, s, rng)
        returns[episode] = episode_return
    return returns
