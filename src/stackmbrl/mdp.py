"""MDP containers, exact dynamic-programming oracles, samplers, noisy deployment.

Conventions used throughout the package:

- Finite horizon ``h`` everywhere; returns are sums of absolutely discounted
  rewards ``sum_j gamma^j r_j`` with ``j = 0 .. h-1``.
- Tabular joint outcomes: a transition emits an outcome index
  ``k = reward_index * num_states + next_state`` drawn from a per-(s, a)
  categorical over the global alphabet of (reward value, next state) pairs.
- Continuous transitions emit the pair (next state, reward) jointly; rewards
  are clamped to [0, 1] on emission by the true environment.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

PROB_ATOL = 1e-10


class SamplingError(RuntimeError):
    """A rollout hit a non-finite model output or an invalid distribution."""


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


@dataclass
class TabularMdp:
    """Finite MDP with a global finite reward alphabet.

    transition: (S, A, S) next-state probabilities
    reward_values: (R,) distinct reward values in [0, 1], shared by all cells
    reward_probs: (S, A, R) per-cell distribution over reward values,
        independent of the next state (the joint outcome alphabet is the
        product; learned models may put arbitrary joint mass on it)
    init_dist: (S,) initial state distribution
    """

    transition: np.ndarray
    reward_values: np.ndarray
    reward_probs: np.ndarray
    init_dist: np.ndarray
    gamma: float
    horizon: int

    def __post_init__(self):
        self.transition = np.asarray(self.transition, dtype=float)
        self.reward_values = np.asarray(self.reward_values, dtype=float)
        self.reward_probs = np.asarray(self.reward_probs, dtype=float)
        self.init_dist = np.asarray(self.init_dist, dtype=float)
        s, a, s2 = self.transition.shape
        if s != s2:
            raise ValueError("transition tensor must be (S, A, S)")
        if self.reward_probs.shape != (s, a, self.reward_values.size):
            raise ValueError("reward_probs shape must match (S, A, R)")
        if self.init_dist.shape != (s,):
            raise ValueError("init_dist shape must be (S,)")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if self.horizon <= 0:
            raise ValueError("horizon must be a positive integer")
        for name, arr in [("transition", self.transition),
                          ("reward_probs", self.reward_probs)]:
            if (arr < -PROB_ATOL).any():
                raise ValueError(f"{name} has negative entries")
            if not np.allclose(arr.sum(axis=-1), 1.0, atol=PROB_ATOL):
                raise ValueError(f"{name} rows must sum to 1")
        if not np.isclose(self.init_dist.sum(), 1.0, atol=PROB_ATOL):
            raise ValueError("init_dist must sum to 1")
        if (self.reward_values < 0).any() or (self.reward_values > 1).any():
            raise ValueError("reward values must lie in [0, 1]")

    @property
    def num_states(self) -> int:
        return self.transition.shape[0]

    @property
    def num_actions(self) -> int:
        return self.transition.shape[1]

    @property
    def num_reward_values(self) -> int:
        return self.reward_values.size

    @property
    def num_outcomes(self) -> int:
        return self.num_reward_values * self.num_states

    def outcome_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(rewards, next states) for the packed outcome alphabet."""
        k = self.num_outcomes
        idx = np.arange(k)
        rewards = self.reward_values[idx // self.num_states]
        next_states = idx % self.num_states
        return rewards, next_states

    def joint_outcome_probs(self) -> np.ndarray:
        """(S, A, K) joint probabilities of (reward value, next state)."""
        # reward and next state are conditionally independent in the true MDP
        joint = self.reward_probs[:, :, :, None] * self.transition[:, :, None, :]
        return joint.reshape(self.num_states, self.num_actions, self.num_outcomes)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "kind": "tabular",
            "transition": self.transition.tolist(),
            "reward_values": self.reward_values.tolist(),
            "reward_probs": self.reward_probs.tolist(),
            "init_dist": self.init_dist.tolist(),
            "gamma": self.gamma,
            "horizon": self.horizon,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True))

    @staticmethod
    def load(path: str | Path) -> "TabularMdp":
        d = json.loads(Path(path).read_text())
        if d.get("kind") != "tabular":
            raise ValueError(f"not a tabular MDP file: kind={d.get('kind')!r}")
        return TabularMdp(
            transition=np.array(d["transition"]),
            reward_values=np.array(d["reward_values"]),
            reward_probs=np.array(d["reward_probs"]),
            init_dist=np.array(d["init_dist"]),
            gamma=d["gamma"],
            horizon=d["horizon"],
        )


@dataclass
class ContinuousMdp:
    """Continuous-state MDP whose transitions are diagonal Gaussians.

    mean_fn(s, a) returns the (state_dim + 1,) mean of the joint (s', r)
    emission; std is its diagonal standard deviation. The reward (last
    coordinate) is clamped to [0, 1] on emission.
    """

    state_dim: int
    action_dim: int
    mean_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    std: np.ndarray
    init_mean: np.ndarray
    init_std: np.ndarray
    gamma: float
    horizon: int
    name: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.std = np.asarray(self.std, dtype=float)
        self.init_mean = np.asarray(self.init_mean, dtype=float)
        self.init_std = np.asarray(self.init_std, dtype=float)
        if self.std.shape != (self.state_dim + 1,):
            raise ValueError("std must have shape (state_dim + 1,)")
        if (self.std <= 0).any():
            raise ValueError("std entries must be positive")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if self.horizon <= 0:
            raise ValueError("horizon must be a positive integer")

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        return self.init_mean + self.init_std * rng.standard_normal(self.state_dim)

    def step(self, s: np.ndarray, a: np.ndarray,
             rng: np.random.Generator) -> tuple[np.ndarray, float]:
        mean = np.asarray(self.mean_fn(s, a), dtype=float)
        if not np.isfinite(mean).all():
            raise SamplingError("environment dynamics produced non-finite mean")
        draw = mean + self.std * rng.standard_normal(self.state_dim + 1)
        s_next = draw[:-1]
        reward = float(np.clip(draw[-1], 0.0, 1.0))
        return s_next, reward

    def to_dict(self) -> dict:
        if not self.name:
            raise ValueError("only registered, named continuous MDPs serialize")
        return {"kind": "continuous", "name": self.name, "params": dict(self.params)}


@dataclass
class Trajectory:
    """One rollout. ``actions`` may carry one trailing bootstrap action.

    states: (T+1,) ints for tabular, (T+1, d) floats for continuous
    actions: (T,) or (T+1,) (trailing action has no transition row)
    rewards: (T,)
    logp_policy: log pi(a_t | s_t) at generation time, same length as actions
    logp_model:  log P(r_t, s_{t+1} | s_t, a_t) at generation time, (T,)
    outcomes: packed outcome indices (T,), tabular only
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    logp_policy: np.ndarray
    logp_model: np.ndarray
    outcomes: np.ndarray | None = None
    truncated_early: bool = False

    def __post_init__(self):
        self.rewards = np.asarray(self.rewards, dtype=float)
        self.logp_policy = np.asarray(self.logp_policy, dtype=float)
        self.logp_model = np.asarray(self.logp_model, dtype=float)
        t = self.n_steps
        if len(self.states) != t + 1:
            raise ValueError("need exactly one more state than rewards")
        if len(self.actions) not in (t, t + 1):
            raise ValueError("actions must number n_steps or n_steps + 1")
        if len(self.logp_policy) != len(self.actions):
            raise ValueError("logp_policy must align with actions")
        if len(self.logp_model) != t:
            raise ValueError("logp_model must align with rewards")
        for name in ("logp_policy", "logp_model"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} has non-finite entries")

    @property
    def n_steps(self) -> int:
        return len(self.rewards)

    @property
    def has_bootstrap_action(self) -> bool:
        return len(self.actions) == self.n_steps + 1


def _format_state(s) -> str:
    if np.ndim(s) == 0:
        return repr(int(s)) if float(s).is_integer() else repr(float(s))
    return " ".join(repr(float(x)) for x in np.asarray(s).ravel())


def _parse_state(text: str):
    parts = text.split()
    if len(parts) == 1 and "." not in parts[0] and "e" not in parts[0]:
        return int(parts[0])
    vec = np.array([float(p) for p in parts])
    return vec if vec.size > 1 or "." in text or "e" in text else int(vec[0])


def save_trajectories_csv(trajectories: Sequence[Trajectory], path: str | Path) -> None:
    """Write transition rows (t, s, a, r, s_next, logp_policy, logp_model)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "t", "s", "a", "r", "s_next",
                         "logp_policy", "logp_model"])
        for ep, tr in enumerate(trajectories):
            for t in range(tr.n_steps):
                writer.writerow([
                    ep, t,
                    _format_state(tr.states[t]),
                    _format_state(tr.actions[t]),
                    repr(float(tr.rewards[t])),
                    _format_state(tr.states[t + 1]),
                    repr(float(tr.logp_policy[t])),
                    repr(float(tr.logp_model[t])),
                ])


def load_transitions_csv(path: str | Path) -> list[dict]:
    """Read back transition rows; states/actions parsed to ints or vectors."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append({
                "episode": int(row["episode"]),
                "t": int(row["t"]),
                "s": _parse_state(row["s"]),
                "a": _parse_state(row["a"]),
                "r": float(row["r"]),
                "s_next": _parse_state(row["s_next"]),
                "logp_policy": float(row["logp_policy"]),
                "logp_model": float(row["logp_model"]),
            })
    return rows


# ---------------------------------------------------------------------------
# noisy deployment
# ---------------------------------------------------------------------------


def perturb_step(noise_fraction: float, s: np.ndarray, s_next: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """Perturb a realized transition with per-dimension relative Gaussian noise.

    Each dimension receives zero-mean Gaussian noise whose standard deviation
    is ``noise_fraction * (s_next - s)`` in that dimension. The normal draw
    always happens, so clean (fraction 0) and noisy runs consume identical
    random streams and stay step-for-step coupled under a shared seed.
    """
    if noise_fraction < 0:
        raise ValueError("noise fraction must be non-negative")
    s = np.asarray(s, dtype=float)
    s_next = np.asarray(s_next, dtype=float)
    noise = rng.standard_normal(s_next.shape) * (noise_fraction * (s_next - s))
    return s_next + noise


@dataclass
class NoisyDeployment:
    """Wraps a continuous environment with relative transition noise."""

    inner: ContinuousMdp
    noise_fraction: float

    def __post_init__(self):
        if self.noise_fraction < 0:
            raise ValueError("noise fraction must be non-negative")

    @property
    def gamma(self) -> float:
        return self.inner.gamma

    @property
    def horizon(self) -> int:
        return self.inner.horizon

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        return self.inner.reset(rng)

    def step(self, s: np.ndarray, a: np.ndarray, rng_env: np.random.Generator,
             rng_noise: np.random.Generator) -> tuple[np.ndarray, float]:
        s_next, reward = self.inner.step(s, a, rng_env)
        return perturb_step(self.noise_fraction, s, s_next, rng_noise), reward


# ---------------------------------------------------------------------------
# exact dynamic-programming oracles (tabular)
# ---------------------------------------------------------------------------


def _policy_probs(policy, mdp: TabularMdp) -> np.ndarray:
    if isinstance(policy, str):
        if policy != "uniform":
            raise ValueError(f"unknown policy shorthand {policy!r}")
        return np.full((mdp.num_states, mdp.num_actions), 1.0 / mdp.num_actions)
    if hasattr(policy, "probs_all"):
        return policy.probs_all()
    probs = np.asarray(policy, dtype=float)
    if probs.shape != (mdp.num_states, mdp.num_actions):
        raise ValueError("policy array must be (S, A)")
    return probs


def _model_tables(model, mdp: TabularMdp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(joint (S,A,K), outcome rewards (K,), outcome next states (K,))."""
    if isinstance(model, str):
        if model != "true":
            raise ValueError(f"unknown model shorthand {model!r}")
        rewards, nexts = mdp.outcome_table()
        return mdp.joint_outcome_probs(), rewards, nexts
    return (model.probs_all(), np.asarray(model.outcome_rewards, dtype=float),
            np.asarray(model.outcome_next_states))


def dp_values(joint: np.ndarray, outcome_rewards: np.ndarray,
              outcome_next: np.ndarray, policy_probs: np.ndarray,
              gamma: float, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Finite-horizon values under (policy, model).

    Returns (V, Q) with V[t] (S,) and Q[t] (S, A) the expected *relatively*
    discounted reward-to-go ``E[sum_{j>=t} gamma^(j-t) r_j]``; V[horizon] = 0.
    """
    s, a, _ = joint.shape
    v_steps = [np.zeros(s)]
    q_steps = [np.zeros((s, a))]
    v = v_steps[0]
    for _ in range(horizon):
        cont = outcome_rewards + gamma * v[outcome_next]  # (K,)
        q = joint @ cont
        v = (policy_probs * q).sum(axis=1)
        v_steps.append(v)
        q_steps.append(q)
    v_steps.reverse()
    q_steps.reverse()
    return np.array(v_steps), np.array(q_steps)


def exact_return(mdp: TabularMdp, policy, model="true") -> float:
    """Exact finite-horizon discounted return by backward induction."""
    if not isinstance(mdp, TabularMdp):
        raise TypeError("exact_return requires a tabular MDP")
    probs = _policy_probs(policy, mdp)
    joint, out_r, out_s = _model_tables(model, mdp)
    v, _ = dp_values(joint, out_r, out_s, probs, mdp.gamma, mdp.horizon)
    return float(mdp.init_dist @ v[0])


def transition_marginal(joint: np.ndarray, outcome_next: np.ndarray,
                        num_states: int) -> np.ndarray:
    """(S, A, S) next-state marginal of a joint outcome table."""
    onehot = np.eye(num_states)[outcome_next]  # (K, S)
    return joint @ onehot


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


def stationary_values(joint: np.ndarray, outcome_rewards: np.ndarray,
                      outcome_next: np.ndarray, policy_probs: np.ndarray,
                      gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Infinite-horizon discounted (V, Q) under (policy, model), by linear solve."""
    s = joint.shape[0]
    trans = transition_marginal(joint, outcome_next, s)
    r_sa = joint @ outcome_rewards
    p_pi = np.einsum("sa,sau->su", policy_probs, trans)
    r_pi = (policy_probs * r_sa).sum(axis=1)
    v = np.linalg.solve(np.eye(s) - gamma * p_pi, r_pi)
    q = r_sa + gamma * trans @ v
    return v, q


def dp_optimal_policy(mdp: TabularMdp, tol: float = 1e-12,
                      max_iter: int = 100_000) -> np.ndarray:
    """Greedy stationary policy from infinite-horizon value iteration.

    Ties broken toward the lowest action index (ascending iteration order).
    """
    joint = mdp.joint_outcome_probs()
    out_r, out_s = mdp.outcome_table()
    trans = transition_marginal(joint, out_s, mdp.num_states)
    r_sa = joint @ out_r
    v = np.zeros(mdp.num_states)
    for _ in range(max_iter):
        q = r_sa + mdp.gamma * trans @ v
        v_new = q.max(axis=1)
        if np.abs(v_new - v).max() < tol:
            v = v_new
            break
        v = v_new
    q = r_sa + mdp.gamma * trans @ v
    return q.argmax(axis=1)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def _draw_categorical_rows(rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorized draw of one index per probability row."""
    cdf = np.cumsum(rows, axis=1)
    u = rng.random(rows.shape[0])
    idx = (u[:, None] > cdf).sum(axis=1)
    return np.minimum(idx, rows.shape[1] - 1)


def sample_tabular_batch(mdp: TabularMdp, policy, model="true", n: int = 1,
                         horizon: int | None = None, seed=0,
                         init_states: np.ndarray | None = None) -> dict:
    """Vectorized batch of tabular rollouts; returns aligned (n, h) arrays."""
    if n <= 0:
        raise ValueError("need a positive number of rollouts")
    rng = _as_rng(seed)
    h = mdp.horizon if horizon is None else horizon
    probs = _policy_probs(policy, mdp)
    joint, out_r, out_s = _model_tables(model, mdp)
    with np.errstate(divide="ignore"):
        log_probs = np.log(probs)
        log_joint = np.log(joint)

    if init_states is None:
        states0 = _draw_categorical_rows(np.tile(mdp.init_dist, (n, 1)), rng)
    else:
        states0 = np.asarray(init_states)
        if states0.shape != (n,):
            raise ValueError("init_states must have shape (n,)")
    states = np.empty((n, h + 1), dtype=np.int64)
    actions = np.empty((n, h), dtype=np.int64)
    outcomes = np.empty((n, h), dtype=np.int64)
    rewards = np.empty((n, h))
    logp_policy = np.empty((n, h))
    logp_model = np.empty((n, h))
    states[:, 0] = states0
    for t in range(h):
        s = states[:, t]
        a = _draw_categorical_rows(probs[s], rng)
        k = _draw_categorical_rows(joint[s, a], rng)
        actions[:, t] = a
        outcomes[:, t] = k
        rewards[:, t] = out_r[k]
        logp_policy[:, t] = log_probs[s, a]
        logp_model[:, t] = log_joint[s, a, k]
        states[:, t + 1] = out_s[k]
    if not (np.isfinite(logp_policy).all() and np.isfinite(logp_model).all()):
        raise SamplingError("sampled a zero-probability action or outcome")
    return {"states": states, "actions": actions, "outcomes": outcomes,
            "rewards": rewards, "logp_policy": logp_policy,
            "logp_model": logp_model}


def batch_to_trajectories(batch: dict) -> list[Trajectory]:
    n = batch["states"].shape[0]
    return [
        Trajectory(
            states=batch["states"][i],
            actions=batch["actions"][i],
            rewards=batch["rewards"][i],
            logp_policy=batch["logp_policy"][i],
            logp_model=batch["logp_model"][i],
            outcomes=batch["outcomes"][i],
        )
        for i in range(n)
    ]


def sample_trajectory(env, policy, model=None, horizon: int | None = None,
                      seed=0, init_state=None,
                      bootstrap_action: bool = False) -> Trajectory:
    """Roll one trajectory.

    With ``model`` given, dynamics and rewards come from the model (imaginary
    rollout); otherwise from the true environment. Log-probabilities stored on
    the trajectory are the sampler's own evaluations at generation time.
    """
    rng = _as_rng(seed)
    h = env.horizon if horizon is None else horizon
    if isinstance(env, TabularMdp):
        model_arg = "true" if model is None else model
        init = None if init_state is None else np.array([init_state])
        batch = sample_tabular_batch(env, policy, model_arg, n=1, horizon=h,
                                     seed=rng, init_states=init)
        traj = batch_to_trajectories(batch)[0]
        if bootstrap_action:
            s_last = int(traj.states[-1])
            probs = _policy_probs(policy, env)[s_last]
            a_last = int(_draw_categorical_rows(probs[None, :], rng)[0])
            traj = Trajectory(
                states=traj.states,
                actions=np.append(traj.actions, a_last),
                rewards=traj.rewards,
                logp_policy=np.append(traj.logp_policy,
                                      np.log(probs[a_last])),
                logp_model=traj.logp_model,
                outcomes=traj.outcomes,
            )
        return traj
    return _sample_continuous(env, policy, model, h, rng, init_state,
                              bootstrap_action)


def _sample_continuous(env, policy, model, horizon, rng, init_state,
                       bootstrap_action) -> Trajectory:
    s = env.reset(rng) if init_state is None else np.asarray(init_state, dtype=float)
    states, actions, rewards, logp_pi, logp_m = [s], [], [], [], []
    truncated = False
    for _ in range(horizon):
        a = policy.sample(s, rng)
        lp = policy.log_prob(s, a)
        if model is None:
            s_next, r = env.step(s, a, rng)
            lm = env_log_prob(env, s, a, s_next, r)
        else:
            try:
                s_next, r = model.sample(s, a, rng)
            except SamplingError:
                truncated = True
                break
            lm = model.log_prob(s, a, np.append(s_next, r))
            if not (np.isfinite(s_next).all() and np.isfinite(r)
                    and np.isfinite(lm)):
                truncated = True
                break
        actions.append(a)
        logp_pi.append(lp)
        rewards.append(r)
        logp_m.append(lm)
        states.append(s_next)
        s = s_next
    if truncated and not rewards:
        raise SamplingError("model rollout produced no finite transitions")
    if bootstrap_action and not truncated:
        a_last = policy.sample(s, rng)
        actions.append(a_last)
        logp_pi.append(policy.log_prob(s, a_last))
    return Trajectory(
        states=np.array(states),
        actions=np.array(actions),
        rewards=np.array(rewards),
        logp_policy=np.array(logp_pi),
        logp_model=np.array(logp_m),
        truncated_early=truncated,
    )


def env_log_prob(env: ContinuousMdp, s, a, s_next, reward) -> float:
    """Density of the true environment's unclamped (s', r) emission."""
    mean = np.asarray(env.mean_fn(s, a), dtype=float)
    y = np.append(np.asarray(s_next, dtype=float), reward)
    z = (y - mean) / env.std
    return float(-0.5 * (z ** 2).sum() - np.log(env.std).sum()
                 - 0.5 * y.size * np.log(2.0 * np.pi))


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
