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
from typing import Callable

import numpy as np

PROB_ATOL = 1e-10
# dp_optimal_policy's value iteration: stopping tolerance and sweep limit
VALUE_ITERATION_TOL, VALUE_ITERATION_MAX = 1e-12, 100_000


class SamplingError(RuntimeError):
    """A rollout hit a non-finite model output or an invalid distribution."""


def read_json_object(path: str | Path, keys) -> dict:
    """The JSON object stored at ``path``; a ``ValueError`` names the file
    and any of ``keys`` it lacks."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object, got "
                         f"{type(payload).__name__}")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise ValueError(f"{path}: missing key(s) {', '.join(missing)}")
    return payload


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
        d = read_json_object(path, ("kind", "transition", "reward_values",
                                    "reward_probs", "init_dist", "gamma",
                                    "horizon"))
        if d["kind"] != "tabular":
            raise ValueError(f"not a tabular MDP file: kind={d['kind']!r}")
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
    """One continuous model rollout, one action per step. The trailing
    action a segment's critic tail needs is drawn by
    ``trainer.collect_rollouts``, not here.

    states: (T+1, state_dim) floats
    actions: (T, action_dim) floats
    rewards: (T,)
    logp_policy: log pi(a_t | s_t) at generation time, (T,)
    logp_model:  log P(r_t, s_{t+1} | s_t, a_t) at generation time, (T,)
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    logp_policy: np.ndarray
    logp_model: np.ndarray
    truncated_early: bool = False

    def __post_init__(self):
        self.rewards = np.asarray(self.rewards, dtype=float)
        self.logp_policy = np.asarray(self.logp_policy, dtype=float)
        self.logp_model = np.asarray(self.logp_model, dtype=float)
        t = self.n_steps
        if len(self.states) != t + 1:
            raise ValueError("need exactly one more state than rewards")
        if len(self.actions) != t:
            raise ValueError("actions must number n_steps")
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


TRANSITION_COLUMNS = ("episode", "t", "s", "a", "r", "s_next", "logp_policy",
                      "logp_model")


def load_transitions_csv(path: str | Path) -> list[dict]:
    """Read back transition rows; states/actions parsed to ints or vectors.
    A ``ValueError`` names the file and a missing column or a short row."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in TRANSITION_COLUMNS
                   if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
        for row in reader:
            if None in row.values():
                raise ValueError(f"{path}: line {reader.line_num} has too "
                                 "few fields")
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


def dp_optimal_policy(mdp: TabularMdp) -> np.ndarray:
    """Greedy stationary policy from infinite-horizon value iteration.

    Ties broken toward the lowest action index (ascending iteration order).
    """
    joint = mdp.joint_outcome_probs()
    out_r, out_s = mdp.outcome_table()
    trans = transition_marginal(joint, out_s, mdp.num_states)
    r_sa = joint @ out_r
    v = np.zeros(mdp.num_states)
    for _ in range(VALUE_ITERATION_MAX):
        q = r_sa + mdp.gamma * trans @ v
        v_new = q.max(axis=1)
        if np.abs(v_new - v).max() < VALUE_ITERATION_TOL:
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
    """One index per row of ``rows`` (n, K), drawn as ``rng.choice(K, p=row)``
    draws it row after row: the same uniforms, looked up in the CDF's columns."""
    return _categorical_lookup(_normalised_cdf(rows).T, rng.random(rows.shape[0]))


def _normalised_cdf(rows: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, divided by their last entry."""
    cdf = np.cumsum(rows, axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _cdf_columns(table: np.ndarray) -> np.ndarray:
    """``_normalised_cdf`` of ``table`` (..., K) as a contiguous (K, C) array
    whose column c is flattened cell c: a batch of cells is one gather."""
    return np.ascontiguousarray(_normalised_cdf(table).reshape(-1, table.shape[-1]).T)


def _categorical_lookup(columns: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index of each uniform ``u[i]`` in column i of the normalised CDF
    ``columns`` (K, n): the number of entries at or below it, as
    ``rng.choice(K, p=row)`` draws it. The last entry is exactly 1 > u, so
    the index stays below K; a zero-probability entry repeats the one before."""
    return (columns <= u).sum(axis=0)


def _tabular_paths(policy_columns: np.ndarray, outcome_columns: np.ndarray,
                   outcome_next: np.ndarray, states0: np.ndarray,
                   u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(states (n, h+1), actions (n, h), outcome codes (n, h)) of paths from
    ``states0``, looked up in ``_cdf_columns`` tables (A, S) and (K, S * A),
    gathered per step at the states s and the cells s * A + a. Rows 2t and
    2t+1 of the (2h, n) uniforms ``u`` draw step t's actions and outcomes."""
    n, h = len(states0), len(u) // 2
    states = np.empty((n, h + 1), dtype=np.int64)
    actions, outcomes = np.empty((2, n, h), dtype=np.int64)
    states[:, 0] = states0
    for t, (u_action, u_outcome) in enumerate(u.reshape(h, 2, n)):
        s = states[:, t]
        a = _categorical_lookup(np.take(policy_columns, s, axis=1), u_action)
        cells = s * len(policy_columns) + a
        k = _categorical_lookup(np.take(outcome_columns, cells, axis=1), u_outcome)
        actions[:, t], outcomes[:, t], states[:, t + 1] = a, k, outcome_next[k]
    return states, actions, outcomes


def sample_tabular_batch(mdp: TabularMdp, policy, model="true", n: int = 1,
                         horizon: int | None = None, seed=0,
                         init_states: np.ndarray | None = None) -> dict:
    """Vectorized batch of tabular rollouts; returns aligned (n, h) arrays.
    Unless ``init_states`` are given, ``rng.random(n)`` draws the start
    states by a search with ``side="right"`` in the initial CDF. Then
    ``rng.random((2h, n))`` gives each step's action and outcome uniforms
    for ``_cdf_columns`` tables built once per call; each draw is the one
    ``rng.choice(K, p=row)`` makes from its uniform."""
    if n <= 0:
        raise ValueError("need a positive number of rollouts")
    rng = _as_rng(seed)
    h = mdp.horizon if horizon is None else horizon
    probs = _policy_probs(policy, mdp)
    joint, out_r, out_s = _model_tables(model, mdp)
    if init_states is None:
        states0 = _normalised_cdf(mdp.init_dist).searchsorted(rng.random(n),
                                                              side="right")
    else:
        states0 = np.asarray(init_states)
        if states0.shape != (n,):
            raise ValueError("init_states must have shape (n,)")
    states, actions, outcomes = _tabular_paths(
        _cdf_columns(probs), _cdf_columns(joint), out_s, states0,
        rng.random((2 * h, n)))
    with np.errstate(divide="ignore"):
        logp_policy = np.log(probs)[states[:, :-1], actions]
        logp_model = np.log(joint)[states[:, :-1], actions, outcomes]
    if not (np.isfinite(logp_policy).all() and np.isfinite(logp_model).all()):
        raise SamplingError("sampled a zero-probability action or outcome")
    return {"states": states, "actions": actions, "outcomes": outcomes,
            "rewards": out_r[outcomes], "logp_policy": logp_policy,
            "logp_model": logp_model}


def sample_trajectory(env, policy, model, horizon: int | None = None,
                      seed=0, init_state=None) -> Trajectory:
    """Roll one imaginary trajectory of a continuous ``model`` from
    ``env.reset`` or ``init_state``: per step, ``policy.sample`` and then
    ``model.sample`` draw from the generator. A non-finite emission ends
    the rollout at the last finite step (``truncated_early``). Stored
    log-probabilities are the sampler's own at generation time."""
    if isinstance(env, TabularMdp):
        raise TypeError("sample_trajectory rolls continuous models; draw "
                        "tabular rollouts with sample_tabular_batch")
    rng = _as_rng(seed)
    h = env.horizon if horizon is None else horizon
    s = env.reset(rng) if init_state is None else np.asarray(init_state, dtype=float)
    states, actions, rewards, logp_pi, logp_m = [s], [], [], [], []
    for _ in range(h):
        a = policy.sample(s, rng)
        lp = policy.log_prob(s, a)
        try:
            s_next, r = model.sample(s, a, rng)
        except SamplingError:
            break
        lm = model.log_prob(s, a, np.append(s_next, r))
        if not (np.isfinite(s_next).all() and np.isfinite(r)
                and np.isfinite(lm)):
            break
        actions.append(a)
        logp_pi.append(lp)
        rewards.append(r)
        logp_m.append(lm)
        states.append(s_next)
        s = s_next
    truncated = len(rewards) < h
    if truncated and not rewards:
        raise SamplingError("model rollout produced no finite transitions")
    return Trajectory(
        states=np.array(states),
        actions=np.array(actions),
        rewards=np.array(rewards),
        logp_policy=np.array(logp_pi),
        logp_model=np.array(logp_m),
        truncated_early=truncated,
    )
