"""MDP containers, exact dynamic-programming oracles, samplers, noisy deployment.

Conventions used throughout the package:

- Finite horizon ``h`` everywhere; returns are sums of absolutely discounted
  rewards ``sum_j gamma^j r_j`` with ``j = 0 .. h-1``.
- Tabular joint outcomes: a transition emits an outcome index
  ``k = reward_index * num_states + next_state`` drawn from a per-(s, a)
  categorical over the global alphabet of (reward value, next state) pairs.
- Continuous transitions emit the pair (next state, reward) jointly, as one
  (state_dim + 1,) vector with the reward last; the true environment clamps
  rewards to [0, 1] on emission. Continuous states, actions and emissions
  are vectors on the trailing axis of arrays of any leading shape, and
  every draw takes its standard normals as an argument: one path loop,
  ``sample_trajectory``, lays them out for model rollouts, datasets and
  noisy deployment alike.
"""

from __future__ import annotations

import csv
import json
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

PROB_ATOL = 1e-10
# dp_optimal_policy's value iteration: stopping tolerance and sweep limit
VALUE_ITERATION_TOL, VALUE_ITERATION_MAX = 1e-12, 100_000


class SamplingError(RuntimeError):
    """A rollout hit a non-finite model output or an invalid distribution."""


@contextmanager
def reading(source):
    """Re-raise a ``ValueError`` or ``TypeError`` from parsing or checking
    ``source`` (a file or a key in one; never a run) as a ``ValueError`` naming it."""
    try:
        yield
    except (ValueError, TypeError) as err:
        raise ValueError(f"{source}: {err}") from err


def read_json_object(path: str | Path, keys) -> dict:
    """The JSON object stored at ``path``, holding exactly ``keys`` unless
    ``keys`` is empty; a ``ValueError`` names the file and its JSON error,
    a key it lacks or one it holds besides."""
    with reading(path):
        with reading("invalid JSON"):
            payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict):
            raise ValueError("expected a JSON object, got "
                             f"{type(payload).__name__}")
        check_names("key", keys, payload, ())
    return payload


def check_names(what: str, expected, found, optional) -> None:
    """Raise a ``ValueError`` naming each of ``expected`` that ``found``
    lacks and, unless ``expected`` and ``optional`` are both empty, each
    name it holds that is in neither."""
    known = (*expected, *optional)
    wrong = {"missing": [name for name in expected if name not in found],
             "unknown": [name for name in found if known and name not in known]}
    if any(wrong.values()):
        raise ValueError("; ".join(f"{kind} {what}(s) {', '.join(names)}"
                                   for kind, names in wrong.items() if names))


def write_json(path: str | Path, payload: dict) -> None:
    """Write ``payload`` to ``path`` as every JSON artifact is written:
    one-space indent, sorted keys, no trailing newline."""
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True))


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


def _check_discounting(gamma, horizon) -> None:
    """Refuse a ``horizon`` that is not an integer >= 1 and a ``gamma``
    that is not a real number in [0, 1), naming the field."""
    if (type(horizon) is bool or not isinstance(horizon, numbers.Integral)
            or horizon < 1):
        raise ValueError(f"horizon must be an integer >= 1, got {horizon!r}")
    if type(gamma) is bool or not isinstance(gamma, numbers.Real) or not 0 <= gamma < 1:
        raise ValueError(f"gamma must be a real number in [0, 1), got {gamma!r}")


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
        for name in ("transition", "reward_values", "reward_probs", "init_dist"):
            with reading(name):
                setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        shape = self.transition.shape
        if len(shape) != 3 or shape[0] != shape[2]:
            raise ValueError("transition tensor must be (S, A, S)")
        s, a, _ = shape
        if self.reward_probs.shape != (s, a, self.reward_values.size):
            raise ValueError("reward_probs shape must match (S, A, R)")
        if self.init_dist.shape != (s,):
            raise ValueError("init_dist shape must be (S,)")
        _check_discounting(self.gamma, self.horizon)
        for name, arr in [("transition", self.transition),
                          ("reward_probs", self.reward_probs)]:
            if (arr < -PROB_ATOL).any():
                raise ValueError(f"{name} has negative entries")
            if not np.allclose(arr.sum(axis=-1), 1.0, atol=PROB_ATOL):
                raise ValueError(f"{name} rows must sum to 1")
        if not np.isclose(self.init_dist.sum(), 1.0, atol=PROB_ATOL):
            raise ValueError("init_dist must sum to 1")
        if not ((self.reward_values >= 0) & (self.reward_values <= 1)).all():
            raise ValueError("reward_values must lie in [0, 1]")
        with reading("reward_values"):
            if self.reward_values.ndim != 1 or not np.diff(
                    np.sort(self.reward_values)).all():
                raise ValueError(f"must be a list of distinct numbers, got "
                                 f"{self.reward_values.tolist()}")

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
        write_json(path, self.to_dict())


@dataclass
class ContinuousMdp:
    """Continuous-state MDP whose transitions are diagonal Gaussians.

    ``mean_fn(states, actions)`` maps states (..., state_dim) and actions
    (..., action_dim) to the (..., state_dim + 1) means of the joint (s', r)
    emissions, vectors on the trailing axis and any leading shape; std is
    their diagonal standard deviation. The reward (last coordinate) is
    clamped to [0, 1] on emission.
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
        if self.init_mean.shape != self.init_std.shape or self.init_std.shape != (
                self.state_dim,) or not (self.init_std >= 0).all():
            raise ValueError("init_mean and init_std must have shape "
                             "(state_dim,), init_std entries non-negative")
        _check_discounting(self.gamma, self.horizon)

    def reset(self, normals: np.ndarray) -> np.ndarray:
        """Start states (..., state_dim) from as many standard normals."""
        return self.init_mean + self.init_std * normals

    def step(self, states: np.ndarray, actions: np.ndarray,
             normals: np.ndarray) -> np.ndarray:
        """(..., state_dim + 1) joint (s', r) emissions, the means plus std
        times ``normals`` of that shape, rewards clamped to [0, 1]. A
        non-finite mean raises ``SamplingError``."""
        mean = np.asarray(self.mean_fn(states, actions), dtype=float)
        if not np.isfinite(mean).all():
            raise SamplingError("environment dynamics produced non-finite mean")
        draw = mean + self.std * normals
        draw[..., -1] = np.clip(draw[..., -1], 0.0, 1.0)
        return draw

    def to_dict(self) -> dict:
        if not self.name:
            raise ValueError("only registered, named continuous MDPs serialize")
        return {"kind": "continuous", "name": self.name, "params": dict(self.params)}


def write_csv(path: str | Path, header, rows) -> None:
    """Write the ``header`` row, then each of ``rows``, to ``path`` as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# noisy deployment
# ---------------------------------------------------------------------------


def perturb_step(noise_fraction: float, s: np.ndarray, s_next: np.ndarray,
                 normals: np.ndarray) -> np.ndarray:
    """Perturb realized transitions with per-dimension relative Gaussian noise.

    Each dimension receives zero-mean Gaussian noise whose standard deviation
    is ``noise_fraction * (s_next - s)`` in that dimension, drawn as that
    times ``normals`` of ``s_next``'s shape. The normals are drawn whatever
    the fraction, so clean (fraction 0) and noisy runs consume identical
    random streams and stay step-for-step coupled under a shared seed.
    """
    if not 0.0 <= noise_fraction < np.inf:
        raise ValueError("noise fraction must be finite and non-negative, "
                         f"got {noise_fraction}")
    noise = normals * (noise_fraction * (s_next - s))
    return s_next + noise


@dataclass
class NoisyDeployment:
    """Wraps a continuous environment with relative transition noise."""

    inner: ContinuousMdp
    noise_fraction: float

    def __post_init__(self):
        if not 0.0 <= self.noise_fraction < np.inf:
            raise ValueError("noise fraction must be finite and non-negative, "
                             f"got {self.noise_fraction}")

    def step(self, states: np.ndarray, actions: np.ndarray,
             normals: np.ndarray) -> np.ndarray:
        """The inner environment's emissions with ``perturb_step`` applied to
        their next states. The first state_dim + 1 of the (..., 2 *
        state_dim + 1) ``normals`` draw the emission, the rest the noise."""
        k = self.inner.state_dim + 1
        emissions = self.inner.step(states, actions, normals[..., :k])
        emissions[..., :-1] = perturb_step(self.noise_fraction, states,
                                           emissions[..., :-1],
                                           normals[..., k:])
        return emissions


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
        logp_policy = np.log(probs[states[:, :-1], actions])
        logp_model = np.log(joint[states[:, :-1], actions, outcomes])
    if not (np.isfinite(logp_policy).all() and np.isfinite(logp_model).all()):
        raise SamplingError("sampled a zero-probability action or outcome")
    return {"states": states, "actions": actions, "outcomes": outcomes,
            "rewards": out_r[outcomes], "logp_policy": logp_policy,
            "logp_model": logp_model}


def sample_trajectory(policy, emit, states0: np.ndarray, normals: np.ndarray,
                      horizon: int) -> dict:
    """Continuous paths of ``policy`` from ``states0`` (n, d), every row at
    once: the continuous twin of ``_tabular_paths``.

    Row i of ``normals`` is the fixed block of standard normals its own
    generator would draw step by step: per step, a = ``policy.action_dim``
    for the action and then k for the emission, and after the ``horizon``
    steps a more for a trailing action. ``emit(states, actions, normals)``
    maps (n, d), (n, a) and (n, k) to the (n, d + 1) joint (s', r)
    emissions and their (n,) log-densities (or a scalar 0.0 where they are
    not tracked). A row whose emission or log-density is non-finite stops
    at that step, which lands in ``lengths``: its state freezes, its later
    rewards and log-densities are zero, and its later actions are drawn at
    the frozen state from its own block, so no other row's draws move. A
    row with no finite step raises ``SamplingError``.

    Returns states (n, h+1, d), actions (n, h+1, a), rewards (n, h),
    logp_model (n, h) and lengths (n,).
    """
    n, a = len(states0), policy.action_dim
    per_step = (normals.shape[1] - a) // horizon  # a + k
    steps = normals[:, :-a].reshape(n, horizon, per_step)
    action_normals = np.concatenate([steps[..., :a], normals[:, None, -a:]],
                                    axis=1)
    states = np.empty((n, horizon + 1, states0.shape[-1]))
    actions = np.empty((n, horizon + 1, a))
    rewards, logp_model = np.zeros((2, n, horizon))
    lengths = np.full(n, horizon)
    states[:, 0] = states0
    for t in range(horizon):
        s = states[:, t]
        actions[:, t] = policy.samples(s, action_normals[:, t])
        emissions, logp = emit(s, actions[:, t], steps[:, t, a:])
        running = lengths == horizon
        live = (running & np.isfinite(emissions).all(axis=-1)
                & np.isfinite(logp))
        lengths[running & ~live] = t
        states[:, t + 1] = np.where(live[:, None], emissions[:, :-1], s)
        rewards[:, t] = np.where(live, emissions[:, -1], 0.0)
        logp_model[:, t] = np.where(live, logp, 0.0)
    actions[:, horizon] = policy.samples(states[:, horizon],
                                         action_normals[:, horizon])
    if not lengths.all():
        raise SamplingError("model rollout produced no finite transitions")
    return {"states": states, "actions": actions, "rewards": rewards,
            "logp_model": logp_model, "lengths": lengths}
