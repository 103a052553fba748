"""Parameter vectors, policies, world models, offline datasets, MLE fitting.

Models and datasets are value objects: ``with_params`` returns a new
instance, nothing mutates in place. Per-instance caches rely on that: a
softmax family normalises its logits once, a dataset groups its cells once.

The policy and the world model are both likelihood players, and each comes
in one of two distribution kinds, implemented once and shared:

* a softmax table (``_SoftmaxTable``): ``SoftmaxPolicy`` over the (S, A)
  logits, ``CategoricalWorldModel`` over the (S, A, K) logits;
* an affine Gaussian (``_AffineGaussian``): ``DiagGaussianPolicy`` with its
  mean affine in the state, ``DiagGaussianWorldModel`` with its mean affine
  in (state, action).

A family adds only its constructor checks, its ``_features`` (Gaussians)
and its per-row ``log_prob``, ``score`` and ``sample``, which stay in its
own class body for ``benchmarks/tracing.py`` to count. Every family evaluates its likelihood on whole
batches of steps:

* ``log_probs(states, actions[, outcomes])`` returns ``(...)``;
* ``scores(states, actions[, outcomes])`` returns ``BlockScores`` of
  leading shape ``(...)``, the gradient of each step's log-likelihood in
  the model's flat layout, held as the one cell it can be non-zero on. A
  softmax score lives on its own block of logits (the state's A entries
  for the policy, the (s, a) cell's K entries for the world model); a
  Gaussian score is the one-cell case, its block all n_params entries.

All inputs share one leading shape ``(...)``. The tabular families take
integer indices, and the categorical model's outcome is the packed
(reward, next state) index. The Gaussian families take vectors on a
trailing axis: states ``(..., state_dim)``, actions ``(..., action_dim)``,
and the Gaussian model's outcome is the joint ``(s', r)`` vector
``(..., state_dim + 1)``. The Gaussian families also draw whole batches,
``samples(states[, actions], normals)``, from standard normals the caller
lays out. Their per-row ``log_prob``, ``score`` and ``sample`` only call
the batched methods on one row, whose leading shape is ``()``; ``score``
returns the dense (n_params,) vector. The tabular families keep their own
per-row ``rng.choice`` draws.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .mdp import (TabularMdp, _as_rng, _cdf_columns, _normalised_cdf,
                  _policy_probs, _tabular_paths, _tabular_step, check_names,
                  reading, sample_trajectory, write_csv, write_json)
from .woodbury import BlockScores, CellCurvature, DenseCurvature

# Softmax logits this low make the associated probability underflow to an
# exact IEEE zero while keeping every parameter entry finite.
LOGIT_FLOOR = -700.0
VAR_FLOOR = 1e-4


class SupportError(ValueError):
    """An observed outcome is impossible under the model's support."""


# ---------------------------------------------------------------------------
# parameter vectors
# ---------------------------------------------------------------------------


@dataclass
class ParamVector:
    """Flat parameter vector plus a named-slice layout.

    layout: tuple of (name, start, stop) covering [0, len(values)) without
    gaps or overlaps, in ascending order.
    """

    values: np.ndarray
    layout: tuple[tuple[str, int, int], ...]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("parameter values must be a flat vector")
        if not np.isfinite(self.values).all():
            raise ValueError("parameter values must all be finite")
        cursor = 0
        for name, start, stop in self.layout:
            if start != cursor or stop < start:
                raise ValueError(f"layout slice {name!r} breaks contiguity")
            cursor = stop
        if cursor != self.values.size:
            raise ValueError("layout does not cover the value vector")

    def to_dict(self) -> dict:
        return {
            "values": self.values.tolist(),
            "layout": [[name, start, stop] for name, start, stop in self.layout],
        }

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())


def from_saved(template, saved: dict, name: str):
    """``template`` holding the values of ``saved``, as ``ParamVector.to_dict``
    writes them; a ``ValueError`` names ``name`` unless they are finite and
    fit the template's layout, which a saved layout must equal."""
    layout = template.params.to_dict()["layout"]
    with reading(f"{name} values"):
        values, own = np.array(saved["values"], dtype=float), saved.get("layout")
        if (values.shape != (template.n_params,) or own not in (None, layout)
                or not np.isfinite(values).all()):
            raise ValueError(f"must be finite and fit the layout {layout}, got "
                             f"shape {values.shape} and layout {own}")
    return template.with_params(values)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    with np.errstate(divide="ignore"):
        return np.exp(shifted
                      - np.log(np.exp(shifted).sum(axis=-1, keepdims=True)))


# ---------------------------------------------------------------------------
# softmax tables (the tabular families)
# ---------------------------------------------------------------------------


@dataclass
class _SoftmaxTable:
    """A softmax over the last axis of ``logits``: every leading index
    picks one categorical block, the last axis its entries."""

    logits: np.ndarray  # (S, A[, K])

    @property
    def num_states(self) -> int:
        return self.logits.shape[0]

    @property
    def num_actions(self) -> int:
        return self.logits.shape[1]

    @property
    def n_params(self) -> int:
        return self.logits.size

    @cached_property
    def _probs(self) -> np.ndarray:
        """The read-only softmax of ``logits`` that the likelihoods read."""
        table = _softmax(self.logits)
        table.flags.writeable = False
        return table

    def probs_all(self) -> np.ndarray:
        return self._probs

    def probs(self, *index: int) -> np.ndarray:
        return self._probs[index]

    def log_probs(self, *index: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):  # -inf at p = 0
            return np.log(self._probs[index])

    def scores(self, *index: np.ndarray) -> BlockScores:
        """Scores at ``index``, one integer array per table axis: all but
        the last pick the softmax block, which is the score's cell, the
        last its entry. Each block is -p plus 1 at the chosen entry."""
        probs = self._probs
        blocks = -probs[index[:-1]]
        rows = blocks.reshape(-1, blocks.shape[-1])  # a view of the new array
        rows[np.arange(len(rows)), np.ravel(index[-1])] += 1.0
        cells = np.ravel_multi_index(index[:-1], probs.shape[:-1])
        return BlockScores(np.asarray(cells), blocks, probs.size)

    def penalty_curvature(self, index: tuple, weights: np.ndarray, reference,
                          ridge: float) -> CellCurvature:
        """ridge * I + sum_c weights_c E_{y~reference}[score score^T] on the
        distinct blocks at ``index``; the table itself gives its Fisher."""
        q = reference.probs(*index)
        return CellCurvature(self.n_params, ridge, np.ravel_multi_index(
            index, self.logits.shape[:-1]), weights, q, q - self.probs(*index))

    values = property(lambda self: self.logits.ravel())  # flat, a view

    @property
    def params(self) -> ParamVector:
        return ParamVector(self.values.copy(),
                           (("logits", 0, self.logits.size),))

    def with_params(self, values: np.ndarray):
        return replace(self, logits=np.reshape(values, self.logits.shape)
                       .astype(float))


@dataclass
class SoftmaxPolicy(_SoftmaxTable):
    """Tabular softmax policy with one logit per (state, action)."""

    def __post_init__(self):
        self.logits = np.asarray(self.logits, dtype=float)
        if self.logits.ndim != 2:
            raise ValueError("policy logits must be (S, A)")

    @staticmethod
    def zeros(num_states: int, num_actions: int) -> "SoftmaxPolicy":
        return SoftmaxPolicy(np.zeros((num_states, num_actions)))

    def log_prob(self, s: int, a: int) -> float:
        return float(self.log_probs(s, a))

    def score(self, s: int, a: int) -> np.ndarray:
        return self.scores(s, a).dense()

    def sample(self, s: int, rng: np.random.Generator) -> int:
        return int(rng.choice(self.num_actions, p=self.probs(s)))


@dataclass
class CategoricalWorldModel(_SoftmaxTable):
    """Joint-categorical world model over a global (reward, next state)
    alphabet: logits (S, A, K), outcome k is (reward k, next state k)."""

    outcome_rewards: np.ndarray  # (K,)
    outcome_next_states: np.ndarray  # (K,) int

    def __post_init__(self):
        self.logits = np.asarray(self.logits, dtype=float)
        self.outcome_rewards = np.asarray(self.outcome_rewards, dtype=float)
        self.outcome_next_states = np.asarray(self.outcome_next_states,
                                              dtype=np.int64)
        if self.logits.ndim != 3:
            raise ValueError("model logits must be (S, A, K)")
        k = self.logits.shape[2]
        if self.outcome_rewards.shape != (k,) or self.outcome_next_states.shape != (k,):
            raise ValueError("outcome table must match the logit alphabet")

    @staticmethod
    def from_mdp(mdp: TabularMdp) -> "CategoricalWorldModel":
        """The true environment expressed in the model family (floored logits)."""
        joint = mdp.joint_outcome_probs()
        with np.errstate(divide="ignore"):
            logits = np.log(joint)
        logits = np.maximum(logits, LOGIT_FLOOR)
        rewards, nexts = mdp.outcome_table()
        return CategoricalWorldModel(logits, rewards, nexts)

    @staticmethod
    def uniform(mdp: TabularMdp) -> "CategoricalWorldModel":
        rewards, nexts = mdp.outcome_table()
        shape = (mdp.num_states, mdp.num_actions, mdp.num_outcomes)
        return CategoricalWorldModel(np.zeros(shape), rewards, nexts)

    @property
    def num_outcomes(self) -> int:
        return self.logits.shape[2]

    def outcome_index(self, reward: float, s_next: int) -> int:
        """Alphabet index of the outcome (reward, s_next) or, for arrays of
        one shape, of each pair. Rewards match as floats compare (-0.0 is
        0.0, NaN is nothing), and of a repeated pair the last index wins.
        A ``SupportError`` names the first pair not in the alphabet."""
        rewards, table, k = (np.asarray(reward, dtype=float),
                             self.outcome_next_states, self.num_outcomes)
        nexts = np.asarray(s_next).astype(np.int64).ravel()
        # one packed key per pair: rewards ranked with the alphabet's, next
        # states off the table clipped to a value no alphabet entry has
        rank = np.unique(np.concatenate([self.outcome_rewards, rewards.ravel()]),
                         return_inverse=True, equal_nan=False)[1]
        keys = _packed_key(rank, np.concatenate(
            [table, nexts.clip(table.min() - 1, table.max() + 1)]))
        order = np.argsort(keys[:k], kind="stable")
        found = order[np.searchsorted(keys[order], keys[k:], side="right") - 1]
        missing = np.flatnonzero(keys[found] != keys[k:])
        if missing.size:
            row = missing[0]
            raise SupportError(
                f"observed outcome (r={float(rewards.ravel()[row])!r}, "
                f"s'={nexts[row]}) is not in the model's outcome alphabet")
        return int(found[0]) if rewards.ndim == 0 else found.reshape(rewards.shape)

    def log_prob(self, s: int, a: int, k: int) -> float:
        value = float(self.log_probs(s, a, k))
        if value == -np.inf:
            raise SupportError(
                f"outcome k={k} has zero probability at (s={s}, a={a})")
        return value

    def score(self, s: int, a: int, k: int) -> np.ndarray:
        return self.scores(s, a, k).dense()

    def sample(self, s: int, a: int,
               rng: np.random.Generator) -> tuple[float, int, int]:
        k = int(rng.choice(self.num_outcomes, p=self.probs(s, a)))
        return float(self.outcome_rewards[k]), int(self.outcome_next_states[k]), k


# ---------------------------------------------------------------------------
# affine Gaussians (the continuous families)
# ---------------------------------------------------------------------------


def affine_features(x: np.ndarray) -> np.ndarray:
    """Vectors on the trailing axis with a constant 1 appended: (..., d + 1)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)


@dataclass
class _AffineGaussian:
    """A diagonal Gaussian whose mean is ``weights`` times the subclass's
    ``_features`` of the conditioning inputs, with learned ``log_std``. The
    likelihoods take those inputs and then the outcome ``y``."""

    weights: np.ndarray  # (out, features)
    log_std: np.ndarray  # (out,)

    @property
    def n_params(self) -> int:
        return self.weights.size + self.log_std.size

    def _mean(self, feats: np.ndarray) -> np.ndarray:
        # a stacked mat-vec: bit-identical to ``weights @ f`` row by row
        return (self.weights @ feats[..., None])[..., 0]

    def mean(self, *inputs: np.ndarray) -> np.ndarray:
        return self._mean(self._features(*inputs))

    def log_probs(self, *inputs: np.ndarray) -> np.ndarray:
        """(...) log-densities of the last input given the others."""
        *given, y = inputs
        z = (y - self.mean(*given)) / np.exp(self.log_std)
        return (-0.5 * (z ** 2).sum(axis=-1) - self.log_std.sum()
                - 0.5 * z.shape[-1] * np.log(2.0 * np.pi))

    def scores(self, *inputs: np.ndarray) -> BlockScores:
        """Gradients of those log-densities in the (weights, log_std)
        layout, as one-cell scores: each block holds all n_params
        entries."""
        *given, y = inputs
        feats = self._features(*given)
        std = np.exp(self.log_std)
        z = (y - self._mean(feats)) / std
        grad_w = (z / std)[..., :, None] * feats[..., None, :]
        blocks = np.concatenate([grad_w.reshape(z.shape[:-1] + (-1,)),
                                 z ** 2 - 1.0], axis=-1)
        return BlockScores(np.zeros(z.shape[:-1], dtype=np.int64), blocks,
                           blocks.shape[-1])

    def expected_scores(self, reference, *given: np.ndarray) -> np.ndarray:
        """(..., n_params) E_{y~reference}[score] at the inputs ``given``."""
        feats = self._features(*given)
        mean_m = self.mean(*given)
        mean_a = reference.mean(*given)
        var_m = np.exp(2.0 * self.log_std)
        var_a = np.exp(2.0 * reference.log_std)
        grad_w = ((mean_a - mean_m) / var_m)[..., :, None] * feats[..., None, :]
        grad_log_std = (var_a + (mean_a - mean_m) ** 2) / var_m - 1.0
        return np.concatenate(
            [grad_w.reshape(grad_log_std.shape[:-1] + (-1,)), grad_log_std],
            axis=-1)

    def penalty_curvature(self, given: tuple, weights: np.ndarray, reference,
                          ridge: float) -> DenseCurvature:
        """ridge * I + sum_rows weights * E_{y~reference}[score score^T]: the
        outer product of ``expected_scores`` plus, per output, the covariance
        v / var^2 [f; 2 delta][f; 2 delta]^T + 2 v^2 / var^2 (last entry) of
        the scores [e f; e^2] / var of e = y - mean ~ N(delta, v)."""
        feats, delta = self._features(*given), (reference.mean(*given)
                                                - self.mean(*given))
        v, var = np.exp(2.0 * reference.log_std), np.exp(2.0 * self.log_std)
        aug = np.concatenate([np.broadcast_to(feats[:, None], delta.shape + (
            feats.shape[-1],)), 2.0 * delta[..., None]], axis=-1)
        blocks = np.einsum("r,rji,rjk->jik", weights, aug, aug)
        blocks[:, -1, -1] += weights.sum() * 2.0 * v
        index = np.column_stack([np.arange(self.weights.size).reshape(
            self.weights.shape), self.weights.size + np.arange(len(v))])
        means = self.expected_scores(reference, *given)
        penalty = (means.T * weights) @ means
        penalty[index[:, :, None], index[:, None, :]] += (
            (v / var ** 2)[:, None, None] * blocks)
        return DenseCurvature(self.n_params, ridge, penalty)

    def samples(self, *inputs: np.ndarray) -> np.ndarray:
        """(..., out) draws, the means at all but the last input plus std
        times the last, the standard ``normals``. Non-finite draws are
        returned, not raised: the caller decides whether they end a row or
        the call."""
        *given, normals = inputs
        return self.mean(*given) + np.exp(self.log_std) * normals

    values = property(lambda self: np.concatenate([self.weights.ravel(),
                                                   self.log_std]))

    @property
    def params(self) -> ParamVector:
        nw = self.weights.size
        return ParamVector(self.values, (("weights", 0, nw),
                                         ("log_std", nw, nw + self.log_std.size)))

    def with_params(self, values: np.ndarray):
        values, nw = np.asarray(values, dtype=float), self.weights.size
        return replace(self,
                       weights=values[:nw].reshape(self.weights.shape).copy(),
                       log_std=values[nw:].copy())


@dataclass
class DiagGaussianPolicy(_AffineGaussian):
    """Gaussian policy: action mean affine in the state, learned diagonal
    std; weights (action_dim, state_dim + 1), log_std (action_dim,)."""

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.log_std = np.asarray(self.log_std, dtype=float)
        if self.weights.ndim != 2 or self.log_std.shape != (self.weights.shape[0],):
            raise ValueError("weights must be (action_dim, state_dim + 1) with "
                             "matching log_std")

    @staticmethod
    def zeros(state_dim: int, action_dim: int) -> "DiagGaussianPolicy":
        return DiagGaussianPolicy(np.zeros((action_dim, state_dim + 1)),
                                  np.zeros(action_dim))

    @property
    def action_dim(self) -> int:
        return self.weights.shape[0]

    def _features(self, s: np.ndarray) -> np.ndarray:
        return affine_features(s)

    def log_prob(self, s: np.ndarray, a: np.ndarray) -> float:
        return float(self.log_probs(s, a))

    def score(self, s: np.ndarray, a: np.ndarray) -> np.ndarray:
        return self.scores(s, a).dense()

    def sample(self, s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self.samples(s, rng.standard_normal(self.action_dim))


@dataclass
class DiagGaussianWorldModel(_AffineGaussian):
    """Gaussian world model: joint (s', r) mean affine in (s, a), diagonal
    std; weights (state_dim + 1, state_dim + action_dim + 1), log_std
    (state_dim + 1,). Its outcomes are the joint (s', r), reward last."""
    state_dim: int
    action_dim: int

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.log_std = np.asarray(self.log_std, dtype=float)
        out, feat = self.state_dim + 1, self.state_dim + self.action_dim + 1
        if self.weights.shape != (out, feat) or self.log_std.shape != (out,):
            raise ValueError("weights must be (d+1, d+adim+1) with matching log_std")

    @staticmethod
    def zeros(state_dim: int, action_dim: int) -> "DiagGaussianWorldModel":
        return DiagGaussianWorldModel(
            np.zeros((state_dim + 1, state_dim + action_dim + 1)),
            np.zeros(state_dim + 1), state_dim, action_dim)

    def _features(self, s: np.ndarray, a: np.ndarray) -> np.ndarray:
        return affine_features(np.concatenate(
            [np.atleast_1d(s), np.atleast_1d(a)], axis=-1))

    def log_prob(self, s: np.ndarray, a: np.ndarray, y: np.ndarray) -> float:
        return float(self.log_probs(s, a, y))

    def score(self, s: np.ndarray, a: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.scores(s, a, y).dense()

    def sample(self, s: np.ndarray, a: np.ndarray,
               rng: np.random.Generator) -> tuple[np.ndarray, float]:
        draw = self.samples(s, a, rng.standard_normal(self.log_std.size))
        return draw[:-1], float(draw[-1])


# ---------------------------------------------------------------------------
# offline datasets
# ---------------------------------------------------------------------------


TRANSITION_COLUMNS = ("episode", "t", "s", "a", "r", "s_next", "logp_policy",
                      "logp_model")


def _format_state(s) -> str:
    if np.ndim(s) == 0:
        return repr(int(s)) if float(s).is_integer() else repr(float(s))
    return " ".join(repr(float(x)) for x in np.asarray(s).ravel())


def _finite(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text!r} is not finite")
    return value


def _float_vector(width: int):
    """Parser of a field of ``width`` space-separated finite floats. By
    design a bare integer is refused as a tabular label, since a one-wide
    file has a tabular file's widths; ``save_csv`` writes a point or an exponent."""
    def parse(text: str) -> list:
        parts = text.split()
        if len(parts) != width or any(p.lstrip("+-").isdecimal() for p in parts):
            raise ValueError(f"expected {width} float(s) like 1.0, got {text!r}")
        return [_finite(part) for part in parts]
    return parse


@dataclass
class OfflineDataset:
    """Bag of (s, a, r, s') transitions collected by a behavior policy."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray

    def __post_init__(self):
        self.rewards = np.asarray(self.rewards, dtype=float)
        n = len(self.rewards)
        if not (len(self.states) == len(self.actions) == len(self.next_states) == n):
            raise ValueError("dataset columns must have equal length")
        if n == 0:
            raise ValueError("dataset must contain at least one transition")

    @property
    def n(self) -> int:
        return len(self.rewards)

    @cached_property
    def cells(self) -> tuple:
        """(states, actions, counts) of the distinct (s, a) cells, in order
        of first appearance in the dataset; read-only arrays, grouped once.

        Scalar states and actions give ``int64`` (n_cells,) arrays. They
        are grouped by one packed ``int64`` key, ``(s - s_min) * a_span +
        (a - a_min)`` with ``a_span = a_max - a_min + 1``, so negative and
        off-grid labels group like any other. Vector ones give
        (n_cells, dim) float arrays rounded to 12 digits, with ``-0.0``
        folded into ``0.0``.
        """
        if np.ndim(self.states) == 1 and np.ndim(self.actions) == 1:
            s = np.asarray(self.states).astype(np.int64)
            a = np.asarray(self.actions).astype(np.int64)
            _, first, counts = np.unique(_packed_key(s, a), return_index=True,
                                         return_counts=True)
            order = np.argsort(first)
            first = first[order]
            cells = (s[first], a[first], counts[order])
        else:
            states = np.reshape(self.states, (self.n, -1))
            keys = np.column_stack([states,
                                    np.reshape(self.actions, (self.n, -1))])
            keys = np.round(keys.astype(float), 12) + 0.0
            keys, first, counts = np.unique(keys, axis=0, return_index=True,
                                            return_counts=True)
            order, d = np.argsort(first), states.shape[1]
            cells = (keys[order, :d], keys[order, d:], counts[order])
        for part in cells:
            part.flags.writeable = False
        return cells

    def anchored(self, anchor) -> tuple:
        """(states, actions, masses counts / n, a categorical ``anchor``'s
        probabilities and ``categorical_kl_from`` them) at the ``cells``,
        read-only, built once and kept until another anchor is read."""
        if getattr(self, "_anchored", (None,))[0] is not anchor:
            s, a, counts = self.cells
            probs, mass = anchor.probs(s, a), counts / self.n
            probs.flags.writeable = mass.flags.writeable = False
            self._anchored = (anchor, (s, a, mass, probs,
                                       categorical_kl_from(probs)))
        return self._anchored[1]

    def cell_counts(self) -> dict:
        """``cells`` as {cell: count}: ``(int s, int a)`` keys for scalar
        states and actions, ``(state tuple, action tuple)`` keys of floats
        for vector ones."""
        states, actions, counts = (part.tolist() for part in self.cells)
        if self.cells[0].ndim > 1:
            states, actions = map(tuple, states), map(tuple, actions)
        return dict(zip(zip(states, actions), counts))

    def num_cells(self) -> int:
        return len(self.cells[2])

    def save_csv(self, path: str | Path) -> None:
        write_csv(path, TRANSITION_COLUMNS,
                  ([0, i, _format_state(self.states[i]),
                    _format_state(self.actions[i]),
                    repr(float(self.rewards[i])),
                    _format_state(self.next_states[i]), repr(0.0), repr(0.0)]
                   for i in range(self.n)))

    @staticmethod
    def load_csv(path: str | Path, env) -> "OfflineDataset":
        """The dataset saved at ``path``, parsed as ``env``'s: integer labels
        of a ``TabularMdp``'s cells and outcomes, or vectors of exactly
        ``state_dim`` and ``action_dim`` floats; finite rewards. A
        ``ValueError`` names the file and the column or the row it refuses."""
        tabular = isinstance(env, TabularMdp)
        state = int if tabular else _float_vector(env.state_dim)
        action = int if tabular else _float_vector(env.action_dim)
        parsers = dict(zip(TRANSITION_COLUMNS, (int, int, state, action, _finite,
                                                state, float, float)))
        columns = {column: [] for column in parsers}
        with reading(path), open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            check_names("column", TRANSITION_COLUMNS, reader.fieldnames or (), ())
            for row in reader:
                if None in row:  # DictReader's key for fields past the last column
                    raise ValueError(f"line {reader.line_num} has extra fields")
                try:
                    for column, parse in parsers.items():
                        if row[column] is None:
                            raise ValueError("the row ends before this column")
                        columns[column].append(parse(row[column]))
                except (ValueError, TypeError) as err:
                    raise ValueError(f"line {reader.line_num}, column {column}: "
                                     f"{err}") from err
            dataset = OfflineDataset(*(np.array(columns[column])
                                       for column in ("s", "a", "r", "s_next")))
            if tabular:
                _outcome_cells(dataset, CategoricalWorldModel.uniform(env))
        return dataset


def _packed_key(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """One ``int64`` per row, ``(major - major_min) * minor_span +
    (minor - minor_min)``: rows share a key exactly when they share both
    integer labels, and keys sort like ``(major, minor)``."""
    major_min, minor_min = int(major.min()), int(minor.min())
    minor_span = int(minor.max()) - minor_min + 1
    if (int(major.max()) - major_min + 1) * minor_span > np.iinfo(np.int64).max:
        raise ValueError("integer labels span too wide a range to pack "
                         "into one int64 key")
    return (major - major_min) * minor_span + (minor - minor_min)


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------


def categorical_kl(p: np.ndarray, q: np.ndarray) -> float | np.ndarray:
    """KL(p || q) over the last axis: ``categorical_kl_from(p)(q)``."""
    return categorical_kl_from(p)(q)


def categorical_kl_from(p: np.ndarray):
    """q -> KL(p || q) over the last axis, 0 log 0 = 0, infinite where q
    misses p's support: a float for one pair, else an array over the
    leading axes. Each row sums its p > 0 terms in order, in groups of rows
    of equal term count, so numpy's pairwise sum gives each row the bits of
    a call on it alone. The groups and p's terms and logs are built once."""
    p = np.asarray(p, dtype=float)
    rows_p = p.reshape(-1, p.shape[-1])
    support = rows_p > 0
    n_terms = support.sum(axis=1)
    groups = []
    for n in np.flatnonzero(np.bincount(n_terms)):  # ascending counts
        group = n_terms == n
        keep = support & group[:, None]  # n entries per row, in order
        p_n = rows_p[keep].reshape(int(group.sum()), int(n))
        groups.append((group, keep, p_n, np.log(p_n)))

    def kl(q: np.ndarray) -> float | np.ndarray:
        rows_q = np.asarray(q, dtype=float).reshape(rows_p.shape)
        out = np.empty(len(rows_p))
        with np.errstate(divide="ignore"):
            for group, keep, p_n, log_p in groups:
                q_n = rows_q[keep].reshape(p_n.shape)
                out[group] = (p_n * (log_p - np.log(q_n))).sum(axis=1)
        out[(support & (rows_q == 0)).any(axis=1)] = np.inf
        out = out.reshape(p.shape[:-1])
        return float(out) if out.ndim == 0 else out
    return kl


def gaussian_kl(mean_p: np.ndarray, var_p: np.ndarray, mean_q: np.ndarray,
                var_q: np.ndarray) -> np.ndarray:
    """KL between diagonal Gaussians, summed over the trailing (dimension)
    axis: ``(...)`` over the inputs' broadcast leading axes."""
    ratio = var_p / var_q
    return (0.5 * (ratio - np.log(ratio) - 1.0
                   + (mean_q - mean_p) ** 2 / var_q)).sum(axis=-1)


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------


def mle_fit(dataset: OfflineDataset, template, alpha: float = 0.0):
    """Fit the template's family to the dataset by maximum likelihood.

    Categorical models use per-cell empirical frequencies (optional additive
    smoothing ``alpha``; default 0 so oracle tests see the exact MLE).
    Gaussian models use least squares for the affine mean and the biased
    residual variance per output dimension, floored at ``VAR_FLOOR``.
    """
    if not 0.0 <= alpha < np.inf:  # NaN fails too
        raise ValueError(f"smoothing alpha must be finite and non-negative, "
                         f"got {alpha}")
    if isinstance(template, CategoricalWorldModel):
        return _mle_categorical(dataset, template, alpha)
    if isinstance(template, DiagGaussianWorldModel):
        return _mle_linear_gaussian(dataset, template)
    raise TypeError(f"no MLE recipe for {type(template).__name__}")


def _outcome_cells(dataset: OfflineDataset,
                   template: CategoricalWorldModel) -> tuple:
    """(states, actions, outcome indices) of the rows of ``dataset`` under
    ``template``. A ``ValueError`` names the first row outside its states x
    actions, a ``SupportError`` the first outcome outside its alphabet."""
    s_dim, a_dim, _ = template.logits.shape
    states = np.asarray(dataset.states).astype(np.int64)
    actions = np.asarray(dataset.actions).astype(np.int64)
    outside = np.flatnonzero((states < 0) | (states >= s_dim)
                             | (actions < 0) | (actions >= a_dim))
    if outside.size:
        row = outside[0]
        raise ValueError(f"dataset row {row} has (s={states[row]}, "
                         f"a={actions[row]}) outside the {s_dim} states x "
                         f"{a_dim} actions of the model")
    return states, actions, template.outcome_index(dataset.rewards,
                                                   dataset.next_states)


def _mle_categorical(dataset: OfflineDataset, template: CategoricalWorldModel,
                     alpha: float) -> CategoricalWorldModel:
    counts = np.zeros(template.logits.shape)
    np.add.at(counts, _outcome_cells(dataset, template), 1.0)
    counts += alpha
    return CategoricalWorldModel(_frequency_logits(counts),
                                 template.outcome_rewards,
                                 template.outcome_next_states)


def _frequency_logits(counts: np.ndarray) -> np.ndarray:
    """Floored log frequencies along the last axis of ``counts``; a cell
    with no count falls back, in place, to uniform with a warning."""
    totals = counts.sum(axis=-1, keepdims=True)
    unvisited = np.nonzero(totals[..., 0] == 0)
    if unvisited[0].size:
        cells = list(zip(*[idx.tolist() for idx in unvisited]))
        warnings.warn(f"MLE fallback to uniform at unvisited cells {cells}")
        counts[totals[..., 0] == 0] = 1.0
        totals = counts.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore"):
        logits = np.log(counts / totals)
    return np.maximum(logits, LOGIT_FLOOR)


def _mle_linear_gaussian(
        dataset: OfflineDataset,
        template: DiagGaussianWorldModel) -> DiagGaussianWorldModel:
    n = dataset.n
    feats = template._features(np.reshape(dataset.states, (n, -1)),
                               np.reshape(dataset.actions, (n, -1)))
    targets = np.column_stack([np.reshape(dataset.next_states, (n, -1)),
                               dataset.rewards])
    if n < 2:
        warnings.warn("Gaussian MLE on fewer than 2 transitions is degenerate")
    if np.linalg.matrix_rank(feats) < feats.shape[1]:
        warnings.warn("Gaussian MLE design matrix is rank-deficient; "
                      "using the least-norm solution")
    weights, *_ = np.linalg.lstsq(feats, targets, rcond=None)
    residuals = targets - feats @ weights
    variance = np.maximum((residuals ** 2).mean(axis=0), VAR_FLOOR)
    return DiagGaussianWorldModel(weights.T, 0.5 * np.log(variance),
                                  template.state_dim, template.action_dim)


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------


def sample_offline_dataset(mdp: TabularMdp, policy, n: int,
                           seed=0) -> OfflineDataset:
    """I.i.d. behavior dataset: s uniform over the states, a from the
    behavior policy, (r, s') from the true environment. The one-dataset
    case of ``_offline_sampler``, on ``random((3, n))`` of the generator."""
    rows = _offline_sampler(mdp, policy)(_as_rng(seed).random((3, n)))
    return _offline_dataset(mdp, *rows)


def _offline_sampler(mdp: TabularMdp, policy):
    """``sample(u)``: (states, actions, outcome codes) of one behavior row per
    column of the ``(3, rows)`` uniforms ``u``, its state, action and outcome
    draws. A row's draws read only its own column, so concatenated datasets
    sample as each would alone. States are searched with ``side="right"``,
    as ``rng.choice(S, size=n, p=p)`` draws them from the uniform ``p``,
    then one ``_tabular_step`` runs on ``_cdf_columns`` tables built once."""
    state_cdf = _normalised_cdf(np.full(mdp.num_states, 1.0 / mdp.num_states))
    policy_columns = _cdf_columns(_policy_probs(policy, mdp))
    outcome_columns = _cdf_columns(mdp.joint_outcome_probs())

    def sample(u):
        states = state_cdf.searchsorted(u[0], side="right")
        return (states, *_tabular_step(policy_columns, outcome_columns,
                                       states, *u[1:]))
    return sample


def _offline_dataset(mdp: TabularMdp, states: np.ndarray, actions: np.ndarray,
                     outcomes: np.ndarray) -> OfflineDataset:
    """The dataset of rows given as packed outcome codes."""
    rewards, next_states = mdp.outcome_table()
    return OfflineDataset(states=states, actions=actions,
                          rewards=rewards[outcomes],
                          next_states=next_states[outcomes])


def rollout_dataset(env, policy, n_episodes: int, seed=0) -> OfflineDataset:
    """Transitions of behavior-policy episodes in the true environment;
    episode ``e`` draws from its own generator ``default_rng((seed, e))``.
    A tabular episode draws ``random((1 + 2h, 1))``, its start state and
    then each step's action and outcome uniforms, and one path loop over
    ``_cdf_columns`` tables built once per call draws every episode as
    per-step ``rng.choice`` would. A continuous episode draws one block of
    standard normals, its start state's and then ``sample_trajectory``'s,
    and that loop runs every episode at once through ``env.step``."""
    rngs = [np.random.default_rng((seed, e)) for e in range(n_episodes)]
    h = env.horizon
    if isinstance(env, TabularMdp):
        u = np.hstack([rng.random((1 + 2 * h, 1)) for rng in rngs])
        states, actions, outcomes = _tabular_paths(
            _cdf_columns(_policy_probs(policy, env)),
            _cdf_columns(env.joint_outcome_probs()), env.outcome_table()[1],
            _normalised_cdf(env.init_dist).searchsorted(u[0], side="right"),
            u[1:])
        return _offline_dataset(env, states[:, :-1].ravel(), actions.ravel(),
                                outcomes.ravel())
    d, a = env.state_dim, env.action_dim
    z = np.vstack([rng.standard_normal(d + h * (a + d + 1) + a)
                   for rng in rngs])
    paths = sample_trajectory(policy, lambda s, act, normals: (
        env.step(s, act, normals), 0.0), env.reset(z[:, :d]), z[:, d:], h)
    states = paths["states"]
    return OfflineDataset(states[:, :-1].reshape(-1, d),
                          paths["actions"][:, :-1].reshape(-1, a),
                          paths["rewards"].ravel(),
                          states[:, 1:].reshape(-1, d))
