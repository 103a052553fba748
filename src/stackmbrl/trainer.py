"""Offline robust training loop: segments, critics, masks, and dual ascent.

An iteration collects imagined segments from dataset states, refits a
critic for their Q-tails, and runs one masked-epoch loop for each player.
Each epoch draws a minibatch, masks its steps by the clipped ratio of the
player's likelihood to the sampling-time one (so the first epoch is
exactly the plain estimator) and reduces the player's block scores to a
masked gradient. Only the step rule differs: the policy (the leader)
ascends the total derivative ``g_theta - M^T A^-1 g_phi`` assembled from
low-rank factors, the model (the follower) descends its penalized
objective, and the multiplier then takes a projected ascent step on the
anchored-KL gap. All updates are committed together at the end, so a
failed phase never leaves the state half-stepped. ``vanilla_config``
presets the loop to full-horizon score-function estimators and one
coupled step per iteration, for A/B comparisons.
"""

from __future__ import annotations

import copy
import math
import warnings
from collections import deque
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .dynamics import DYNAMICS_MODES, LearningRates, MULTIPLIER_INIT
from .estimators import (
    dataset_dual_coupling,
    dataset_kl,
    factors_from_batch,
    generalized_advantages,
    masked_surrogate_gradient,
    penalty_curvature,
    ratio_masks,
)
from .mdp import (
    ContinuousMdp,
    NoisyDeployment,
    SamplingError,
    TabularMdp,
    _as_rng,
    _draw_categorical_rows,
    _policy_probs,
    check_names,
    exact_return,
    read_json_object,
    reading,
    sample_tabular_batch,
    sample_trajectory,
    write_csv,
    write_json,
)
from .models import (
    CategoricalWorldModel,
    DiagGaussianPolicy,
    OfflineDataset,
    SoftmaxPolicy,
    _softmax,
    categorical_kl_from,
    from_saved,
)
from .oracles import ExactGradients, exact_gradients
from .woodbury import (
    RIDGE_DEFAULT,
    DualRow,
    IllConditionedError,
    SingularScalarError,
    leader_gradient,
)

# Transitions drawn from the buffer for each linear-critic refit.
CRITIC_BATCH_SIZE = 256

# Sub-stream tags for seeded generators, so every phase of every iteration
# draws from its own reproducible stream.
_COLLECT_STREAM = 0
_CRITIC_STREAM = 1
_POLICY_STREAM = 2
_MODEL_STREAM = 3
_EVAL_STREAM = 5
_WORST_CASE_STREAM = 6

# Halvings of the line search that pulls a model back into the KL ball.
BISECTION_STEPS = 60

_ABORT_ERRORS = (SingularScalarError, IllConditionedError, FloatingPointError,
                 SamplingError, np.linalg.LinAlgError)


def _stream(seed, *tags) -> np.random.Generator:
    return np.random.default_rng((seed,) + tags)


# ---------------------------------------------------------------------------
# critics
# ---------------------------------------------------------------------------


@dataclass
class _Critic:
    """A Q/V pair with a slow-moving target V. The subclass's ``_evaluate``
    reads each of the three arrays, a table or affine weights, at its
    inputs."""

    q: np.ndarray
    v: np.ndarray
    target_v: np.ndarray

    def state_values(self, states: np.ndarray) -> np.ndarray:
        return self._evaluate(self.v, states)

    def target_state_values(self, states: np.ndarray) -> np.ndarray:
        return self._evaluate(self.target_v, states)

    def tail_values(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        return self._evaluate(self.q, states, actions)

    def mix_target(self, mix: float) -> None:
        self.target_v = mix * self.v + (1.0 - mix) * self.target_v

    def to_dict(self) -> dict:
        return {"kind": self.kind, "q": self.q.tolist(), "v": self.v.tolist(),
                "target_v": self.target_v.tolist()}


@dataclass
class TabularCritic(_Critic):
    """Table-backed Q (S, A), V (S,) and target V (S,)."""

    kind = "tabular"

    @staticmethod
    def zeros(num_states: int, num_actions: int) -> "TabularCritic":
        return TabularCritic(np.zeros((num_states, num_actions)),
                             np.zeros(num_states), np.zeros(num_states))

    @staticmethod
    def _evaluate(table: np.ndarray, *index: np.ndarray) -> np.ndarray:
        return table[index]

    def fit_epoch(self, policy, model, gamma: float, transitions, rng) -> None:
        """One exact fit: Q from the model's closed-form one-step target,
        V from the policy mixture of the fresh Q. No sampling involved."""
        cont = model.outcome_rewards + gamma * self.target_state_values(
            model.outcome_next_states)
        self.q = model.probs_all() @ cont
        self.v = (policy.probs_all() * self.q).sum(axis=1)


@dataclass
class LinearCritic(_Critic):
    """Q affine in (state, action), weights (d + a + 1,), and V and target
    V affine in the state, weights (d + 1,), for continuous tasks."""

    kind = "linear"

    @staticmethod
    def zeros(state_dim: int, action_dim: int) -> "LinearCritic":
        return LinearCritic(np.zeros(state_dim + action_dim + 1),
                            np.zeros(state_dim + 1), np.zeros(state_dim + 1))

    @staticmethod
    def _evaluate(weights: np.ndarray, *inputs: np.ndarray) -> np.ndarray:
        feats = np.concatenate([np.asarray(x, dtype=float) for x in inputs],
                               axis=-1)
        return feats @ weights[:-1] + weights[-1]

    def fit_epoch(self, policy, model, gamma: float, transitions: dict,
                  rng: np.random.Generator) -> None:
        """One least-squares refit on a fresh minibatch.

        Q regresses on single-sample targets redrawn through the *current*
        model; V regresses on Q at a fresh policy action, so both stay tied
        to the present (policy, model) pair rather than to stale rollouts.
        The generator draws the emissions' normals, one row per transition,
        and then the actions'. A non-finite emission raises
        ``SamplingError``.
        """
        n = len(transitions["rewards"])
        idx = rng.integers(0, n, size=min(CRITIC_BATCH_SIZE, n))
        states = np.asarray(transitions["states"], dtype=float)[idx]
        actions = np.asarray(transitions["actions"], dtype=float)[idx]

        emissions = model.samples(states, actions, rng.standard_normal(
            (len(idx), model.log_std.size)))
        if not np.isfinite(emissions).all():
            raise SamplingError("world model produced a non-finite emission")
        q_targets = emissions[:, -1] + gamma * self.target_state_values(
            emissions[:, :-1])
        feats_q = np.concatenate(
            [states, actions, np.ones((len(idx), 1))], axis=1)
        self.q = np.linalg.lstsq(feats_q, q_targets, rcond=None)[0]

        fresh_actions = policy.samples(states,
                                       rng.standard_normal(actions.shape))
        v_targets = self.tail_values(states, fresh_actions)
        feats_v = np.concatenate([states, np.ones((len(idx), 1))], axis=1)
        self.v = np.linalg.lstsq(feats_v, v_targets, rcond=None)[0]


def critic_loss(critic, transitions: dict, gamma: float) -> float:
    """Mean squared one-step Bellman residual against the target values."""
    if transitions is None or len(transitions["rewards"]) == 0:
        return float("nan")
    preds = critic.tail_values(transitions["states"], transitions["actions"])
    targets = (transitions["rewards"]
               + gamma * critic.target_state_values(transitions["next_states"]))
    return float(np.mean((preds - targets) ** 2))


def train_critic(critic, buffer: "ReplayBuffer", policy, model, gamma: float,
                 epochs: int, target_mix: float,
                 rng: np.random.Generator) -> float:
    """Run ``epochs`` fitting passes, then fold V into the target table once.

    Returns the pre-update Bellman residual over the buffer as a loss
    diagnostic. With zero epochs the critic (target included) is untouched.
    """
    transitions = buffer.transitions() if len(buffer) else None
    loss = critic_loss(critic, transitions, gamma)
    if epochs == 0:
        return loss
    if isinstance(critic, LinearCritic) and transitions is None:
        return loss
    for _ in range(epochs):
        critic.fit_epoch(policy, model, gamma, transitions, rng)
    critic.mix_target(target_mix)
    return loss


# ---------------------------------------------------------------------------
# replay buffer
# ---------------------------------------------------------------------------


class ReplayBuffer:
    """FIFO store of rollout batches. Capacity counts whole batches, not
    transitions."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("buffer capacity must be at least one batch")
        self.capacity = capacity
        self._entries: deque = deque(maxlen=capacity)

    def with_batch(self, batch: dict) -> "ReplayBuffer":
        """A new buffer holding these batches and then ``batch``, the oldest
        dropped past capacity; this buffer is unchanged."""
        out = ReplayBuffer(self.capacity)
        out._entries.extend([*self._entries, batch])
        return out

    def __len__(self) -> int:
        return len(self._entries)

    def transitions(self) -> dict:
        """All stored (s, a, r, s') rows flattened across batches,
        respecting per-rollout valid lengths and skipping bootstrap
        actions."""
        states, actions, rewards, nexts = [], [], [], []
        for batch in self._entries:
            lengths = batch["lengths"]
            n, n_steps = batch["rewards"].shape
            valid = np.arange(n_steps)[None, :] < lengths[:, None]
            states.append(batch["states"][:, :-1][valid])
            actions.append(batch["actions"][:, :n_steps][valid])
            rewards.append(batch["rewards"][valid])
            nexts.append(batch["states"][:, 1:][valid])
        return {"states": np.concatenate(states),
                "actions": np.concatenate(actions),
                "rewards": np.concatenate(rewards),
                "next_states": np.concatenate(nexts)}


# ---------------------------------------------------------------------------
# configuration and state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainerConfig:
    """Everything a run needs besides the environment, dataset and anchor.

    The dataset-side penalty terms (the model's KL-penalty gradient and its
    curvature, the dual coupling and the constraint gap) are always exact
    over the whole dataset; the leader's curvature samples only the epoch's
    steps, one X/Y column each. The multiplier takes one projected ascent
    step per iteration on the committed model's gap; more steps on that
    fixed gap would only scale the dual rate.
    """

    n_iterations: int = 50
    segment_length: int = 4
    rollouts_per_iter: int = 32
    critic_epochs: int = 2
    policy_epochs: int = 2
    model_epochs: int = 2
    minibatch_size: int = 16
    target_mix: float = 0.5
    advantage_decay: float = 0.95
    clip: float = 0.2
    ridge: float = RIDGE_DEFAULT
    epsilon: float = 0.1
    lam_init: float = MULTIPLIER_INIT
    rates: LearningRates = field(default_factory=LearningRates)
    seed: int = 0
    dynamics: str = "constrained"
    buffer_capacity: int = 10
    checkpoint_every: int = 0

    def __post_init__(self):
        # each rule is written so that NaN fails it
        for names, holds, rule in (
                (("n_iterations", "critic_epochs", "policy_epochs",
                  "model_epochs", "checkpoint_every", "lam_init"),
                 lambda v: v >= 0, "be non-negative"),
                (("segment_length", "rollouts_per_iter", "minibatch_size",
                  "buffer_capacity"), lambda v: v >= 1, "be at least 1"),
                (("target_mix", "advantage_decay"), lambda v: 0 <= v <= 1,
                 "lie in [0, 1]"),
                (("clip", "ridge", "epsilon"), lambda v: v > 0, "be positive"),
                (("dynamics",), lambda v: v in DYNAMICS_MODES,
                 f"be one of {DYNAMICS_MODES}")):
            for name in names:
                if not holds(value := getattr(self, name)):
                    raise ValueError(f"{name} must {rule}, got {value!r}")

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["rates"] = dict(self.rates.to_dict(),
                            enforce_ordering=self.rates.enforce_ordering)
        return out

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @staticmethod
    def load(path) -> "TrainerConfig":
        """The config saved at ``path`` by ``save``; a ``ValueError`` names
        the file and an unknown key or a wrongly typed or ranged field."""
        payload = read_json_object(path, ())
        with reading(path):
            _check_fields(TrainerConfig, payload)
            if "rates" in payload:
                _check_fields(LearningRates, payload["rates"])
                payload["rates"] = LearningRates(**payload["rates"])
            return TrainerConfig(**payload)


def _check_fields(cls, payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` names fields of the dataclass
    ``cls``, each with a value of its default's type (an int passes as a
    float, and a dict as a ``LearningRates``)."""
    check_names(f"{cls.__name__} key", (), payload, [f.name for f in fields(cls)])
    for name, value in payload.items():
        want = type(getattr(cls(), name))
        allowed = {float: (float, int),
                   LearningRates: (dict,)}.get(want, (want,))
        if type(value) not in allowed:
            raise ValueError(f"{cls.__name__} field {name!r} must be a "
                             f"{allowed[0].__name__}, got {value!r}")


def vanilla_config(config: TrainerConfig, horizon: int) -> TrainerConfig:
    """The segment trainer reduced to one coupled step of full-horizon plain
    score-function estimators per iteration.

    Segments span the horizon, the critic stays at zero and the advantage
    mixing is undamped, so gamma^t * adv_t is the discounted return-to-go;
    no step is masked, every phase runs one epoch on the whole batch in
    order.
    """
    return replace(config, segment_length=horizon, critic_epochs=0,
                   advantage_decay=1.0, clip=math.inf, policy_epochs=1,
                   model_epochs=1, minibatch_size=config.rollouts_per_iter)


@dataclass
class TrainState:
    """Committed parameters plus the mutable training machinery.

    An iteration fits a tentative critic on a tentative buffer and installs
    both with (policy, model, lam), so an aborted iteration leaves all five
    as they were. Nothing here holds an epoch's work: the leader's rule
    keeps only the penalty base and its dual row across epochs, and the
    row's N^{-1} b, solved on the core route's first read."""

    policy: object
    model: object
    lam: float
    critic: object
    buffer: ReplayBuffer
    iteration: int = 0


TRACE_COLUMNS = ("iteration", "return_estimate", "exact_objective",
                 "exact_env_return", "kl", "lam", "mask_rate_policy",
                 "mask_rate_model", "critic_loss", "aborted")


@dataclass
class TrainingTrace:
    """Per-iteration diagnostics, one row per committed iteration."""

    rows: list = field(default_factory=list)

    def append(self, row: dict) -> None:
        self.rows.append({name: row.get(name, float("nan"))
                          for name in TRACE_COLUMNS})

    def save_csv(self, path) -> None:
        write_csv(path, TRACE_COLUMNS,
                  ([repr(row[name]) if isinstance(row[name], float)
                    else row[name] for name in TRACE_COLUMNS]
                   for row in self.rows))


# ---------------------------------------------------------------------------
# rollout collection
# ---------------------------------------------------------------------------


def collect_rollouts(env, policy, model, dataset: OfflineDataset,
                     n_rollouts: int, length: int, seed) -> dict:
    """Imagined segments under (policy, model) from dataset start states.

    Start states are drawn uniformly from the dataset's state column. Each
    segment runs ``length`` steps and carries one trailing bootstrap action
    for the critic's Q-tail, drawn at the last state from the same
    generator. Log-probabilities are the sampler's own evaluations at
    generation time, so later ratio masks start at exactly one.
    ``outcomes`` holds each step's model emission, the argument the model's
    ``scores``/``log_probs`` take: the packed outcome index for tabular
    rollouts, the joint (s', r) vector, shape (n, length, state_dim + 1),
    for continuous ones.

    Continuous rollouts draw one fixed block of standard normals per row,
    ``standard_normal((n, length * (a + d + 1) + a))``, and run through
    ``sample_trajectory``. A row that hits a non-finite emission or
    log-density is truncated at the last finite step and padded (state
    frozen, actions drawn there from the row's own block, zero rewards), so
    the other rows keep their draws. Its true step count lands in
    ``lengths``. A row with no finite step at all raises ``SamplingError``.
    """
    if length < 1:
        raise ValueError("segment length must be at least 1")
    if n_rollouts < 1:
        raise ValueError("need at least one rollout")
    rng = _as_rng(seed)
    start_idx = rng.integers(0, dataset.n, size=n_rollouts)

    if isinstance(env, TabularMdp):
        starts = np.asarray(dataset.states)[start_idx].astype(np.int64)
        batch = sample_tabular_batch(env, policy, model, n=n_rollouts,
                                     horizon=length, seed=rng,
                                     init_states=starts)
        last_states = batch["states"][:, -1]
        boot = _draw_categorical_rows(
            _policy_probs(policy, env)[last_states], rng)
        batch["actions"] = np.column_stack([batch["actions"], boot])
        batch["logp_policy"] = np.column_stack(
            [batch["logp_policy"], policy.log_probs(last_states, boot)])
        batch["lengths"] = np.full(n_rollouts, length, dtype=np.int64)
        return batch

    def emit(states, actions, normals):
        emissions = model.samples(states, actions, normals)
        return emissions, model.log_probs(states, actions, emissions)

    a, d = env.action_dim, env.state_dim
    batch = sample_trajectory(
        policy, emit, np.asarray(dataset.states, dtype=float)[start_idx],
        rng.standard_normal((n_rollouts, length * (a + d + 1) + a)), length)
    batch["logp_policy"] = policy.log_probs(batch["states"], batch["actions"])
    batch["outcomes"] = np.concatenate(
        [batch["states"][:, 1:], batch["rewards"][..., None]], axis=-1)
    return batch


def _steps(batch: dict, n_steps: int) -> tuple:
    """(states, actions, outcomes) of the first ``n_steps`` steps."""
    return (batch["states"][:, :n_steps], batch["actions"][:, :n_steps],
            batch["outcomes"][:, :n_steps])


# ---------------------------------------------------------------------------
# one training iteration
# ---------------------------------------------------------------------------


def _minibatch(batch: dict, size: int, rng: np.random.Generator) -> dict:
    """Fresh with-replacement rollout minibatch; the whole batch, in order,
    when ``size`` covers it (keeps small-batch runs exactly reproducible
    against the unbatched estimators)."""
    n = batch["rewards"].shape[0]
    if size >= n:
        return batch
    idx = rng.integers(0, n, size=size)
    return {key: (value[idx] if isinstance(value, np.ndarray) else value)
            for key, value in batch.items()}


def _stepped(player, delta: np.ndarray):
    """``player`` moved by ``delta`` in its flat layout. A non-finite result
    aborts the iteration here, on the raw values, before ``ParamVector``
    would refuse them with a ``ValueError``."""
    values = player.params.values + delta
    if not np.isfinite(values).all():
        raise FloatingPointError(
            f"{type(player).__name__} update is non-finite")
    return player.with_params(values)


def _masked_epochs(player, column: str, arity: int, rule, epochs: int,
                   tag: int, critic, batch: dict, config: TrainerConfig,
                   gamma: float, iteration: int) -> tuple[object, float]:
    """Step ``player`` once per epoch by ``rule``; returns (stepped player,
    first-epoch mask rate). Epoch e draws its minibatch from the stream
    (seed, ``tag``, ``iteration``, e) and masks each step by the ratio of
    the player's likelihood, over the first ``arity`` of (states, actions,
    outcomes), to its sampling-time ``column``. The player then moves by
    ``rule(e, rng, player, steps, masks, adv, scores, grad)``."""
    first_mask_rate = float("nan")
    for epoch in range(epochs):
        rng = _stream(config.seed, tag, iteration, epoch)
        sub = _minibatch(batch, config.minibatch_size, rng)
        n_steps = int(sub["lengths"].min())
        adv = generalized_advantages(
            sub["rewards"][:, :n_steps],
            critic.state_values(sub["states"][:, :n_steps + 1]),
            critic.tail_values(sub["states"][:, n_steps],
                               sub["actions"][:, n_steps]),
            gamma, zeta=config.advantage_decay)
        steps = _steps(sub, n_steps)
        masks = ratio_masks(player.log_probs(*steps[:arity]),
                            sub[column][:, :n_steps], adv, clip=config.clip)
        if epoch == 0:
            first_mask_rate = float(masks.mean())
        scores = player.scores(*steps[:arity])
        grad = masked_surrogate_gradient(scores, masks, adv, gamma)
        player = _stepped(player, rule(epoch, rng, player, steps, masks, adv,
                                       scores, grad))
    return player, first_mask_rate


def _leader_rule(state: TrainState, dataset, anchor, config: TrainerConfig,
                 gamma: float, rate: float, coupling: np.ndarray, gap: float):
    """The policy's step: ``rate * g_theta`` under ``naive``, else ``rate *
    (g_theta - M^T H g_phi)`` from factors on the epoch's steps. Epochs
    share the committed model and multiplier, so the penalty base D and
    its ``DualRow`` are built once per iteration. The row exists only under
    ``constrained`` with lam != 0, the one place that chooses it."""
    base = None if config.dynamics == "naive" else penalty_curvature(
        dataset, state.model, anchor, state.lam, config.ridge)
    dual = (DualRow(base, state.lam, coupling, gap) if config.dynamics ==
            "constrained" and state.lam != 0.0 else None)

    def rule(epoch, rng, policy, steps, masks, adv, theta_scores, grad):
        if config.dynamics == "naive":
            return rate * grad
        phi_scores = state.model.scores(*steps)
        factors = factors_from_batch(
            masks * adv * gamma ** np.arange(masks.shape[1]), phi_scores,
            theta_scores, base, dual)
        return rate * leader_gradient(
            grad, masked_surrogate_gradient(phi_scores, masks, adv, gamma),
            factors)
    return rule


def _follower_rule(state: TrainState, dataset, anchor, rate: float,
                   coupling: np.ndarray):
    """The model's step down its penalized objective, ``-rate * (g_phi + lam
    * coupling)``: epoch 0 at the committed model's given ``coupling``,
    later epochs at the coupling of the model they step from."""
    def rule(epoch, rng, model, steps, masks, adv, phi_scores, grad):
        current = (dataset_dual_coupling(dataset, model, anchor) if epoch
                   else coupling)
        return -rate * (grad + state.lam * current)
    return rule


def _dual_phase(state: TrainState, gap: float, rate: float) -> float:
    """One projected ascent step on the constraint ``gap`` of the committed
    model."""
    return max(0.0, state.lam + rate * gap)


def train_iteration(state: TrainState, env, dataset: OfflineDataset, anchor,
                    config: TrainerConfig) -> tuple[TrainState, dict]:
    """Collect, fit the critic, run the three phases, then commit.

    Every update happens on primed copies and lands together at the end:
    the phases read a tentative critic fitted on the buffer plus this
    batch. If any phase aborts (singular curvature, ill-conditioned solve,
    non-finite iterates or dataset KL, or a dead rollout), the committed
    (policy, model, multiplier, critic, buffer) are kept, a warning records
    the iteration, and training can continue.
    """
    k = state.iteration
    gamma = env.gamma
    rates = config.rates.at(k)
    record = {"iteration": k, "aborted": 0}
    policy_new, model_new, lam_new = state.policy, state.model, state.lam
    # the committed model's dataset terms, shared by every phase
    coupling = dataset_dual_coupling(dataset, state.model, anchor)
    committed_kl = dataset_kl(dataset, state.model, anchor)
    gap = committed_kl - config.epsilon
    fitted = state
    try:
        batch = collect_rollouts(env, state.policy, state.model, dataset,
                                 config.rollouts_per_iter,
                                 config.segment_length,
                                 _stream(config.seed, _COLLECT_STREAM, k))
        fitted = replace(state, buffer=state.buffer.with_batch(batch),
                         critic=copy.deepcopy(state.critic))
        t = np.arange(config.segment_length)
        record["return_estimate"] = float((
            batch["rewards"] * (t < batch["lengths"][:, None])
            * gamma ** t).sum(axis=1).mean())
        record["critic_loss"] = train_critic(
            fitted.critic, fitted.buffer, state.policy, state.model, gamma,
            config.critic_epochs, config.target_mix,
            _stream(config.seed, _CRITIC_STREAM, k))
        policy_new, mask_pi = _masked_epochs(
            state.policy, "logp_policy", 2,
            _leader_rule(state, dataset, anchor, config, gamma, rates.policy,
                         coupling, gap),
            config.policy_epochs, _POLICY_STREAM, fitted.critic, batch,
            config, gamma, k)
        model_new, mask_mod = _masked_epochs(
            state.model, "logp_model", 3,
            _follower_rule(state, dataset, anchor, rates.model, coupling),
            config.model_epochs, _MODEL_STREAM, fitted.critic, batch, config,
            gamma, k)
        if config.dynamics == "constrained":
            lam_new = _dual_phase(state, gap, rates.dual)
        if not np.isfinite(lam_new):
            raise FloatingPointError("updated multiplier is non-finite")
        record["kl"] = dataset_kl(dataset, model_new, anchor)
        if not np.isfinite(record["kl"]):
            raise FloatingPointError("updated model has non-finite dataset KL")
        record["mask_rate_policy"] = mask_pi
        record["mask_rate_model"] = mask_mod
    except _ABORT_ERRORS as err:
        warnings.warn(f"iteration {k} aborted ({err}); keeping committed "
                      "parameters")
        record["aborted"] = 1
        policy_new, model_new, lam_new = state.policy, state.model, state.lam
        fitted = state
        record["kl"] = committed_kl

    state = replace(fitted, policy=policy_new, model=model_new, lam=lam_new,
                    iteration=k + 1)
    record["lam"] = state.lam
    if isinstance(env, TabularMdp):
        record["exact_objective"] = exact_return(env, state.policy,
                                                 state.model)
        record["exact_env_return"] = exact_return(env, state.policy, "true")
    return state, record


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def _zero_critic(model):
    """The zero critic over ``model``'s states and actions: tabular for a
    categorical model, linear for a Gaussian one."""
    if isinstance(model, CategoricalWorldModel):
        return TabularCritic.zeros(*model.logits.shape[:2])
    return LinearCritic.zeros(model.state_dim, model.action_dim)


def initial_state(env, anchor, config: TrainerConfig) -> TrainState:
    """Fresh state: uniform/zero policy, model at the anchor, zero critic."""
    if isinstance(env, TabularMdp):
        policy = SoftmaxPolicy.zeros(env.num_states, env.num_actions)
    else:
        policy = DiagGaussianPolicy.zeros(env.state_dim, env.action_dim)
    return TrainState(policy=policy, model=anchor.with_params(anchor.params),
                      lam=config.lam_init, critic=_zero_critic(anchor),
                      buffer=ReplayBuffer(config.buffer_capacity))


def save_checkpoint(state: TrainState, path) -> None:
    payload = {
        "iteration": state.iteration,
        "lam": state.lam,
        "policy": state.policy.params.to_dict(),
        "model": state.model.params.to_dict(),
        "critic": state.critic.to_dict(),
    }
    write_json(path, payload)


def load_checkpoint(path, policy_template, model_template) -> dict:
    """Rehydrate a checkpoint against templates carrying the right shapes;
    its critic needs the kind and array shapes of ``_zero_critic``'s."""
    payload = read_json_object(path, ("iteration", "lam", "policy", "model",
                                      "critic"))
    with reading(path):
        for part, keys, optional in (("policy", ["values"], ["layout"]),
                                     ("model", ["values"], ["layout"]),
                                     ("critic", ["kind", "q", "v", "target_v"], [])):
            with reading(part):
                if not isinstance(payload[part], dict):
                    raise ValueError("expected a JSON object")
                check_names("key", keys, payload[part], optional)
        players = {part: from_saved(template, payload[part], part) for part, template
                   in (("policy", policy_template), ("model", model_template))}
        for key, kinds in (("iteration", (int,)), ("lam", (int, float))):
            if type(payload[key]) not in kinds:
                raise ValueError(f"{key} must be a JSON {kinds[-1].__name__}, "
                                 f"got {payload[key]!r}")
        zero, critic = _zero_critic(model_template), payload["critic"]
        if critic["kind"] != zero.kind:
            raise ValueError(f"critic kind must be {zero.kind!r}, "
                             f"got {critic['kind']!r}")
        arrays = {}
        for key in ("q", "v", "target_v"):
            with reading(f"critic {key}"):
                arrays[key] = np.array(critic[key], dtype=float)
                if arrays[key].shape != getattr(zero, key).shape:
                    raise ValueError(f"has shape {arrays[key].shape}, not "
                                     f"{getattr(zero, key).shape}")
    return {"iteration": payload["iteration"], "lam": float(payload["lam"]),
            **players, "critic": replace(zero, **arrays)}


def train(env, dataset: OfflineDataset, anchor, config: TrainerConfig,
          out_dir=None) -> tuple[TrainState, TrainingTrace]:
    """Run the configured number of iterations from a fresh state.

    With ``out_dir`` set, writes the periodic and final checkpoints and
    ``trace.csv``, and nothing else: the manifest and the ``run.log``
    sidecar of a run directory are its subcommand's, written by
    ``cli.save_manifest``. ``n_iterations=0`` returns the untouched
    initial state and an empty trace.
    """
    state = initial_state(env, anchor, config)
    trace = TrainingTrace()
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    for _ in range(config.n_iterations):
        state, record = train_iteration(state, env, dataset, anchor, config)
        trace.append(record)
        if (out is not None and config.checkpoint_every
                and state.iteration % config.checkpoint_every == 0):
            save_checkpoint(state,
                            out / f"checkpoint_{state.iteration:04d}.json")
    if out is not None:
        save_checkpoint(state, out / "checkpoint_final.json")
        trace.save_csv(out / "trace.csv")
    return state, trace


# ---------------------------------------------------------------------------
# evaluation: inner minimization and noisy deployment
# ---------------------------------------------------------------------------


def exact_return_model_gradient(mdp: TabularMdp, policy,
                                model: CategoricalWorldModel) -> ExactGradients:
    """The exact model return ``j`` and its gradient ``grad_model`` with
    respect to the model logits, flat like ``model.params.values``, from one
    ``oracles.exact_gradients`` DP pass."""
    return exact_gradients(mdp, policy, model)


def _pulled_into_ball(model: CategoricalWorldModel,
                      anchor: CategoricalWorldModel, dataset: OfflineDataset,
                      epsilon: float) -> CategoricalWorldModel:
    """Shrink the model toward the anchor (straight line in logit space)
    until the dataset-weighted anchored KL is within the budget. A halving
    reads only the visited cells' logits, and sums their KL as
    ``dataset_kl`` does, so it decides as ``dataset_kl`` would on the whole
    interpolated model, without building it."""
    if dataset_kl(dataset, model, anchor) <= epsilon:
        return model
    s, a, counts = dataset.cells
    anchor_kl = categorical_kl_from(anchor.probs(s, a))
    mass = counts / dataset.n
    start, step = anchor.logits[s, a], (model.logits - anchor.logits)[s, a]
    lo, hi = 0.0, 1.0
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        kl = anchor_kl(_softmax(start + mid * step))
        if np.add.accumulate(mass * kl)[-1] <= epsilon:
            lo = mid
        else:
            hi = mid
    logits = anchor.logits + lo * (model.logits - anchor.logits)
    return CategoricalWorldModel(logits, anchor.outcome_rewards,
                                 anchor.outcome_next_states)


def worst_case_return(mdp: TabularMdp, policy,
                      anchor: CategoricalWorldModel, dataset: OfflineDataset,
                      epsilon: float, n_starts: int = 4, n_steps: int = 200,
                      step_size: float = 0.5,
                      seed=0) -> tuple[float, CategoricalWorldModel]:
    """Approximate inner minimum of the exact return over the anchored ball.

    Multi-start projected gradient descent: normalized gradient steps on the
    model logits with a 1/sqrt decay, each followed by a bisection pull back
    into ``{KL(anchor || model) <= epsilon}``. Returns the lowest return
    seen and the model that achieved it. A heuristic certificate: it lower-
    bounds nothing formally, but the multi-start spread plus the anchor
    start make it a strong adversary on small problems.
    """
    best_value = exact_return(mdp, policy, anchor)
    best_model = anchor
    for start in range(n_starts):
        rng = _stream(seed, _WORST_CASE_STREAM, start)
        logits = anchor.logits.copy()
        if start > 0:
            logits = logits + 0.5 * rng.standard_normal(logits.shape)
        model = _pulled_into_ball(
            CategoricalWorldModel(logits, anchor.outcome_rewards,
                                  anchor.outcome_next_states),
            anchor, dataset, epsilon)
        for step in range(n_steps):
            dp = exact_return_model_gradient(mdp, policy, model)
            if dp.j < best_value:
                best_value, best_model = float(dp.j), model
            grad = dp.grad_model
            norm = np.linalg.norm(grad)
            if norm < 1e-14:
                break
            delta = (step_size / np.sqrt(1.0 + step)) * grad / norm
            logits = model.logits - delta.reshape(model.logits.shape)
            model = _pulled_into_ball(
                CategoricalWorldModel(logits, anchor.outcome_rewards,
                                      anchor.outcome_next_states),
                anchor, dataset, epsilon)
        value = exact_return(mdp, policy, model)
        if value < best_value:
            best_value, best_model = value, model
    return best_value, best_model


def episode_returns(env: ContinuousMdp, policy, noise_fractions,
                    n_episodes: int, seed=0) -> np.ndarray:
    """Per-episode discounted returns under each relative transition noise
    fraction, shape (len(noise_fractions), n_episodes).

    One stream, ``_stream(seed, _EVAL_STREAM)``, draws every episode's
    standard normals as one row of a single block, episode after episode:
    the start state's, then at each step the action's, the emission's and
    the noise's, then a trailing action's. So an episode's draws depend on
    its index alone, never on ``n_episodes``. ``sample_trajectory`` then
    runs every episode at once, once per fraction, on those same normals,
    which keeps the fractions draw-for-draw coupled.
    """
    if n_episodes < 1:
        raise ValueError(f"n_episodes must be at least 1, got {n_episodes}")
    d, a, h = env.state_dim, env.action_dim, env.horizon
    draws = _stream(seed, _EVAL_STREAM).standard_normal(
        (n_episodes, d + h * (a + 2 * d + 1) + a))
    returns = np.zeros((len(noise_fractions), n_episodes))
    for out, fraction in zip(returns, noise_fractions):
        deploy = NoisyDeployment(env, fraction)
        rewards = sample_trajectory(policy, lambda s, act, normals: (
            deploy.step(s, act, normals), 0.0), env.reset(draws[:, :d]),
            draws[:, d:], h)["rewards"]
        for t in range(h):
            out += env.gamma ** t * rewards[:, t]
    return returns


def robust_evaluate(env: ContinuousMdp, policy, noise_fraction: float,
                    n_episodes: int = 200, seed=0) -> dict:
    """Paired clean/noisy evaluation: the mean discounted return without and
    with relative transition noise. Both come from one ``episode_returns``
    call, so they share every normal, and episode e reads row e of its
    block whatever ``n_episodes`` is."""
    if not isinstance(env, ContinuousMdp):
        raise TypeError("noisy deployment wraps continuous environments only")
    clean, noisy = (float(returns.mean()) for returns in episode_returns(
        env, policy, (0.0, noise_fraction), n_episodes, seed))
    return {"clean": clean, "noisy": noisy, "degradation": clean - noisy}
