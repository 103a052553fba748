"""Fixed test environments with independently known answers.

Every instance here is frozen: probabilities or model parameters are either
literal or derived from a hard-coded seed, so oracle values computed against
them stay valid. Nothing in this module is tuned to make a test pass; the
closed-form rest points are hand-derived from first-order conditions and the
layered MDP's zero-error property follows from its structure (every rollout
pays exactly one terminal reward, so per-cell continuation values are
constant).
"""

from __future__ import annotations

import numbers

import numpy as np

from .dynamics import SmoothGame
from .mdp import (ContinuousMdp, TabularMdp, check_names, read_json_object,
                  reading)
from .models import (LOGIT_FLOOR, CategoricalWorldModel, DiagGaussianPolicy,
                     SoftmaxPolicy)

# ---------------------------------------------------------------------------
# tabular instances
# ---------------------------------------------------------------------------


def gradient_mdp() -> TabularMdp:
    """3-state / 2-action / horizon-3 MDP with dense generic tables."""
    transition = np.array([
        [[0.50, 0.30, 0.20], [0.10, 0.60, 0.30]],
        [[0.25, 0.25, 0.50], [0.40, 0.20, 0.40]],
        [[0.30, 0.45, 0.25], [0.20, 0.30, 0.50]],
    ])
    reward_probs = np.array([
        [[0.70, 0.30], [0.45, 0.55]],
        [[0.20, 0.80], [0.60, 0.40]],
        [[0.35, 0.65], [0.50, 0.50]],
    ])
    return TabularMdp(transition=transition,
                      reward_values=np.array([0.2, 0.9]),
                      reward_probs=reward_probs,
                      init_dist=np.array([0.5, 0.3, 0.2]),
                      gamma=0.9, horizon=3)


def gradient_testbed() -> tuple[TabularMdp, SoftmaxPolicy, CategoricalWorldModel]:
    """The (environment, policy, model) triple used by the gradient oracles.

    The policy is generic (no symmetry), and the model is the true
    environment's table nudged by a seeded perturbation so that model and
    environment disagree everywhere.
    """
    mdp = gradient_mdp()
    policy = SoftmaxPolicy(np.array([[0.3, -0.4], [-0.2, 0.5], [0.1, -0.1]]))
    base = CategoricalWorldModel.from_mdp(mdp)
    rng = np.random.default_rng(20240517)
    logits = base.logits + 0.3 * rng.standard_normal(base.logits.shape)
    model = CategoricalWorldModel(logits, base.outcome_rewards,
                                  base.outcome_next_states)
    return mdp, policy, model


def small_mdp() -> TabularMdp:
    """2-state / 2-action / horizon-3 MDP (4-letter outcome alphabet)."""
    transition = np.array([
        [[0.70, 0.30], [0.35, 0.65]],
        [[0.50, 0.50], [0.20, 0.80]],
    ])
    reward_probs = np.array([
        [[0.60, 0.40], [0.30, 0.70]],
        [[0.80, 0.20], [0.45, 0.55]],
    ])
    return TabularMdp(transition=transition,
                      reward_values=np.array([0.1, 0.8]),
                      reward_probs=reward_probs,
                      init_dist=np.array([0.6, 0.4]),
                      gamma=0.9, horizon=3)


def small_testbed() -> tuple[TabularMdp, SoftmaxPolicy, CategoricalWorldModel]:
    mdp = small_mdp()
    policy = SoftmaxPolicy(np.array([[0.2, -0.3], [-0.1, 0.4]]))
    base = CategoricalWorldModel.from_mdp(mdp)
    rng = np.random.default_rng(777)
    logits = base.logits + 0.25 * rng.standard_normal(base.logits.shape)
    model = CategoricalWorldModel(logits, base.outcome_rewards,
                                  base.outcome_next_states)
    return mdp, policy, model


def sparse_reward_testbed() -> tuple[TabularMdp, SoftmaxPolicy,
                                     CategoricalWorldModel]:
    """Layered MDP whose only reward is the final transition into absorption.

    States: 0 start, 1-2 middle layer, 3-4 pre-terminal layer, 5 absorbing.
    Every trajectory of horizon 3 collects reward 1.0 exactly once, on the
    step from the pre-terminal layer into the absorbing state. Because each
    cell's outcomes all share the same continuation value, the score-product
    substitution for the log-density Hessian is exact here (up to the
    floor-probability dust of impossible outcomes).
    """
    s_n, a_n = 6, 2
    transition = np.zeros((s_n, a_n, s_n))
    transition[0, 0, [1, 2]] = [0.55, 0.45]
    transition[0, 1, [1, 2]] = [0.30, 0.70]
    transition[1, 0, [3, 4]] = [0.60, 0.40]
    transition[1, 1, [3, 4]] = [0.25, 0.75]
    transition[2, 0, [3, 4]] = [0.50, 0.50]
    transition[2, 1, [3, 4]] = [0.80, 0.20]
    transition[3, :, 5] = 1.0
    transition[4, :, 5] = 1.0
    transition[5, :, 5] = 1.0
    reward_probs = np.zeros((s_n, a_n, 2))
    reward_probs[:, :, 0] = 1.0          # reward 0 everywhere ...
    reward_probs[[3, 4]] = [0.0, 1.0]    # ... except leaving the pre-layer
    mdp = TabularMdp(transition=transition,
                     reward_values=np.array([0.0, 1.0]),
                     reward_probs=reward_probs,
                     init_dist=np.array([1.0, 0, 0, 0, 0, 0]),
                     gamma=0.9, horizon=3)
    rng = np.random.default_rng(4242)
    policy = SoftmaxPolicy(0.4 * rng.standard_normal((s_n, a_n)))
    base = CategoricalWorldModel.from_mdp(mdp)
    live = base.logits > 0.5 * LOGIT_FLOOR
    logits = base.logits + live * 0.35 * rng.standard_normal(base.logits.shape)
    model = CategoricalWorldModel(logits, base.outcome_rewards,
                                  base.outcome_next_states)
    return mdp, policy, model


# ---------------------------------------------------------------------------
# scalar games with hand-derived rest points
# ---------------------------------------------------------------------------

_GENERIC_CHECK = ((np.array([0.4]), np.array([0.9]), 1.3),)


def coupling_game(anchor: float = 0.7, radius: float = 0.16,
                  coupling: float = 1.0) -> SmoothGame:
    """J = -theta^2 + 2 c theta phi, gap = (phi - anchor)^2 - radius.

    Linear adversary influence keeps the penalized adversary strictly convex
    for every positive multiplier, and the active boundary point is unique,
    so the constrained dynamics has a regular attractor (unlike a matching
    game, J = -(theta - phi)^2, whose boundary candidates are not rest
    points). This is the canonical quadratic testbed for convergence checks.
    """
    c = float(coupling)

    def objective(theta, phi):
        return float(-theta[0] ** 2 + 2.0 * c * theta[0] * phi[0])

    def gap(phi):
        return float((phi[0] - anchor) ** 2 - radius)

    return SmoothGame(
        objective=objective,
        constraint_gap=gap,
        grad_theta=lambda t, p: np.array([-2.0 * t[0] + 2.0 * c * p[0]]),
        grad_phi_objective=lambda t, p: np.array([2.0 * c * t[0]]),
        grad_phi_gap=lambda p: np.array([2.0 * (p[0] - anchor)]),
        hess_phi_lagrangian=lambda t, p, lam: np.array([[2.0 * lam]]),
        mixed_hessian=lambda t, p, lam: np.array([[2.0 * c]]),
        check_points=_GENERIC_CHECK,
    )


def coupling_kkt(anchor: float = 0.7, radius: float = 0.16,
                 coupling: float = 1.0) -> tuple[float, float, float]:
    """Constrained rest point (c(anchor - r), anchor - r, c^2(anchor - r)/r)
    with r = sqrt(radius); requires anchor > sqrt(radius) > 0.

    The adversary (for positive theta) pushes phi to the lower boundary;
    adversary stationarity fixes the multiplier; at an exactly-active
    constraint the leader's corrected direction reduces to the raw partial
    -2 theta + 2 c phi, which vanishes at theta = c phi. All three updates
    are simultaneously stationary, and the point is attracting.
    """
    root = float(np.sqrt(radius))
    if not anchor > root > 0.0:
        raise ValueError("need anchor > sqrt(radius) > 0 for a unique "
                         "active boundary point")
    c = float(coupling)
    phi = anchor - root
    return c * phi, phi, c * c * phi / root


# ---------------------------------------------------------------------------
# continuous tracking task
# ---------------------------------------------------------------------------

TRACKING_DEFAULTS = {
    "target": 1.0,
    "peak_width": 0.12,
    "state_std": 0.05,
    "reward_std": 0.02,
    "start": -1.0,
    "start_std": 0.05,
    "gamma": 0.95,
    "horizon": 8,
}


def tracking_mdp(**overrides) -> ContinuousMdp:
    """1-D position tracking with a narrow reward peak.

    The state moves by exactly the chosen action (plus emission noise); the
    reward is a Gaussian bump around the target. Reaching the peak fast needs
    large moves, but under movement-proportional deployment noise large moves
    overshoot the narrow peak — which is what separates cautious from
    aggressive policies in the robustness study.
    """
    check_names("tracking parameter", (), overrides, TRACKING_DEFAULTS)
    p = dict(TRACKING_DEFAULTS)
    p.update(overrides)
    for key, value in p.items():
        with reading(key):
            if type(value) is bool or not isinstance(value, numbers.Real):
                raise ValueError(f"must be a real number, got {value!r}")
    target, width = float(p["target"]), float(p["peak_width"])

    def mean_fn(states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        pos = states[..., 0] + actions[..., 0]
        # float_power squares by libm pow at any leading shape; ** 2 squares
        # arrays exactly but numpy scalars by pow, so one row's mean would
        # then depend on whether it is computed alone or in a batch
        reward = np.exp(-0.5 * np.float_power((pos - target) / width, 2))
        return np.stack([pos, reward], axis=-1)

    return ContinuousMdp(
        state_dim=1, action_dim=1, mean_fn=mean_fn,
        std=np.array([p["state_std"], p["reward_std"]]),
        init_mean=np.array([p["start"]]), init_std=np.array([p["start_std"]]),
        gamma=p["gamma"], horizon=p["horizon"],
        name="tracking", params=p)


def tracking_behavior_policy(mdp: ContinuousMdp) -> DiagGaussianPolicy:
    """Exploratory proportional controller used to collect offline data."""
    target = float(mdp.params["target"])
    gain = 0.5
    weights = np.array([[-gain, gain * target]])  # action = gain*(target - s)
    return DiagGaussianPolicy(weights, np.log([0.4]))


# ---------------------------------------------------------------------------
# registry and environment I/O
# ---------------------------------------------------------------------------

CONTINUOUS_TESTBEDS = {
    "tracking": tracking_mdp,
}


def continuous_from_dict(payload: dict) -> ContinuousMdp:
    """The registered environment a ``ContinuousMdp.to_dict`` payload names."""
    check_names("key", ("name",), payload, ("kind", "params"))
    name = payload["name"]
    if name not in CONTINUOUS_TESTBEDS:
        raise ValueError(f"unknown continuous environment name {name!r}; "
                         f"registered: {sorted(CONTINUOUS_TESTBEDS)}")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("params must be a JSON object, got "
                         f"{type(params).__name__}")
    return CONTINUOUS_TESTBEDS[name](**params)


def load_environment(path) -> TabularMdp | ContinuousMdp:
    """Either environment kind from the JSON file its ``to_dict`` wrote."""
    payload = read_json_object(path, ())
    with reading(path):
        kind = payload.pop("kind", None)
        if kind == "tabular":
            return TabularMdp(**payload)
        if kind == "continuous":
            return continuous_from_dict(payload)
        raise ValueError(f"kind must be 'tabular' or 'continuous', got "
                         f"{kind!r}")


TABULAR_TESTBEDS = {
    "gradient": gradient_testbed,
    "small": small_testbed,
    "sparse": sparse_reward_testbed,
}
