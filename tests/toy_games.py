"""Scalar toy games with hand-derived rest points, for the dynamics and
testbed tests. Every instance is frozen, like the library's testbeds, and
shares their derivative self-check point. ``run_until`` steps a game until
a ``distance_stop`` predicate holds."""

from typing import Callable

import numpy as np

from stackmbrl.dynamics import DynamicsState, LearningRates, SmoothGame, step
from stackmbrl.testbeds import _GENERIC_CHECK


def distance_stop(target_theta, target_phi, target_lam: float | None,
                  tol: float) -> Callable[[DynamicsState], bool]:
    """Stop predicate: max-norm distance to a known rest point under tol."""
    target_theta = np.atleast_1d(np.asarray(target_theta, dtype=float))
    target_phi = np.atleast_1d(np.asarray(target_phi, dtype=float))

    def check(state: DynamicsState) -> bool:
        err = max(np.max(np.abs(state.theta - target_theta)),
                  np.max(np.abs(state.phi - target_phi)))
        if target_lam is not None:
            err = max(err, abs(state.lam - target_lam))
        return err < tol

    return check


def run_until(game: SmoothGame, init: DynamicsState, rates: LearningRates,
              mode: str, n_steps: int,
              stop: Callable[[DynamicsState], bool]) -> DynamicsState:
    """Apply ``step(..., mode)`` from ``init`` until ``stop`` holds after a
    step, or for ``n_steps`` steps."""
    state = init.copy()
    for _ in range(n_steps):
        state = step(game, state, rates, mode)
        if stop(state):
            break
    return state


def matching_game(anchor: float = 0.3, radius: float = 0.04) -> SmoothGame:
    """J = -(theta - phi)^2 with constraint gap (phi - anchor)^2 - radius.

    The leader chases the adversary; the adversary flees within a ball
    around the anchor. Good for the fixed-multiplier dynamics; see
    ``matching_boundary_kkt`` for why the constrained dynamics cannot
    settle at this game's boundary rest candidates.
    """

    def objective(theta, phi):
        return -float((theta[0] - phi[0]) ** 2)

    def gap(phi):
        return float((phi[0] - anchor) ** 2 - radius)

    return SmoothGame(
        objective=objective,
        constraint_gap=gap,
        grad_theta=lambda t, p: np.array([-2.0 * (t[0] - p[0])]),
        grad_phi_objective=lambda t, p: np.array([2.0 * (t[0] - p[0])]),
        grad_phi_gap=lambda p: np.array([2.0 * (p[0] - anchor)]),
        hess_phi_lagrangian=lambda t, p, lam: np.array([[2.0 * lam - 2.0]]),
        mixed_hessian=lambda t, p, lam: np.array([[2.0]]),
        check_points=_GENERIC_CHECK,
    )


def matching_lse(anchor: float = 0.3) -> tuple[float, float]:
    """Rest point of the corrected dynamics with the multiplier frozen at 2.

    Follower response: phi(theta) = 2*anchor - theta; the leader's corrected
    payoff -4 (theta - anchor)^2 peaks at theta = anchor, where the response
    returns to the anchor as well.
    """
    return anchor, anchor


def matching_boundary_kkt(anchor: float = 0.3, radius: float = 0.04,
                          side: int = 1) -> tuple[float, float, float]:
    """First-order boundary triple (anchor, anchor +/- sqrt(radius), 1).

    This satisfies stationarity of the penalized adversary, feasibility, and
    complementary slackness, but it is NOT a fixed point of the constrained
    update: with a single adversary parameter pinned to an active boundary,
    the leader's corrected direction degenerates to the raw partial
    -2(theta - phi) = -/+ 2 sqrt(radius) != 0. The only exact fixed points of
    the constrained stepper on this game form the degenerate interior family
    {theta = phi, |phi - anchor| <= sqrt(radius), multiplier = 0}, and those
    are unstable to rounding noise, so no initialization-robust convergence
    target exists here. Kept for the documented negative test.
    """
    return anchor, anchor + side * float(np.sqrt(radius)), 1.0


def coupling_lse(anchor: float = 0.7, lam_fixed: float = 2.0,
                 coupling: float = 1.0) -> tuple[float, float]:
    """Fixed-multiplier rest point of the corrected dynamics.

    Follower response phi(theta) = anchor - c theta / lam; substituting into
    J and maximizing gives theta* = c * anchor * lam / (lam + 2 c^2).
    """
    c = float(coupling)
    theta = c * anchor * lam_fixed / (lam_fixed + 2.0 * c * c)
    return theta, anchor - c * theta / lam_fixed


def follower_best_response(theta: float, anchor: float, lam: float,
                           coupling: float = 1.0) -> float:
    """Minimizer of the coupling game's penalized adversary objective."""
    if lam <= 0.0:
        raise ValueError("the penalized adversary objective is only convex "
                         "for positive multipliers")
    return anchor - coupling * theta / lam


def bilinear_game() -> SmoothGame:
    """J = theta * phi, no constraint: the classic non-converging example."""

    def objective(theta, phi):
        return float(theta[0] * phi[0])

    return SmoothGame(
        objective=objective,
        constraint_gap=lambda p: 0.0,
        grad_theta=lambda t, p: np.array([p[0]]),
        grad_phi_objective=lambda t, p: np.array([t[0]]),
        grad_phi_gap=lambda p: np.array([0.0]),
        hess_phi_lagrangian=lambda t, p, lam: np.array([[0.0]]),
        mixed_hessian=lambda t, p, lam: np.array([[1.0]]),
        check_points=_GENERIC_CHECK,
    )


def saddle_game() -> SmoothGame:
    """J = -theta^2 + theta*phi + phi^2: strongly convex for the follower,
    strongly concave along the follower's response; rest point (0, 0)."""

    def objective(theta, phi):
        return float(-theta[0] ** 2 + theta[0] * phi[0] + phi[0] ** 2)

    return SmoothGame(
        objective=objective,
        constraint_gap=lambda p: 0.0,
        grad_theta=lambda t, p: np.array([-2.0 * t[0] + p[0]]),
        grad_phi_objective=lambda t, p: np.array([t[0] + 2.0 * p[0]]),
        grad_phi_gap=lambda p: np.array([0.0]),
        hess_phi_lagrangian=lambda t, p, lam: np.array([[2.0]]),
        mixed_hessian=lambda t, p, lam: np.array([[1.0]]),
        check_points=_GENERIC_CHECK,
    )
