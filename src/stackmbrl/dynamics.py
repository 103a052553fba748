"""Coupled learning dynamics for the leader/adversary/multiplier game.

Three update rules over a shared state (theta, phi, lam):

* ``naive``        — simultaneous gradient ascent/descent with a fixed
                     multiplier; no leader correction. Diverges on the
                     bilinear counterexample.
* ``stackelberg``  — leader ascends the total derivative
                     grad_theta J - M^T A^{-1} grad_phi J with the
                     multiplier frozen at its configured value.
* ``constrained``  — full three-player rule: the leader correction uses the
                     multiplier-aware inverse curvature H, the adversary
                     descends the penalized objective, and the multiplier
                     takes projected ascent steps on the constraint gap.

This module works on small dense games (closed-form testbeds, unit checks);
the factored large-scale route is assembled in :mod:`.trainer` from
:mod:`.estimators` and :mod:`.woodbury`. Both routes apply H through the
one dual-row solve, ``woodbury.dual_corrected``: here A^{-1} is a dense
solve, and a scalar adversary takes the closed form H = c / (a c - lam b^2),
which stays finite as a -> 0.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .oracles import central_difference
from .woodbury import SCHUR_FLOOR, SingularScalarError, dual_corrected

RATE_MODEL_DEFAULT = 3e-3
RATE_DUAL_DEFAULT = 3e-4
RATE_POLICY_DEFAULT = 3e-5
MULTIPLIER_INIT = 1.0
FD_EPS = 1e-6  # step of the finite differences that stand in for derivatives
FD_CHECK_TOL = 1e-8  # largest gap a supplied derivative may show against them


@dataclass(frozen=True)
class LearningRates:
    """Per-player step sizes with the timescale ordering model > dual > policy."""

    model: float = RATE_MODEL_DEFAULT
    dual: float = RATE_DUAL_DEFAULT
    policy: float = RATE_POLICY_DEFAULT
    decay_power: float = 0.0
    enforce_ordering: bool = True

    def __post_init__(self):
        if min(self.model, self.dual, self.policy) <= 0.0:
            raise ValueError("all rates must be positive")
        if self.enforce_ordering and not (self.model > self.dual > self.policy):
            # Deliberately mis-ordered schedules (for divergence studies) must
            # opt out explicitly.
            raise ValueError(
                f"rates must satisfy model > dual > policy, got "
                f"({self.model}, {self.dual}, {self.policy})")
        if self.decay_power < 0.0:
            raise ValueError("decay_power must be non-negative")

    def at(self, step: int) -> "LearningRates":
        """Rates after ``step`` updates: eta / (1 + step)^p."""
        if self.decay_power == 0.0:
            return self
        scale = (1.0 + step) ** (-self.decay_power)
        return LearningRates(self.model * scale, self.dual * scale,
                             self.policy * scale, 0.0,
                             enforce_ordering=self.enforce_ordering)

    def to_dict(self) -> dict:
        return {"model": self.model, "dual": self.dual, "policy": self.policy,
                "decay_power": self.decay_power}


@dataclass
class DynamicsState:
    theta: np.ndarray
    phi: np.ndarray
    lam: float = MULTIPLIER_INIT
    iteration: int = 0

    def __post_init__(self):
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float)).copy()
        self.phi = np.atleast_1d(np.asarray(self.phi, dtype=float)).copy()

    def copy(self) -> "DynamicsState":
        return DynamicsState(self.theta.copy(), self.phi.copy(), self.lam,
                             self.iteration)


@dataclass
class SmoothGame:
    """A differentiable leader/adversary game with a scalar constraint gap.

    The adversary's penalized objective is L = J(theta, phi) + lam * gap(phi).
    Derivative callables may be omitted; missing ones fall back to central
    finite differences, of step ``FD_EPS``, of the two scalar functions.
    """

    objective: Callable[[np.ndarray, np.ndarray], float]
    constraint_gap: Callable[[np.ndarray], float]
    grad_theta: Callable | None = None
    grad_phi_objective: Callable | None = None
    grad_phi_gap: Callable | None = None
    hess_phi_lagrangian: Callable | None = None   # (theta, phi, lam) -> (q, q)
    mixed_hessian: Callable | None = None         # (theta, phi, lam) -> (q, p)
    check_points: tuple = ()  # (theta, phi, lam) triples self-checked on build

    def __post_init__(self):
        for theta, phi, lam in self.check_points:
            self.check_derivatives(np.atleast_1d(np.asarray(theta, dtype=float)),
                                   np.atleast_1d(np.asarray(phi, dtype=float)),
                                   float(lam))

    def j(self, theta, phi) -> float:
        return float(self.objective(np.atleast_1d(theta), np.atleast_1d(phi)))

    def gap(self, phi) -> float:
        return float(self.constraint_gap(np.atleast_1d(phi)))

    def d_theta(self, theta, phi) -> np.ndarray:
        if self.grad_theta is not None:
            return np.atleast_1d(np.asarray(self.grad_theta(theta, phi), dtype=float))
        return central_difference(lambda t: self.j(t, phi), theta, FD_EPS)

    def d_phi_objective(self, theta, phi) -> np.ndarray:
        if self.grad_phi_objective is not None:
            return np.atleast_1d(np.asarray(self.grad_phi_objective(theta, phi),
                                            dtype=float))
        return central_difference(lambda f: self.j(theta, f), phi, FD_EPS)

    def d_phi_gap(self, phi) -> np.ndarray:
        if self.grad_phi_gap is not None:
            return np.atleast_1d(np.asarray(self.grad_phi_gap(phi), dtype=float))
        return central_difference(self.gap, phi, FD_EPS)

    def d_phi_lagrangian(self, theta, phi, lam: float) -> np.ndarray:
        return self.d_phi_objective(theta, phi) + lam * self.d_phi_gap(phi)

    def curvature(self, theta, phi, lam: float) -> np.ndarray:
        if self.hess_phi_lagrangian is not None:
            return np.atleast_2d(np.asarray(
                self.hess_phi_lagrangian(theta, phi, lam), dtype=float))
        jac = central_difference(
            lambda f: self.d_phi_lagrangian(theta, f, lam), phi, FD_EPS)
        return 0.5 * (jac + jac.T)

    def mixed(self, theta, phi, lam: float) -> np.ndarray:
        if self.mixed_hessian is not None:
            return np.atleast_2d(np.asarray(
                self.mixed_hessian(theta, phi, lam), dtype=float))
        return central_difference(
            lambda t: self.d_phi_lagrangian(t, phi, lam), theta, FD_EPS)

    def check_derivatives(self, theta, phi, lam: float):
        """Compare any supplied analytic derivative against finite differences.

        First-order callbacks are differenced from the scalar objectives;
        curvature callbacks are differenced from the (possibly analytic)
        gradients, so the comparison stays first-difference accurate.
        """
        bare = SmoothGame(self.objective, self.constraint_gap)
        grads_only = SmoothGame(self.objective, self.constraint_gap,
                                self.grad_theta, self.grad_phi_objective,
                                self.grad_phi_gap)
        pairs = [
            ("grad_theta", self.d_theta(theta, phi), bare.d_theta(theta, phi)),
            ("grad_phi_objective", self.d_phi_objective(theta, phi),
             bare.d_phi_objective(theta, phi)),
            ("grad_phi_gap", self.d_phi_gap(phi), bare.d_phi_gap(phi)),
            ("hess_phi_lagrangian", self.curvature(theta, phi, lam),
             grads_only.curvature(theta, phi, lam)),
            ("mixed_hessian", self.mixed(theta, phi, lam),
             grads_only.mixed(theta, phi, lam)),
        ]
        for name, analytic, numeric in pairs:
            gap = np.max(np.abs(analytic - numeric))
            if gap > FD_CHECK_TOL:
                raise AssertionError(
                    f"analytic '{name}' disagrees with finite differences "
                    f"by {gap:.3e} (tol {FD_CHECK_TOL:.1e})")


def _corrected_ascent(game: SmoothGame, state: DynamicsState, lam: float,
                      use_dual_row: bool) -> np.ndarray:
    """Total leader derivative with the (optionally dual-aware) correction."""
    g_theta = game.d_theta(state.theta, state.phi)
    g_phi = game.d_phi_objective(state.theta, state.phi)
    a = game.curvature(state.theta, state.phi, lam)
    m = game.mixed(state.theta, state.phi, lam)
    b = game.d_phi_gap(state.phi)
    c = game.gap(state.phi)

    if use_dual_row and a.shape == (1, 1):
        # scalar adversary: H = c / (a c - lam b^2), finite even as a -> 0
        denom = a[0, 0] * c - lam * float(b @ b)
        if abs(denom) < SCHUR_FLOOR * max(1.0, abs(a[0, 0])):
            raise SingularScalarError(
                f"scalar dual-corrected curvature denominator {denom:.3e} "
                "is numerically zero")
        h_g = (c / denom) * g_phi
        return g_theta - m.T @ h_g

    try:
        h_g = dual_corrected(lambda rhs: np.linalg.solve(a, rhs), g_phi,
                             b if use_dual_row else np.zeros(0), lam, c)
    except np.linalg.LinAlgError as err:
        raise SingularScalarError(
            f"adversary curvature is singular ({err}); no correction "
            "available at this point") from err
    return g_theta - m.T @ h_g


def step_naive(game: SmoothGame, state: DynamicsState,
               rates: LearningRates) -> DynamicsState:
    """Uncorrected simultaneous play; the multiplier stays fixed."""
    eta = rates.at(state.iteration)
    theta = state.theta + eta.policy * game.d_theta(state.theta, state.phi)
    phi = state.phi - eta.model * game.d_phi_lagrangian(state.theta, state.phi,
                                                        state.lam)
    return DynamicsState(theta, phi, state.lam, state.iteration + 1)


def step_stackelberg(game: SmoothGame, state: DynamicsState,
                     rates: LearningRates) -> DynamicsState:
    """Leader correction through the adversary's curvature; fixed multiplier."""
    eta = rates.at(state.iteration)
    try:
        ascent = _corrected_ascent(game, state, state.lam, use_dual_row=False)
    except SingularScalarError as err:
        warnings.warn(f"leader correction unavailable ({err}); using the "
                      "plain objective gradient", RuntimeWarning, stacklevel=2)
        ascent = game.d_theta(state.theta, state.phi)
    theta = state.theta + eta.policy * ascent
    phi = state.phi - eta.model * game.d_phi_lagrangian(state.theta, state.phi,
                                                        state.lam)
    return DynamicsState(theta, phi, state.lam, state.iteration + 1)


def step_constrained(game: SmoothGame, state: DynamicsState,
                     rates: LearningRates) -> DynamicsState:
    """Full three-player update with projected multiplier ascent."""
    eta = rates.at(state.iteration)
    try:
        ascent = _corrected_ascent(game, state, state.lam, use_dual_row=True)
    except SingularScalarError as err:
        warnings.warn(f"dual-aware correction unavailable ({err}); "
                      "falling back to the multiplier-free correction",
                      RuntimeWarning, stacklevel=2)
        try:
            ascent = _corrected_ascent(game, state, state.lam,
                                       use_dual_row=False)
        except SingularScalarError:
            ascent = game.d_theta(state.theta, state.phi)
    gap = game.gap(state.phi)
    theta = state.theta + eta.policy * ascent
    phi = state.phi - eta.model * game.d_phi_lagrangian(state.theta, state.phi,
                                                        state.lam)
    lam = max(0.0, state.lam + eta.dual * gap)
    return DynamicsState(theta, phi, lam, state.iteration + 1)


STEPPERS = {
    "naive": step_naive,
    "stackelberg": step_stackelberg,
    "constrained": step_constrained,
}


@dataclass
class DynamicsTrace:
    states: list = field(default_factory=list)
    objectives: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    grad_norms_policy: list = field(default_factory=list)
    grad_norms_model: list = field(default_factory=list)

    def record(self, game: SmoothGame, state: DynamicsState):
        self.states.append(state.copy())
        self.objectives.append(game.j(state.theta, state.phi))
        self.gaps.append(game.gap(state.phi))
        self.grad_norms_policy.append(
            float(np.linalg.norm(game.d_theta(state.theta, state.phi))))
        self.grad_norms_model.append(float(np.linalg.norm(
            game.d_phi_lagrangian(state.theta, state.phi, state.lam))))

    def __len__(self) -> int:
        return len(self.states)

    def save_csv(self, path):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["iteration", "theta", "phi", "lam", "objective",
                             "gap", "grad_norm_policy", "grad_norm_model"])
            for i, state in enumerate(self.states):
                writer.writerow([state.iteration,
                                 " ".join(repr(float(v)) for v in state.theta),
                                 " ".join(repr(float(v)) for v in state.phi),
                                 repr(float(state.lam)),
                                 repr(self.objectives[i]),
                                 repr(self.gaps[i]),
                                 repr(self.grad_norms_policy[i]),
                                 repr(self.grad_norms_model[i])])


def run_dynamics(game: SmoothGame, init: DynamicsState, rates: LearningRates,
                 mode: str = "constrained", n_steps: int = 1000,
                 record_every: int = 1) -> tuple[DynamicsState, DynamicsTrace]:
    """Iterate one update rule for ``n_steps`` (>= 1).

    The trace holds the initial state plus every ``record_every``-th
    (>= 1) completed step. Non-finite iterates abort with the offending
    iteration index.
    """
    if mode not in STEPPERS:
        raise ValueError(f"unknown dynamics mode {mode!r}; "
                         f"choose from {sorted(STEPPERS)}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    stepper = STEPPERS[mode]
    state = init.copy()
    trace = DynamicsTrace()
    trace.record(game, state)
    for k in range(n_steps):
        state = stepper(game, state, rates)
        if not (np.isfinite(state.theta).all() and np.isfinite(state.phi).all()
                and np.isfinite(state.lam)):
            raise FloatingPointError(
                f"iterates became non-finite at iteration {state.iteration}")
        if (k + 1) % record_every == 0:
            trace.record(game, state)
    return state, trace
