"""Coupled learning dynamics for the leader/adversary/multiplier game.

``step`` updates the shared state (theta, phi, lam) from a ``SmoothGame``'s
exact derivatives; finite differences only check them when the game is
built. The adversary descends its penalized objective J + lam * gap, and
each mode is one row of ``_MODES``, the leader corrections it tries in turn:

* ``naive``        — none: the leader ascends grad_theta J, the multiplier
                     stays fixed. Diverges on the bilinear counterexample.
* ``stackelberg``  — grad_theta J - M^T A^{-1} grad_phi J, multiplier fixed.
* ``constrained``  — the same with the multiplier-aware inverse curvature H,
                     then with A^{-1}; the multiplier takes projected ascent
                     steps on the constraint gap.

Both this dense route (small closed-form games) and the factored one that
:mod:`.trainer` assembles apply H through ``woodbury.dual_corrected``; here
A^{-1} is a dense solve, and a scalar adversary takes the closed form
H = c / (a c - lam b^2), finite as a -> 0. On a singular curvature or Schur
complement the routes differ: a step here warns as its row says and falls
back to the next correction, then to grad_theta J, while
``trainer.train_iteration`` aborts the iteration and keeps the committed
state.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .mdp import write_csv
from .oracles import central_difference
from .woodbury import SCHUR_FLOOR, SingularScalarError, dual_corrected

RATE_MODEL_DEFAULT = 3e-3
RATE_DUAL_DEFAULT = 3e-4
RATE_POLICY_DEFAULT = 3e-5
MULTIPLIER_INIT = 1.0
FD_EPS = 1e-6  # step of the finite differences that check derivatives
FD_CHECK_TOL = 1e-8  # largest gap a derivative may show against them


@dataclass(frozen=True)
class LearningRates:
    """Per-player step sizes with the timescale ordering model > dual > policy."""

    model: float = RATE_MODEL_DEFAULT
    dual: float = RATE_DUAL_DEFAULT
    policy: float = RATE_POLICY_DEFAULT
    decay_power: float = 0.0
    enforce_ordering: bool = True

    def __post_init__(self):
        # written so that NaN fails each check
        if not all(rate > 0.0 for rate in (self.model, self.dual, self.policy)):
            raise ValueError("all rates must be positive")
        if self.enforce_ordering and not (self.model > self.dual > self.policy):
            # Deliberately mis-ordered schedules (for divergence studies) must
            # opt out explicitly.
            raise ValueError(
                f"rates must satisfy model > dual > policy, got "
                f"({self.model}, {self.dual}, {self.policy})")
        if not self.decay_power >= 0.0:
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
    With p leader and q adversary parameters, the derivative callables return
    exact derivatives as float arrays: ``grad_theta(theta, phi)`` (p,),
    ``grad_phi_objective(theta, phi)`` and ``grad_phi_gap(phi)`` (q,), and,
    of L, ``hess_phi_lagrangian(theta, phi, lam)`` (q, q) and
    ``mixed_hessian(theta, phi, lam)`` (q, p). Finite differences only check
    them, at the ``check_points``.
    """

    objective: Callable[[np.ndarray, np.ndarray], float]
    constraint_gap: Callable[[np.ndarray], float]
    grad_theta: Callable
    grad_phi_objective: Callable
    grad_phi_gap: Callable
    hess_phi_lagrangian: Callable
    mixed_hessian: Callable
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

    def d_phi_lagrangian(self, theta, phi, lam: float) -> np.ndarray:
        return self.grad_phi_objective(theta, phi) + lam * self.grad_phi_gap(phi)

    def check_derivatives(self, theta, phi, lam: float):
        """Compare each derivative with central differences of step
        ``FD_EPS``: the gradients with those of J and the gap, the curvature
        blocks with those of the supplied Lagrangian gradient."""
        pairs = [
            ("grad_theta", self.grad_theta(theta, phi),
             central_difference(lambda t: self.j(t, phi), theta, FD_EPS)),
            ("grad_phi_objective", self.grad_phi_objective(theta, phi),
             central_difference(lambda f: self.j(theta, f), phi, FD_EPS)),
            ("grad_phi_gap", self.grad_phi_gap(phi),
             central_difference(self.gap, phi, FD_EPS)),
            ("hess_phi_lagrangian", self.hess_phi_lagrangian(theta, phi, lam),
             central_difference(lambda f: self.d_phi_lagrangian(theta, f, lam),
                                phi, FD_EPS)),
            ("mixed_hessian", self.mixed_hessian(theta, phi, lam),
             central_difference(lambda t: self.d_phi_lagrangian(t, phi, lam),
                                theta, FD_EPS)),
        ]
        for name, analytic, numeric in pairs:
            gap = (np.max(np.abs(analytic - numeric))
                   if np.shape(analytic) == numeric.shape else np.inf)
            if gap > FD_CHECK_TOL:
                raise AssertionError(
                    f"analytic '{name}' of shape {np.shape(analytic)} "
                    f"disagrees with finite differences by {gap:.3e} "
                    f"(tol {FD_CHECK_TOL:.1e})")


def _corrected_ascent(g_theta, g_phi, a, m, b, c, lam: float,
                      use_dual_row: bool) -> np.ndarray:
    """Total leader derivative g_theta - M^T H g_phi from the step's
    derivatives; H carries the multiplier row when ``use_dual_row``."""
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
        h_g = np.linalg.solve(a, g_phi)
        if use_dual_row and lam != 0.0:
            h_b = np.linalg.solve(a, b)
            h_g = dual_corrected(h_g, h_b, float(b @ h_g), float(b @ h_b),
                                 lam, c)
    except np.linalg.LinAlgError as err:
        raise SingularScalarError(
            f"adversary curvature is singular ({err}); no correction "
            "available at this point") from err
    return g_theta - m.T @ h_g


# mode -> the leader corrections it tries in turn, each as (uses the dual
# row, warning when it fails or None); once all fail the leader ascends
# g_theta. A mode whose corrections use the dual row also moves the
# multiplier.
_MODES = {
    "naive": (),
    "stackelberg": ((False, "leader correction unavailable ({err}); using "
                     "the plain objective gradient"),),
    "constrained": ((True, "dual-aware correction unavailable ({err}); "
                     "falling back to the multiplier-free correction"),
                    (False, None)),
}
DYNAMICS_MODES = tuple(_MODES)


def step(game: SmoothGame, state: DynamicsState, rates: LearningRates,
         mode: str) -> DynamicsState:
    """One update of ``mode``, evaluating each derivative of ``game`` once."""
    if mode not in _MODES:
        raise ValueError(f"unknown dynamics mode {mode!r}; "
                         f"choose from {sorted(_MODES)}")
    corrections = _MODES[mode]
    moves_lam = any(dual_row for dual_row, _ in corrections)
    eta = rates.at(state.iteration)
    theta, phi, lam = state.theta, state.phi, state.lam
    g_theta = ascent = game.grad_theta(theta, phi)
    g_phi = game.grad_phi_objective(theta, phi)
    b = game.grad_phi_gap(phi)
    gap = game.gap(phi) if moves_lam else None
    if corrections:
        a = game.hess_phi_lagrangian(theta, phi, lam)
        m = game.mixed_hessian(theta, phi, lam)
    for dual_row, warning in corrections:
        try:
            ascent = _corrected_ascent(g_theta, g_phi, a, m, b, gap, lam,
                                       dual_row)
            break
        except SingularScalarError as err:
            if warning:
                warnings.warn(warning.format(err=err), RuntimeWarning,
                              stacklevel=2)
    return DynamicsState(theta + eta.policy * ascent,
                         phi - eta.model * (g_phi + lam * b),
                         max(0.0, lam + eta.dual * gap) if moves_lam else lam,
                         state.iteration + 1)


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
            float(np.linalg.norm(game.grad_theta(state.theta, state.phi))))
        self.grad_norms_model.append(float(np.linalg.norm(
            game.d_phi_lagrangian(state.theta, state.phi, state.lam))))

    def __len__(self) -> int:
        return len(self.states)

    def save_csv(self, path):
        write_csv(path, ["iteration", "theta", "phi", "lam", "objective",
                         "gap", "grad_norm_policy", "grad_norm_model"],
                  ([state.iteration,
                    " ".join(repr(float(v)) for v in state.theta),
                    " ".join(repr(float(v)) for v in state.phi),
                    repr(float(state.lam)), repr(self.objectives[i]),
                    repr(self.gaps[i]), repr(self.grad_norms_policy[i]),
                    repr(self.grad_norms_model[i])]
                   for i, state in enumerate(self.states)))


def run_dynamics(game: SmoothGame, init: DynamicsState, rates: LearningRates,
                 mode: str = "constrained", n_steps: int = 1000,
                 record_every: int = 1) -> tuple[DynamicsState, DynamicsTrace]:
    """Iterate one update rule for ``n_steps`` (>= 1).

    The trace holds the initial state plus every ``record_every``-th
    (>= 1) completed step. Non-finite iterates abort with the offending
    iteration index.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    state = init.copy()
    trace = DynamicsTrace()
    trace.record(game, state)
    for k in range(n_steps):
        state = step(game, state, rates, mode)
        if not (np.isfinite(state.theta).all() and np.isfinite(state.phi).all()
                and np.isfinite(state.lam)):
            raise FloatingPointError(
                f"iterates became non-finite at iteration {state.iteration}")
        if (k + 1) % record_every == 0:
            trace.record(game, state)
    return state, trace
