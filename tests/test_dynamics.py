"""Coupled update rules on closed-form games: fixed points, orderings, traces."""

import csv
import warnings
from dataclasses import replace

import numpy as np
import pytest

from stackmbrl.dynamics import (MULTIPLIER_INIT, RATE_DUAL_DEFAULT,
                                RATE_MODEL_DEFAULT, RATE_POLICY_DEFAULT,
                                DYNAMICS_MODES, DynamicsState, LearningRates,
                                SmoothGame, run_dynamics, step)
from stackmbrl.testbeds import coupling_game, coupling_kkt
from stackmbrl.trainer import TrainerConfig
from stackmbrl.woodbury import SCHUR_FLOOR
from toy_games import (bilinear_game, coupling_lse, distance_stop,
                       follower_best_response, matching_boundary_kkt,
                       matching_game, matching_lse, run_until, saddle_game)


def equal_rates(eta: float) -> LearningRates:
    return LearningRates(model=eta, dual=eta, policy=eta,
                         enforce_ordering=False)


def decoupled_game() -> SmoothGame:
    """J = -theta^2 + phi^2 with no cross term and no constraint."""
    return SmoothGame(
        objective=lambda t, p: float(-t[0] ** 2 + p[0] ** 2),
        constraint_gap=lambda p: 0.0,
        grad_theta=lambda t, p: np.array([-2.0 * t[0]]),
        grad_phi_objective=lambda t, p: np.array([2.0 * p[0]]),
        grad_phi_gap=lambda p: np.array([0.0]),
        hess_phi_lagrangian=lambda t, p, lam: np.array([[2.0]]),
        mixed_hessian=lambda t, p, lam: np.array([[0.0]]),
        check_points=((np.array([0.3]), np.array([-0.4]), 0.7),),
    )


# ---------------------------------------------------------------------------
# learning rates
# ---------------------------------------------------------------------------


def test_rate_defaults_and_ordering():
    rates = LearningRates()
    assert (rates.model, rates.dual, rates.policy) == (3e-3, 3e-4, 3e-5)
    assert rates.model == RATE_MODEL_DEFAULT
    assert rates.dual == RATE_DUAL_DEFAULT
    assert rates.policy == RATE_POLICY_DEFAULT
    assert MULTIPLIER_INIT == 1.0


def test_rate_ordering_enforced_unless_opted_out():
    with pytest.raises(ValueError):
        LearningRates(model=1e-4, dual=1e-3, policy=1e-2)
    with pytest.raises(ValueError):
        LearningRates(model=1e-3, dual=1e-3, policy=1e-4)
    loose = LearningRates(model=1e-4, dual=1e-3, policy=1e-2,
                          enforce_ordering=False)
    assert loose.policy == 1e-2
    with pytest.raises(ValueError):
        LearningRates(model=0.0, dual=-1.0, policy=1e-5)


def test_rate_decay_schedule(tmp_path):
    rates = LearningRates(decay_power=1.0)
    assert rates.at(0).model == pytest.approx(3e-3)
    scaled = rates.at(3)
    assert scaled.model == pytest.approx(3e-3 / 4)
    assert scaled.dual == pytest.approx(3e-4 / 4)
    assert scaled.policy == pytest.approx(3e-5 / 4)
    flat = LearningRates()
    assert flat.at(100) is flat
    # a saved config keeps every field of its rates
    config = TrainerConfig(rates=LearningRates(
        1e-4, 1e-3, 1e-2, decay_power=1.0, enforce_ordering=False))
    config.save(tmp_path / "config.json")
    assert TrainerConfig.load(tmp_path / "config.json") == config


# ---------------------------------------------------------------------------
# smooth-game plumbing
# ---------------------------------------------------------------------------


DERIVATIVES = ("grad_theta", "grad_phi_objective", "grad_phi_gap",
               "hess_phi_lagrangian", "mixed_hessian")


@pytest.mark.parametrize("name", DERIVATIVES)
def test_wrong_analytic_derivative_fails_construction(name):
    """A derivative off by a constant fails the check that names it; the
    offset leaves the Lagrangian gradient's differences, and so the
    curvature checks, as they were."""
    game = coupling_game()
    exact = getattr(game, name)
    with pytest.raises(AssertionError, match=f"analytic '{name}' of shape"):
        replace(game, **{name: lambda *args: exact(*args) + 1.0})


def test_misshapen_derivative_fails_construction():
    with pytest.raises(AssertionError, match=r"shape \(1,\) disagrees .* inf"):
        replace(coupling_game(), mixed_hessian=lambda t, p, lam: 2.0 * t)


def test_builtin_games_pass_their_own_derivative_checks():
    # construction runs check_derivatives at the frozen probe points
    for build in (matching_game, coupling_game, bilinear_game, saddle_game):
        game = build()
        assert np.isfinite(game.j(np.array([0.1]), np.array([0.2])))


# ---------------------------------------------------------------------------
# naive stepper
# ---------------------------------------------------------------------------


def test_naive_rest_at_zero_gradient_point():
    game = saddle_game()
    state = DynamicsState(np.zeros(1), np.zeros(1), lam=0.3)
    for _ in range(5):
        state = step(game, state, equal_rates(1e-2), "naive")
    assert state.theta[0] == 0.0 and state.phi[0] == 0.0
    assert state.lam == 0.3
    assert state.iteration == 5


def test_naive_spirals_on_bilinear_game():
    """theta' = theta + eta*phi, phi' = phi - eta*theta multiplies the squared
    norm by exactly 1 + eta^2 every step: no convergence, ever."""
    game = bilinear_game()
    eta = 0.1
    state = DynamicsState(np.array([0.7]), np.array([-0.4]), lam=1.0)
    norms = [state.theta[0] ** 2 + state.phi[0] ** 2]
    for _ in range(100):
        state = step(game, state, equal_rates(eta), "naive")
        norms.append(state.theta[0] ** 2 + state.phi[0] ** 2)
    norms = np.array(norms)
    assert np.all(np.diff(norms) > 0.0)
    ratios = norms[1:] / norms[:-1]
    assert np.abs(ratios - (1.0 + eta ** 2)).max() <= 1e-12


def test_naive_converges_on_strongly_curved_saddle():
    game = saddle_game()
    init = DynamicsState(np.array([1.0]), np.array([1.0]), lam=1.0)
    state = run_until(game, init, equal_rates(1e-2), "naive", 10_000,
                      distance_stop([0.0], [0.0], None, 1e-4))
    assert max(abs(state.theta[0]), abs(state.phi[0])) < 1e-4
    assert state.iteration <= 10_000


# ---------------------------------------------------------------------------
# corrected (fixed-multiplier) stepper
# ---------------------------------------------------------------------------


def test_correction_vanishes_without_cross_coupling():
    game = decoupled_game()
    init = DynamicsState(np.array([0.8]), np.array([-0.6]), lam=1.0)
    rates = LearningRates(model=1e-2, dual=1e-3, policy=1e-4)
    a = step(game, init.copy(), rates, "naive")
    b = step(game, init.copy(), rates, "stackelberg")
    with pytest.warns(RuntimeWarning):
        # gap and its gradient are identically zero, so the dual row of the
        # curvature is singular; the stepper falls back to the plain solve
        c = step(game, init.copy(), rates, "constrained")
    assert a.theta[0] == b.theta[0] == c.theta[0]
    assert a.phi[0] == b.phi[0] == c.phi[0]
    assert a.lam == b.lam == c.lam  # gap is identically zero


def test_corrected_ascent_uses_follower_response_slope():
    """At the follower's best response the corrected direction equals
    -2 theta + 2 c anchor - 4 c^2 theta / lam (chain rule through
    phi*(theta) = anchor - c theta / lam), not the raw partial."""
    anchor, c, lam = 0.7, 1.0, 2.0
    game = coupling_game(anchor=anchor, coupling=c)
    eta = LearningRates(model=1e-3, dual=1e-4, policy=1e-5)
    for theta in (-0.5, 0.0, 0.8):
        phi_star = follower_best_response(theta, anchor, lam, coupling=c)
        state = DynamicsState(np.array([theta]), np.array([phi_star]), lam=lam)
        stepped = step(game, state, eta, "stackelberg")
        ascent = (stepped.theta[0] - theta) / eta.policy
        by_hand = -2.0 * theta + 2.0 * c * anchor - 4.0 * c * c * theta / lam
        raw = -2.0 * theta + 2.0 * c * phi_star
        assert abs(ascent - by_hand) <= 1e-10
        if theta != 0.0:
            assert abs(ascent - raw) > 1e-3  # the correction genuinely differs


def test_follower_best_response_is_stationary():
    game = coupling_game()
    lam = 1.5
    for theta in (-0.3, 0.4):
        phi = follower_best_response(theta, 0.7, lam)
        grad = game.d_phi_lagrangian(np.array([theta]), np.array([phi]), lam)
        assert abs(grad[0]) <= 1e-12
    with pytest.raises(ValueError):
        follower_best_response(0.1, 0.7, 0.0)


def test_corrected_dynamics_reach_fixed_multiplier_rest_points():
    """Both scalar quadratic games converge to their hand-derived rest
    points with the leader stepping at a tenth of the adversary's rate."""
    rates = LearningRates(model=1e-2, dual=2e-3, policy=1e-3)

    game = coupling_game()
    target = coupling_lse(lam_fixed=2.0)
    assert target == (pytest.approx(0.35), pytest.approx(0.525))
    init = DynamicsState(np.array([-0.8]), np.array([1.1]), lam=2.0)
    state = run_until(game, init, rates, "stackelberg", 20_000,
                      distance_stop([target[0]], [target[1]], None, 1e-4))
    assert abs(state.theta[0] - target[0]) < 1e-4
    assert abs(state.phi[0] - target[1]) < 1e-4
    assert state.lam == 2.0  # frozen throughout

    chase = matching_game()
    anchor_point = matching_lse()
    init = DynamicsState(np.array([0.9]), np.array([0.1]), lam=2.0)
    state = run_until(chase, init, rates, "stackelberg", 20_000,
                      distance_stop([anchor_point[0]], [anchor_point[1]],
                                    None, 1e-4))
    assert abs(state.theta[0] - anchor_point[0]) < 1e-4
    assert abs(state.phi[0] - anchor_point[1]) < 1e-4


def test_singular_curvature_falls_back_with_warning():
    """The matching game's penalized curvature 2(lam-1) vanishes at lam=1;
    the corrected steppers must warn and fall back to the raw gradient."""
    game = matching_game()
    state = DynamicsState(np.array([0.5]), np.array([0.3]), lam=1.0)
    rates = LearningRates(model=1e-2, dual=1e-3, policy=1e-4)
    with pytest.warns(RuntimeWarning):
        stepped = step(game, state, rates, "stackelberg")
    raw = game.grad_theta(state.theta, state.phi)
    assert stepped.theta[0] == pytest.approx(0.5 + rates.policy * raw[0], abs=1e-15)


CALLBACKS = ("objective", "constraint_gap") + DERIVATIVES


@pytest.mark.parametrize("mode", DYNAMICS_MODES)
def test_one_step_evaluates_each_derivative_at_most_once(mode):
    """Every callback of the game runs at most once per step, and the
    uncorrected step touches no curvature, mixed or gap callback."""
    calls = dict.fromkeys(CALLBACKS, 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    game = coupling_game()
    game = replace(game, check_points=(), **{
        name: counted(name, getattr(game, name)) for name in CALLBACKS})
    state = DynamicsState(np.array([0.4]), np.array([0.9]), lam=0.6)
    step(game, state, LearningRates(), mode)
    assert max(calls.values()) <= 1, calls
    if mode == "naive":
        assert calls["hess_phi_lagrangian"] == calls["mixed_hessian"] \
            == calls["constraint_gap"] == 0, calls


# ---------------------------------------------------------------------------
# constrained stepper
# ---------------------------------------------------------------------------


def test_multiplier_projection_to_zero():
    game = SmoothGame(
        objective=lambda t, p: float(-t[0] ** 2 - p[0] ** 2),
        constraint_gap=lambda p: -0.5,
        grad_theta=lambda t, p: np.array([-2.0 * t[0]]),
        grad_phi_objective=lambda t, p: np.array([-2.0 * p[0]]),
        grad_phi_gap=lambda p: np.array([0.0]),
        hess_phi_lagrangian=lambda t, p, lam: np.array([[-2.0]]),
        mixed_hessian=lambda t, p, lam: np.array([[0.0]]),
    )
    rates = LearningRates(model=2.0, dual=1.0, policy=0.5)
    state = DynamicsState(np.array([0.2]), np.array([0.1]), lam=0.1)
    stepped = step(game, state, rates, "constrained")
    assert stepped.lam == 0.0  # max(0, 0.1 + 1.0 * (-0.5))
    again = step(game, stepped, rates, "constrained")
    assert again.lam == 0.0  # projection keeps it pinned


def test_multiplier_tracks_constraint_gap_sign():
    game = coupling_game()
    rates = LearningRates(model=1e-2, dual=1e-3, policy=1e-4)
    inside = DynamicsState(np.array([0.1]), np.array([0.7]), lam=0.5)
    assert game.gap(inside.phi) < 0.0
    assert step(game, inside, rates, "constrained").lam == pytest.approx(
        0.5 + 1e-3 * game.gap(inside.phi))
    outside = DynamicsState(np.array([0.1]), np.array([1.5]), lam=0.5)
    assert game.gap(outside.phi) > 0.0
    assert step(game, outside, rates, "constrained").lam > 0.5


def dense_quadratic_game(seed: int = 0, radius: float | None = None):
    """Seeded quadratic game with 2 leader and 3 adversary parameters.

    J = -theta^T P theta / 2 + phi^T K theta + phi^T Q phi / 2 + g^T phi,
    gap = (phi - a)^T R (phi - a) / 2 + r^T (phi - a) - radius, so the
    penalized curvature is Q + lam R, the mixed block is K and the dual row
    is R (phi - a) + r. Returns the game and its dense parts.
    """
    rng = np.random.default_rng(seed)
    p_mat = np.eye(2) + 0.1 * rng.standard_normal((2, 2))
    p_mat = p_mat @ p_mat.T
    k = rng.standard_normal((3, 2))
    q_mat = rng.standard_normal((3, 3))
    q_mat = q_mat @ q_mat.T + np.eye(3)
    g = rng.standard_normal(3)
    r_mat = rng.standard_normal((3, 3))
    r_mat = 0.5 * (r_mat @ r_mat.T) + 0.5 * np.eye(3)
    a, r = rng.standard_normal(3), rng.standard_normal(3)
    radius = 0.1 if radius is None else radius

    def gap(phi):
        d = phi - a
        return float(0.5 * d @ r_mat @ d + r @ d - radius)

    game = SmoothGame(
        objective=lambda t, f: float(-0.5 * t @ p_mat @ t + f @ k @ t
                                     + 0.5 * f @ q_mat @ f + g @ f),
        constraint_gap=gap,
        grad_theta=lambda t, f: -p_mat @ t + k.T @ f,
        grad_phi_objective=lambda t, f: k @ t + q_mat @ f + g,
        grad_phi_gap=lambda f: r_mat @ (f - a) + r,
        hess_phi_lagrangian=lambda t, f, lam: q_mat + lam * r_mat,
        mixed_hessian=lambda t, f, lam: k,
        check_points=((np.array([0.3, -0.2]), np.array([0.1, 0.4, -0.5]),
                       0.7),),
    )
    return game, p_mat, k, q_mat, g, r_mat, a, r


def test_dense_dual_row_matches_the_explicit_inverse():
    """With 3 adversary parameters the dual-aware correction goes through
    the dense Schur complement; the leader step equals
    g_theta - M^T (A^-1 + lam A^-1 b b^T A^-1 / (c - lam b^T A^-1 b)) g_phi."""
    game, p_mat, k, q_mat, g, r_mat, a, r = dense_quadratic_game(seed=0)
    theta, phi, lam = np.array([0.4, -0.7]), np.array([0.2, -0.3, 0.6]), 0.8
    a_inv = np.linalg.inv(q_mat + lam * r_mat)
    b = r_mat @ (phi - a) + r
    c = game.gap(phi)
    schur = c - lam * b @ a_inv @ b
    assert abs(schur) > 0.1
    h = a_inv + lam * np.outer(a_inv @ b, b @ a_inv) / schur
    expected = (-p_mat @ theta + k.T @ phi) - k.T @ h @ (k @ theta + q_mat @ phi + g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stepped = step(game, DynamicsState(theta, phi, lam=lam),
                       equal_rates(1.0), "constrained")
    assert np.abs((stepped.theta - theta) - expected).max() <= 1e-12


def test_dense_schur_under_floor_falls_back_to_the_plain_correction():
    """A radius that puts c - lam b^T A^-1 b under SCHUR_FLOOR makes the
    constrained stepper warn and use g_theta - M^T A^-1 g_phi instead."""
    theta, phi, lam = np.array([0.4, -0.7]), np.array([0.2, -0.3, 0.6]), 0.8
    game, p_mat, k, q_mat, g, r_mat, a, r = dense_quadratic_game(seed=0)
    curvature = q_mat + lam * r_mat
    b = r_mat @ (phi - a) + r
    # choose the radius so the gap equals lam b^T A^-1 b
    radius = game.gap(phi) + 0.1 - lam * b @ np.linalg.solve(curvature, b)
    game = dense_quadratic_game(seed=0, radius=radius)[0]
    schur = game.gap(phi) - lam * b @ np.linalg.solve(curvature, b)
    assert abs(schur) < SCHUR_FLOOR
    with pytest.warns(RuntimeWarning, match="dual-aware correction unavailable"):
        stepped = step(game, DynamicsState(theta, phi, lam=lam),
                       equal_rates(1.0), "constrained")
    g_phi = k @ theta + q_mat @ phi + g
    expected = ((-p_mat @ theta + k.T @ phi)
                - k.T @ np.linalg.inv(curvature) @ g_phi)
    assert np.abs((stepped.theta - theta) - expected).max() <= 1e-12


def test_constrained_dynamics_reach_boundary_rest_point():
    game = coupling_game()
    theta_star, phi_star, lam_star = coupling_kkt()
    assert (theta_star, phi_star, lam_star) == (
        pytest.approx(0.3), pytest.approx(0.3), pytest.approx(0.75))
    rates = LearningRates(model=1e-2, dual=1e-3, policy=1e-4)
    init = DynamicsState(np.array([0.0]), np.array([0.0]), lam=1.0)
    state = run_until(game, init, rates, "constrained", 100_000,
                      distance_stop([theta_star], [phi_star], lam_star, 1e-3))
    assert abs(state.theta[0] - theta_star) < 1e-3
    assert abs(state.phi[0] - phi_star) < 1e-3
    assert abs(state.lam - lam_star) < 1e-3


@pytest.mark.xfail(strict=True, reason="the chase game's boundary triple "
                   "satisfies first-order conditions but is not a fixed point "
                   "of the constrained update; iterates drift away from it")
def test_chase_game_boundary_triple_is_not_an_attractor():
    game = matching_game()
    theta0, phi0, lam0 = matching_boundary_kkt()
    init = DynamicsState(np.array([theta0]), np.array([phi0]), lam=lam0)
    rates = LearningRates(model=1e-2, dual=1e-3, policy=1e-4)
    state, _ = run_dynamics(game, init, rates, mode="constrained",
                            n_steps=2000, record_every=2000)
    assert abs(state.theta[0] - theta0) < 1e-3
    assert abs(state.phi[0] - phi0) < 1e-3


def test_rate_ordering_violation_is_detectable():
    """Leader faster than adversary: >= 50% of a 3x3 init grid diverges or
    stops contracting toward the rest point; the ordered schedule contracts
    from every init in the same budget."""
    game = coupling_game()
    theta_star, phi_star, lam_star = coupling_kkt()

    def distance(state):
        return max(abs(state.theta[0] - theta_star),
                   abs(state.phi[0] - phi_star), abs(state.lam - lam_star))

    def flagged_fraction(rates):
        flagged, total = 0, 0
        for t0 in (-1.0, 0.0, 1.0):
            for p0 in (-0.2, 0.5, 1.2):
                total += 1
                init = DynamicsState(np.array([t0]), np.array([p0]), lam=1.0)
                try:
                    with np.errstate(all="ignore"), warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        mid, _ = run_dynamics(game, init, rates,
                                              mode="constrained",
                                              n_steps=5000, record_every=5000)
                        end, _ = run_dynamics(game, mid, rates,
                                              mode="constrained",
                                              n_steps=15_000,
                                              record_every=15_000)
                    if distance(end) > 0.9 * distance(mid):
                        flagged += 1
                except FloatingPointError:
                    flagged += 1
        return flagged / total

    ordered = LearningRates(model=3e-2, dual=3e-3, policy=3e-4)
    violated = LearningRates(model=3e-5, dual=3e-3, policy=3e-2,
                             enforce_ordering=False)
    assert flagged_fraction(ordered) == 0.0
    assert flagged_fraction(violated) >= 0.5


# ---------------------------------------------------------------------------
# run loop and trace
# ---------------------------------------------------------------------------


def test_run_dynamics_argument_validation():
    game = saddle_game()
    init = DynamicsState(np.ones(1), np.ones(1))
    with pytest.raises(ValueError):
        run_dynamics(game, init, equal_rates(1e-2), n_steps=0)
    with pytest.raises(ValueError):
        run_dynamics(game, init, equal_rates(1e-2), mode="newton", n_steps=1)


def test_run_dynamics_trace_lengths():
    game = saddle_game()
    init = DynamicsState(np.ones(1), np.ones(1))
    state, trace = run_dynamics(game, init, equal_rates(1e-3), mode="naive",
                                n_steps=1)
    assert len(trace) == 2
    assert state.iteration == 1
    _, trace = run_dynamics(game, init, equal_rates(1e-3), mode="naive",
                            n_steps=7)
    assert len(trace) == 8
    _, sparse = run_dynamics(game, init, equal_rates(1e-3), mode="naive",
                             n_steps=4, record_every=2)
    assert len(sparse) == 3  # init plus steps 2 and 4


def test_run_dynamics_is_bitwise_deterministic():
    game = coupling_game()
    init = DynamicsState(np.array([0.3]), np.array([0.8]), lam=1.0)
    rates = LearningRates(model=1e-2, dual=1e-3, policy=1e-4)
    a, trace_a = run_dynamics(game, init, rates, mode="constrained", n_steps=500)
    b, trace_b = run_dynamics(game, init, rates, mode="constrained", n_steps=500)
    assert a.theta[0] == b.theta[0]
    assert a.phi[0] == b.phi[0]
    assert a.lam == b.lam
    assert trace_a.objectives == trace_b.objectives
    assert init.theta[0] == 0.3  # the initial state is never mutated


def test_run_dynamics_aborts_on_overflow():
    game = bilinear_game()
    init = DynamicsState(np.ones(1), np.ones(1))
    with np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError):
            run_dynamics(game, init, equal_rates(1e200), mode="naive",
                         n_steps=10)


def test_trace_csv_export(tmp_path):
    game = saddle_game()
    init = DynamicsState(np.array([1.0]), np.array([-1.0]), lam=0.5)
    _, trace = run_dynamics(game, init, equal_rates(1e-2), mode="naive",
                            n_steps=3)
    path = tmp_path / "trace.csv"
    trace.save_csv(path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["iteration", "theta", "phi", "lam", "objective", "gap",
                       "grad_norm_policy", "grad_norm_model"]
    assert len(rows) == 5
    assert [int(r[0]) for r in rows[1:]] == [0, 1, 2, 3]
    # full-precision floats round-trip
    assert float(rows[1][1]) == 1.0
    assert float(rows[1][4]) == trace.objectives[0]


def test_distance_stop_predicate():
    stop = distance_stop([0.1], [0.2], 0.3, tol=1e-2)
    assert stop(DynamicsState(np.array([0.1]), np.array([0.2]), lam=0.3))
    assert not stop(DynamicsState(np.array([0.1]), np.array([0.25]), lam=0.3))
    assert not stop(DynamicsState(np.array([0.1]), np.array([0.2]), lam=0.5))
    ignore_lam = distance_stop([0.1], [0.2], None, tol=1e-2)
    assert ignore_lam(DynamicsState(np.array([0.1]), np.array([0.2]), lam=9.0))


def test_stepper_registry_names():
    assert DYNAMICS_MODES == ("naive", "stackelberg", "constrained")
