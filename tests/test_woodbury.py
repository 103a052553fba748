"""Factored curvature solves: the k x k core, dual row, leader step."""

import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import dirichlet_mdp
from reference_estimators import discounted_weights

import stackmbrl
from stackmbrl.estimators import (dataset_dual_coupling, dataset_kl,
                                  factors_from_batch, penalty_curvature)
from stackmbrl.models import (CategoricalWorldModel, DiagGaussianWorldModel,
                              SoftmaxPolicy, mle_fit, rollout_dataset)
from stackmbrl.trainer import collect_rollouts
from stackmbrl.woodbury import (COND_LIMIT, SCHUR_FLOOR, BlockScores,
                                CellCurvature, DualRow, IllConditionedError,
                                LowRankFactors, SingularScalarError,
                                WoodburySolver, dual_corrected,
                                leader_gradient, random_factors)


def empty_cols(n_phi: int) -> np.ndarray:
    return np.zeros((n_phi, 0))


def ridge_only_factors(n_phi: int, ridge: float) -> LowRankFactors:
    return LowRankFactors.from_columns(
        u=empty_cols(n_phi), v=empty_cols(n_phi), x=empty_cols(n_phi),
        y=empty_cols(n_phi), z=empty_cols(n_phi), w=np.zeros((2, 0)),
        ridge=ridge)


# ---------------------------------------------------------------------------
# block-score products against the dense atoms
# ---------------------------------------------------------------------------


def block_atoms(case: str) -> BlockScores:
    """Score atoms of each kind the solver meets: categorical scores with
    cells visited more than once, Gaussian one-cell scores, and the
    one-cell columns of ``from_columns``."""
    rng = np.random.default_rng(17)
    if case == "categorical":
        model = CategoricalWorldModel(rng.standard_normal((4, 3, 6)),
                                      np.zeros(6), np.arange(6) % 4)
        index = (rng.integers(0, 4, 50), rng.integers(0, 3, 50),
                 rng.integers(0, 6, 50))
        return model.scores(*index)
    if case == "gaussian":
        model = DiagGaussianWorldModel(rng.standard_normal((3, 5)),
                                       rng.standard_normal(3), 2, 2)
        return model.scores(rng.standard_normal((20, 2)),
                            rng.standard_normal((20, 2)),
                            rng.standard_normal((20, 3)))
    return random_factors(30, seed=4).atoms


def assert_close(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("case", ["categorical", "gaussian", "columns"])
def test_block_products_match_the_dense_atoms(case):
    """gram, project and expand read only each atom's block, yet equal the
    products of the dense (k, n_phi) atoms."""
    atoms = block_atoms(case)
    if case == "categorical":
        assert len(np.unique(atoms.cells)) < atoms.cells.size
    dense = atoms.dense()
    k, n_phi = dense.shape
    rng = np.random.default_rng(5)
    rhs, coef = rng.standard_normal((n_phi, 3)), rng.standard_normal((k, 4))
    assert_close(atoms.gram(atoms.blocks), dense @ dense.T)
    assert_close(atoms.project(rhs[:, 0]), dense @ rhs[:, 0])
    assert_close(atoms.project(rhs), dense @ rhs)
    assert_close(atoms.expand(coef[:, 0]), dense.T @ coef[:, 0])
    assert_close(atoms.expand(coef), dense.T @ coef)


# ---------------------------------------------------------------------------
# solver correctness
# ---------------------------------------------------------------------------


def test_pure_ridge_solve_is_division():
    factors = ridge_only_factors(5, ridge=2.0)
    solver = WoodburySolver(factors)
    v = np.arange(1.0, 6.0)
    assert np.allclose(solver.solve(v), v / 2.0, atol=1e-15)
    block = np.arange(10.0).reshape(5, 2)
    assert np.allclose(solver.solve(block), block / 2.0, atol=1e-15)


def test_solver_matches_dense_inverse_over_many_draws():
    rng = np.random.default_rng(99)
    for seed in range(100):
        factors = random_factors(50, seed=seed)
        solver = WoodburySolver(factors)
        dense = factors.dense()
        v = rng.standard_normal(50)
        got = solver.solve(v)
        want = np.linalg.solve(dense, v)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)
        block = rng.standard_normal((50, 3))
        got_b = solver.solve(block)
        want_b = np.linalg.solve(dense, block)
        assert np.linalg.norm(got_b - want_b) <= 1e-8 * np.linalg.norm(want_b)


def test_solve_residuals_small_over_thousand_cases():
    rng = np.random.default_rng(5)
    checked = 0
    for seed in range(100):
        factors = random_factors(50, seed=1000 + seed)
        solver = WoodburySolver(factors)
        dense = factors.dense()
        for _ in range(10):
            v = rng.standard_normal(50)
            residual = dense @ solver.solve(v) - v
            assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(v)
            checked += 1
    assert checked == 1000


def test_levels_independent_of_zeroed_blocks():
    base = random_factors(30, seed=1)
    variants = {
        "no-step-pairs": LowRankFactors.from_columns(
            u=base.u, v=base.v, x=np.zeros_like(base.x),
            y=np.zeros_like(base.y), z=base.z, w=base.w, ridge=base.base.ridge),
        "no-penalty": LowRankFactors.from_columns(
            u=base.u, v=base.v, x=base.x, y=base.y, z=np.zeros_like(base.z),
            w=base.w, ridge=base.base.ridge),
        "no-score-pairs": LowRankFactors.from_columns(
            u=np.zeros_like(base.u), v=np.zeros_like(base.v), x=base.x,
            y=base.y, z=base.z, w=base.w, ridge=base.base.ridge),
    }
    rng = np.random.default_rng(2)
    v = rng.standard_normal(30)
    for name, factors in variants.items():
        got = WoodburySolver(factors).solve(v)
        want = np.linalg.solve(factors.dense(), v)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want), name


def _zero_outcome_rows(rng, n: int, k: int) -> np.ndarray:
    """n probability rows over k outcomes, with zero-probability outcomes
    in the first two rows."""
    rows = rng.dirichlet(np.ones(k), n)
    rows[0, :2] = 0.0
    rows[1, -1] = 0.0
    return rows / rows.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_cell_curvature_solve_is_backward_stable(scale):
    """N^{-1} by two Sherman-Morrison steps per cell has normwise backward
    error ||N x - b|| / (||N||_2 ||x|| + ||b||) <= 1e-14 against the dense
    N = D / ridge, at block weights lam * w = 1 and 1e6, on cells whose
    reference has zero-probability outcomes, on a cell off the list (ridge
    * I) and on atoms that share a cell."""
    rng = np.random.default_rng(7)
    k, n_cells, ridge = 6, 5, 1e-3
    q = _zero_outcome_rows(rng, 3, k)
    base = CellCurvature(k * n_cells, ridge, np.array([4, 0, 2]),
                         np.full(3, scale), q, q - rng.dirichlet(np.ones(k), 3))
    dense = base.dense() / ridge
    norm = np.linalg.norm
    rhs = rng.standard_normal((3, n_cells, k))
    atoms = (np.array([0, 3, 4, 4, 2]), rng.standard_normal((5, k)))
    cases = [(b.ravel(), x.ravel()) for b, x in zip(
        rhs, base.solve_blocks(slice(None), rhs))]
    for cell, block, sol in zip(*atoms, base.solve_blocks(*atoms)):
        b, x = np.zeros((2, n_cells, k))
        b[cell], x[cell] = block, sol
        cases.append((b.ravel(), x.ravel()))
    for b, x in cases:
        assert norm(dense @ x - b) <= 1e-14 * (norm(dense, 2) * norm(x)
                                               + norm(b))


def _closed_base_factors(case: str) -> LowRankFactors:
    """Core-route factors (fewer atoms than parameters) over the closed
    penalty base of a categorical or a Gaussian model, the anchor moved
    off it."""
    rng = np.random.default_rng(23)
    if case == "categorical":
        model = CategoricalWorldModel(rng.standard_normal((4, 3, 6)),
                                      np.zeros(6), np.arange(6) % 4)
        atoms = model.scores(rng.integers(0, 4, 12), rng.integers(0, 3, 12),
                             rng.integers(0, 6, 12))
        given = (np.array([0, 1, 2, 3, 0]), np.array([0, 1, 2, 0, 2]))
    else:
        model = DiagGaussianWorldModel(rng.standard_normal((3, 5)),
                                       rng.standard_normal(3) * 0.3, 2, 2)
        atoms = model.scores(rng.standard_normal((8, 2)),
                             rng.standard_normal((8, 2)),
                             rng.standard_normal((8, 3)))
        given = (rng.standard_normal((6, 2)), rng.standard_normal((6, 2)))
    anchor = model.with_params(model.params.values
                               + 0.5 * rng.standard_normal(model.n_params))
    base = model.penalty_curvature(given, rng.uniform(0.1, 1.0, len(given[0])),
                                   anchor, 1e-2)
    k = atoms.cells.size
    coef = rng.standard_normal((4, k, 3)) / np.sqrt(k)
    return LowRankFactors(atoms, *coef, np.zeros((k, 0)),
                          w=rng.standard_normal((2, 3)), base=base, lam=0.5,
                          dual=DualRow.over(
                              base, rng.standard_normal(model.n_params), 1.5))


@pytest.mark.parametrize("case", ["categorical", "gaussian"])
def test_core_route_over_a_closed_base_matches_the_dense_route(case):
    """Over a closed penalty base, the core route's solves and leader step
    match dense solves against A_hat = D + UV^T - XY^T."""
    factors = _closed_base_factors(case)
    assert factors.n_atoms < factors.n_phi
    dense = factors.dense()
    rhs = np.random.default_rng(4).standard_normal((factors.n_phi, 2))
    solver = WoodburySolver(factors)
    for b in (rhs[:, 0], rhs):
        want = np.linalg.solve(dense, b)
        assert np.linalg.norm(solver.solve(b) - want) <= 1e-9 * np.linalg.norm(want)
    gp = np.ones(2)
    for dual in (True, False):
        got = leader_gradient(gp, rhs[:, 0], factors, use_dual_row=dual)
        want = dense_leader_gradient(gp, rhs[:, 0], factors, use_dual_row=dual)
        assert np.linalg.norm(got - want) <= 1e-8 * max(1.0, np.linalg.norm(want))


@pytest.mark.parametrize("lam", [0.0, 0.8])
def test_trainer_shaped_core_route_matches_the_dense_route(lam):
    """Factors as a trainer builds them: ``factors_from_batch`` on 16
    rollouts of 4 steps (64 atoms) over the closed ``penalty_curvature``
    and its ``DualRow``, for a Dirichlet MDP with 1,014 model parameters,
    so the core route. Its k-space leader step matches the dense oracle,
    with the dual row and without, at lam = 0 and above."""
    env = dirichlet_mdp(0, num_states=13)
    dataset = rollout_dataset(env, "uniform", n_episodes=100, seed=0)
    anchor = mle_fit(dataset, CategoricalWorldModel.uniform(env), alpha=0.5)
    rng = np.random.default_rng(8)
    model = anchor.with_params(anchor.params.values
                               + 0.3 * rng.standard_normal(anchor.n_params))
    policy = SoftmaxPolicy(rng.standard_normal((13, 3)))
    batch = collect_rollouts(env, policy, model, dataset, 16, 4, seed=1)
    steps = (batch["states"][:, :4], batch["actions"][:, :4])
    base = penalty_curvature(dataset, model, anchor, lam, 1e-3)
    factors = factors_from_batch(
        discounted_weights(batch["rewards"], env.gamma),
        model.scores(*steps, batch["outcomes"]), policy.scores(*steps), base,
        lam, DualRow.over(base, dataset_dual_coupling(dataset, model, anchor),
                          dataset_kl(dataset, model, anchor) - 0.1))
    assert factors.n_atoms == 64 and factors.n_phi == 1014
    gp, gm = rng.standard_normal(policy.n_params), rng.standard_normal(1014)
    for dual in (True, False):
        got = leader_gradient(gp, gm, factors, use_dual_row=dual)
        want = dense_leader_gradient(gp, gm, factors, use_dual_row=dual)
        assert np.linalg.norm(got - want) <= 1e-8 * max(1.0, np.linalg.norm(want))


def test_leader_step_over_a_closed_base_holds_no_parameter_vector():
    """One leader step at n_phi = 50,000 (a 100 x 5 x 100 categorical
    model, 64 atoms) over a closed ``CellCurvature`` base, with the dual
    row built beforehand as a trainer builds it once per iteration, peaks
    under 2 parameter-length vectors, a bound set before the first run:
    the correction stays in the atoms' k-space. It measured 1.03, mostly
    the atoms' N^{-1} terms (k * K = n_phi / 8 entries each); solving
    g_phi and b in full measured 4.46."""
    rng = np.random.default_rng(3)
    model = CategoricalWorldModel(rng.standard_normal((100, 5, 100)),
                                  np.zeros(100), np.arange(100))
    anchor = model.with_params(model.params.values
                               + 0.2 * rng.standard_normal(model.n_params))
    visited = np.divmod(rng.choice(500, 300, replace=False), 5)
    base = model.penalty_curvature(visited, rng.uniform(0.1, 1.0, 300) / 300,
                                   anchor, 1e-3)
    atoms = model.scores(rng.integers(0, 100, 64), rng.integers(0, 5, 64),
                         rng.integers(0, 100, 64))
    coef = rng.standard_normal((4, 64, 8)) / 8.0
    factors = LowRankFactors(
        atoms, *coef, np.zeros((64, 0)), w=rng.standard_normal((6, 8)),
        base=base, lam=0.5, dual=DualRow.over(
            base, rng.standard_normal(model.n_params), 1.5))
    grad_policy = rng.standard_normal(6)
    grad_model = rng.standard_normal(model.n_params)
    assert model.n_params == 50_000
    tracemalloc.start()
    try:
        leader_gradient(grad_policy, grad_model, factors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * grad_model.nbytes


def test_large_dimension_solve_never_densifies():
    """At n_phi = 20000 a dense route would allocate ~3 GB; the factored
    solve must finish quickly in low-rank time."""
    import time
    factors = random_factors(20_000, seed=3)
    rhs = np.random.default_rng(4).standard_normal(20_000)
    start = time.perf_counter()
    solver = WoodburySolver(factors)
    out = solver.solve(rhs)
    elapsed = time.perf_counter() - start
    assert np.all(np.isfinite(out))
    assert elapsed < 2.0
    # spot-check the solution by residual instead of a dense inverse
    f = factors
    recon = (f.base.ridge * out + f.u @ (f.v.T @ out) - f.x @ (f.y.T @ out)
             + f.z @ (f.z.T @ out))
    assert np.linalg.norm(recon - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_solver_allocates_no_factor_sized_arrays():
    """A build, its dual-corrected solve and one leader step hold O(k^2)
    beyond a few right-hand-side-sized vectors: with 224 atoms over 20,000
    parameters the traced peak is 10.8 parameter-length vectors, under 12
    (the core, the QR's copy of it, Q and R are 2.5 each; holding M as well
    peaks at 13.3). Caching inverse-applied factors as full-height columns
    peaks near 96."""
    factors = random_factors(20_000, m=16, big_m=64, z_rank=64)
    rng = np.random.default_rng(0)
    grad_policy = rng.standard_normal(factors.w.shape[0])
    grad_model = rng.standard_normal(factors.n_phi)
    tracemalloc.start()
    try:
        leader_gradient(grad_policy, grad_model, factors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * grad_model.nbytes


@pytest.mark.parametrize("n_phi", [3, 6, 300])
def test_exact_solve_when_a_partial_sum_is_singular(n_phi):
    """u = v = e1 and x = y = sqrt(c) e1 at c = 0.5: A_hat = c (I + e1 e1^T)
    has condition number 2, but cI - X Y^T alone is singular. Nothing may
    be solved against that partial sum (k = 4 atoms: the dense route at
    n_phi = 3, the k x k core above it)."""
    ridge = 0.5
    e1 = np.zeros((n_phi, 1))
    e1[0, 0] = 1.0
    factors = LowRankFactors.from_columns(
        u=e1, v=e1, x=np.sqrt(ridge) * e1, y=np.sqrt(ridge) * e1,
        z=empty_cols(n_phi), w=np.ones((2, 1)), ridge=ridge)
    dense = factors.dense()
    assert np.linalg.cond(dense) == pytest.approx(2.0)
    rhs = np.random.default_rng(n_phi).standard_normal((n_phi, 2))
    solver = WoodburySolver(factors)
    for b in (rhs[:, 0], rhs):
        residual = dense @ solver.solve(b) - b
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(b)


def test_singular_core_is_rejected():
    e1 = np.zeros((4, 1))
    e1[0, 0] = 1.0
    factors = LowRankFactors.from_columns(
        u=e1, v=-e1, x=empty_cols(4), y=empty_cols(4), z=empty_cols(4),
        w=np.zeros((1, 1)), ridge=1.0)
    with pytest.raises(IllConditionedError):
        WoodburySolver(factors)


def _core_with_singular_values(values: np.ndarray) -> np.ndarray:
    """A seeded square matrix with the given singular values."""
    rng = np.random.default_rng(len(values))
    left, _ = np.linalg.qr(rng.standard_normal((len(values),) * 2))
    right, _ = np.linalg.qr(rng.standard_normal((len(values),) * 2))
    return (left * values) @ right.T


def _zone(values: np.ndarray) -> str:
    """Where kappa_F = sqrt(sum s^2 * sum s^-2) puts a core of these
    singular values in the screen: below COND_LIMIT / 2 it passes and above
    2 k COND_LIMIT it fails without an SVD; in between the SVD decides."""
    with np.errstate(divide="ignore"):
        kappa_f = np.sqrt((values ** 2).sum() * (values ** -2.0).sum())
    if kappa_f <= COND_LIMIT / 2:
        return "pass"
    return "fail" if kappa_f > 2 * len(values) * COND_LIMIT else "svd"


N_CORE = 24
CONDITION_CASES = {  # name: (singular values, screen zone, rejected)
    "kappa2=1e3": (np.logspace(0, -3, N_CORE), "pass", False),
    "kappa2=8e11": (np.logspace(0, np.log10(1 / 8e11), N_CORE), "svd",
                    False),
    "kappa2=9e11,kappaF=4.3e12": (
        np.r_[1.0, np.full(N_CORE - 1, 1 / 9e11)], "svd", False),
    "kappa2=1.2e12": (np.logspace(0, np.log10(1 / 1.2e12), N_CORE), "svd",
                      True),
    "kappa2=1e15": (np.logspace(0, -15, N_CORE), "fail", True),
    "singular": (np.r_[np.ones(N_CORE - 1), 0.0], "fail", True),
}


@pytest.mark.parametrize("case", sorted(CONDITION_CASES))
def test_condition_screen_decides_as_the_svd(case, monkeypatch):
    """A build raises exactly when ``np.linalg.cond`` of its core exceeds
    COND_LIMIT, on seeded cores in every zone of the kappa_F screen and on
    both sides of the limit; only a core in the middle zone pays for an
    SVD. The cores go through the dense route, whose core is A_hat."""
    values, zone, rejected = CONDITION_CASES[case]
    assert _zone(values) == zone
    factors = LowRankFactors.from_columns(
        u=_core_with_singular_values(values), v=np.eye(N_CORE),
        x=empty_cols(N_CORE), y=empty_cols(N_CORE), z=empty_cols(N_CORE),
        w=np.zeros((1, N_CORE)), ridge=1e-300)
    assert (np.linalg.cond(factors.dense()) > COND_LIMIT) == rejected
    calls = Counter()
    for name in ("cond", "svd"):
        def counted(*args, _name=name, _fn=getattr(np.linalg, name),
                    **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    if rejected:
        with pytest.raises(IllConditionedError):
            WoodburySolver(factors)
    else:
        WoodburySolver(factors)
    assert calls == (Counter(cond=1) if zone == "svd" else Counter())


def test_well_conditioned_builds_take_no_svd(monkeypatch):
    """Neither route of a well-conditioned build calls np.linalg.cond or
    np.linalg.svd."""
    def refuse(*args, **kwargs):
        raise AssertionError("SVD on a well-conditioned core")
    monkeypatch.setattr(np.linalg, "cond", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    for n_phi in (30, 200):  # 46 atoms: the dense route, then the core
        factors = random_factors(n_phi, seed=5)
        WoodburySolver(factors).solve(np.ones(n_phi))


def test_factor_shape_validation():
    with pytest.raises(ValueError):
        LowRankFactors.from_columns(
            u=np.zeros((4, 2)), v=np.zeros((4, 3)), x=empty_cols(4),
            y=empty_cols(4), z=empty_cols(4), w=np.zeros((1, 2)))
    with pytest.raises(ValueError):
        LowRankFactors.from_columns(
            u=empty_cols(4), v=empty_cols(4), x=empty_cols(4), y=empty_cols(4),
            z=empty_cols(4), w=np.zeros((1, 0)), ridge=0.0)
    with pytest.raises(ValueError):
        LowRankFactors.from_columns(
            u=np.zeros((4, 2)), v=np.zeros((4, 2)), x=empty_cols(4),
            y=empty_cols(4), z=empty_cols(4), w=np.zeros((1, 3)))


# ---------------------------------------------------------------------------
# dual-corrected operator
# ---------------------------------------------------------------------------


def test_operator_matches_dense_dual_formula():
    for seed in (0, 7, 21):
        factors = random_factors(40, seed=seed)
        solver = WoodburySolver(factors)
        a_inv = np.linalg.inv(factors.dense())
        b = factors.dual_coupling
        s = factors.dual.slope - factors.lam * float(b @ a_inv @ b)
        dense_h = a_inv + factors.lam * np.outer(a_inv @ b, a_inv.T @ b) / s
        v = np.random.default_rng(seed).standard_normal(40)
        h_v, h_b = solver.solve(v), solver.solve(b)
        applied = dual_corrected(h_v, h_b, float(b @ h_v), float(b @ h_b),
                                 factors.lam, factors.dual.slope)
        assert np.linalg.norm(applied - dense_h @ v) <= 1e-8 * np.linalg.norm(dense_h @ v)
        plain = dual_corrected(h_v, h_b, float(b @ h_v), float(b @ h_b), 0.0,
                               factors.dual.slope)
        assert np.array_equal(plain, h_v)


def test_operator_multiplier_free_reductions():
    """A zero multiplier or a factor set with no coupling leaves the plain
    A^{-1}, on the dense route (25 parameters) and on the core (250)."""
    for n_phi in (25, 250):
        factors = random_factors(n_phi, seed=11)
        v = np.random.default_rng(1).standard_normal(n_phi)
        gp = np.random.default_rng(2).standard_normal(factors.w.shape[0])
        columns = dict(u=factors.u, v=factors.v, x=factors.x, y=factors.y,
                       z=factors.z, w=factors.w, ridge=factors.base.ridge)
        zero = LowRankFactors.from_columns(
            **columns, lam=0.0, dual_coupling=factors.dual_coupling,
            dual_slope=factors.dual.slope)
        stripped = LowRankFactors.from_columns(**columns, lam=factors.lam)
        assert zero.dual is not None
        assert stripped.dual is None and not stripped.dual_coupling.size
        for reduced in (zero, stripped):
            plain = WoodburySolver(reduced).solve(v)
            want = gp - reduced.w @ (reduced.c_u.T @ reduced.atoms.project(plain))
            got = leader_gradient(gp, v, reduced)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_vanishing_schur_complement_raises():
    factors = random_factors(20, seed=13)
    solver = WoodburySolver(factors)
    a_inv_b = solver.solve(factors.dual_coupling)
    fatal_slope = factors.lam * float(factors.dual_coupling @ a_inv_b)
    rigged = LowRankFactors.from_columns(
        u=factors.u, v=factors.v, x=factors.x, y=factors.y, z=factors.z,
        w=factors.w, ridge=factors.base.ridge, lam=factors.lam,
        dual_coupling=factors.dual_coupling, dual_slope=fatal_slope)
    rigged_solve = WoodburySolver(rigged).solve
    b = rigged.dual_coupling
    h_g, h_b = rigged_solve(np.ones(20)), rigged_solve(b)
    schur = rigged.dual.slope - rigged.lam * float(b @ h_b)
    assert abs(schur) < SCHUR_FLOOR
    with pytest.raises(SingularScalarError):
        dual_corrected(h_g, h_b, float(b @ h_g), float(b @ h_b), rigged.lam,
                       rigged.dual.slope)
    with pytest.raises(SingularScalarError):
        leader_gradient(np.zeros(rigged.w.shape[0]), np.ones(20), rigged)


# ---------------------------------------------------------------------------
# leader gradient
# ---------------------------------------------------------------------------


def dense_leader_gradient(grad_policy: np.ndarray, grad_model: np.ndarray,
                          factors: LowRankFactors,
                          use_dual_row: bool = True) -> np.ndarray:
    """Dense-route oracle for ``leader_gradient``."""
    a = factors.dense()
    a_inv = np.linalg.inv(a)
    if use_dual_row and factors.dual_coupling.size and factors.lam:
        b = factors.dual_coupling
        s = factors.dual.slope - factors.lam * float(b @ a_inv @ b)
        # A_hat is not symmetric in-sample, so the right factor is A^{-T} b
        h = a_inv + factors.lam * np.outer(a_inv @ b, a_inv.T @ b) / s
    else:
        h = a_inv
    return grad_policy - (factors.u @ factors.w.T).T @ (h @ grad_model)


def test_leader_gradient_matches_dense_route():
    rng = np.random.default_rng(3)
    for seed in range(20):
        factors = random_factors(60, seed=seed)
        gp = rng.standard_normal(4)
        gm = rng.standard_normal(60)
        for dual in (True, False):
            got = leader_gradient(gp, gm, factors, use_dual_row=dual)
            want = dense_leader_gradient(gp, gm, factors, use_dual_row=dual)
            assert np.linalg.norm(got - want) <= 1e-8 * max(1.0, np.linalg.norm(want))


def test_leader_gradient_keeps_policy_term_when_model_grad_zero():
    factors = random_factors(30, seed=2)
    gp = np.array([0.4, -1.2, 0.0, 3.3])
    got = leader_gradient(gp, np.zeros(30), factors)
    assert np.allclose(got, gp, atol=1e-14)


def test_scalar_leader_gradient_hand_derivation():
    """One model parameter, one policy parameter, every term by hand."""
    ridge, u, v, w = 0.5, 2.0, 3.0, 4.0
    gp, gm = 1.0, 2.0
    factors = LowRankFactors.from_columns(
        u=np.array([[u]]), v=np.array([[v]]), x=empty_cols(1), y=empty_cols(1),
        z=empty_cols(1), w=np.array([[w]]), ridge=ridge)
    a = ridge + u * v
    expected = gp - w * u * (gm / a)
    got = leader_gradient(np.array([gp]), np.array([gm]), factors)
    assert abs(got[0] - expected) <= 1e-10

    b, lam, slope = 0.5, 0.8, 0.3
    dual = LowRankFactors.from_columns(
        u=np.array([[u]]), v=np.array([[v]]), x=empty_cols(1), y=empty_cols(1),
        z=empty_cols(1), w=np.array([[w]]), ridge=ridge, lam=lam,
        dual_coupling=np.array([b]), dual_slope=slope)
    schur = slope - lam * b * b / a
    corrected = gm / a + lam * (b * gm / a) / schur * (b / a)
    expected_dual = gp - w * u * corrected
    got_dual = leader_gradient(np.array([gp]), np.array([gm]), dual)
    assert abs(got_dual[0] - expected_dual) <= 1e-10


FACTOR_ARRAYS = ("u", "v", "x", "y", "z", "w", "dual_coupling")


@pytest.mark.parametrize("empty", [(), ("x", "y"), ("z",), ("x", "y", "z")])
def test_solves_leave_factors_and_right_hand_sides_unchanged(empty):
    """The solver updates its own products in place; the factors, the
    caller's right-hand sides and the solver's matrices are only read."""
    n_phi = 40
    base = random_factors(n_phi, seed=11)
    factors = LowRankFactors.from_columns(
        **{name: empty_cols(n_phi) if name in empty else getattr(base, name)
           for name in ("u", "v", "x", "y", "z", "w")},
        ridge=base.base.ridge, lam=base.lam, dual_coupling=base.dual_coupling,
        dual_slope=base.dual.slope)
    kept = {name: getattr(factors, name).copy() for name in FACTOR_ARRAYS}
    rng = np.random.default_rng(12)
    vec = rng.standard_normal(n_phi)
    block = rng.standard_normal((n_phi, 3))
    grad_policy = rng.standard_normal(factors.w.shape[0])
    inputs = [vec, block, grad_policy]
    copies = [arr.copy() for arr in inputs]

    solver = WoodburySolver(factors)

    def applied(rhs):
        b = factors.dual_coupling
        h_g, h_b = solver.solve(rhs), solver.solve(b)
        return dual_corrected(h_g, h_b, float(b @ h_g), float(b @ h_b),
                              factors.lam, factors.dual.slope)

    first = [solver.solve(vec), solver.solve(block), applied(vec),
             leader_gradient(grad_policy, vec, factors),
             leader_gradient(grad_policy, vec, factors, use_dual_row=False)]
    again = [solver.solve(vec), solver.solve(block), applied(vec),
             leader_gradient(grad_policy, vec, factors),
             leader_gradient(grad_policy, vec, factors, use_dual_row=False)]

    for name, before in kept.items():
        assert np.array_equal(getattr(factors, name), before), name
    for arr, before in zip(inputs, copies):
        assert np.array_equal(arr, before)
    for out, repeat in zip(first, again):
        assert np.array_equal(out, repeat)


# ---------------------------------------------------------------------------
# benchmarking helpers
# ---------------------------------------------------------------------------


def test_random_factors_deterministic():
    a = random_factors(15, seed=42)
    b = random_factors(15, seed=42)
    for name in ("u", "v", "x", "y", "z", "w", "dual_coupling"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.dual.slope == b.dual.slope
    c = random_factors(15, seed=43)
    assert not np.array_equal(a.u, c.u)


def test_condition_limit_is_strict():
    assert COND_LIMIT == 1e12
    assert SCHUR_FLOOR == 1e-10


def test_runtime_imports_no_scipy():
    """numpy is the one linear-algebra library: a fresh process that imports
    the package and runs a solve has loaded no ``scipy`` module."""
    code = ("import sys\n"
            "import numpy as np\n"
            "import stackmbrl\n"
            "from stackmbrl.woodbury import WoodburySolver, random_factors\n"
            "WoodburySolver(random_factors(50)).solve(np.ones(50))\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n")
    src = str(Path(stackmbrl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
