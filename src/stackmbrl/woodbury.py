"""Low-rank curvature solves for the leader's gradient correction.

The model-side curvature estimate is kept in factored form

    A_hat = U V^T - X Y^T + Z Z^T + ridge * I          (n_phi x n_phi)

together with the mixed-curvature factor pair (U, W) whose product U W^T
estimates the model/policy cross block. Solves against A_hat never form the
dense matrix: each additive term is folded in with one matrix-inversion-lemma
level, so a solve costs O(n_phi * rank) after an O(n_phi * rank^2) build.

Level order (innermost first): ridge + XY, then ZZ, then UV. The small core
matrices are LU-factored once and reused; their condition numbers are checked
against ``COND_LIMIT`` at build time.

A built solver holds the factors plus M3^{-1} Z and M2^{-1} U: O(n_phi * rank)
memory. A solve updates its own (n_phi, k) result in place and never writes to
the factors or the right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

RIDGE_DEFAULT = 1e-3
COND_LIMIT = 1e12
SCHUR_FLOOR = 1e-10


class IllConditionedError(RuntimeError):
    """A Woodbury core matrix is too ill-conditioned to trust."""


class SingularScalarError(RuntimeError):
    """The dual Schur complement is numerically zero."""


@dataclass
class LowRankFactors:
    """Factored curvature statistics for one batch.

    Columns are pre-scaled so that plain products estimate expectations:
    U, V carry 1/sqrt(m); X, Y carry sqrt(h / M); Z carries sqrt(lam / M).
    """

    u: np.ndarray                 # (n_phi, m)   weighted model scores
    v: np.ndarray                 # (n_phi, m)   trajectory model scores
    x: np.ndarray                 # (n_phi, M)   return-weighted step scores
    y: np.ndarray                 # (n_phi, M)   matching step scores
    z: np.ndarray                 # (n_phi, Mz)  penalty scores off the dataset
    w: np.ndarray                 # (n_theta, m) trajectory policy scores
    ridge: float = RIDGE_DEFAULT
    lam: float = 0.0              # multiplier already folded into z's scaling
    dual_coupling: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dual_slope: float = 0.0       # estimated constraint gap E[KL] - epsilon

    def __post_init__(self):
        n_phi = self.u.shape[0]
        for name in ("v", "x", "y", "z"):
            mat = getattr(self, name)
            if mat.ndim != 2 or mat.shape[0] != n_phi:
                raise ValueError(f"factor '{name}' must be ({n_phi}, rank)")
        if self.u.shape != self.v.shape:
            raise ValueError("u and v must have identical shapes")
        if self.x.shape != self.y.shape:
            raise ValueError("x and y must have identical shapes")
        if self.w.ndim != 2 or self.w.shape[1] != self.u.shape[1]:
            raise ValueError("w must have one column per u column")
        if self.ridge <= 0.0:
            raise ValueError("ridge must be positive")

    @property
    def n_phi(self) -> int:
        return self.u.shape[0]

    @property
    def n_theta(self) -> int:
        return self.w.shape[0]

    def dense(self) -> np.ndarray:
        """Explicit A_hat, for oracle comparisons only."""
        return (self.u @ self.v.T - self.x @ self.y.T + self.z @ self.z.T
                + self.ridge * np.eye(self.n_phi))

    def dense_mixed(self) -> np.ndarray:
        """Explicit mixed-curvature estimate U W^T (n_phi x n_theta)."""
        return self.u @ self.w.T


def _checked_lu(mat: np.ndarray, level: str):
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditionedError(
            f"woodbury level '{level}' core is ill-conditioned "
            f"(cond={cond:.3e} > {COND_LIMIT:.0e})")
    return lu_factor(mat)


class WoodburySolver:
    """Cached three-level inverse of the factored curvature matrix."""

    def __init__(self, factors: LowRankFactors):
        self.factors = factors
        c = factors.ridge
        x, y, z, u, v = factors.x, factors.y, factors.z, factors.u, factors.v

        # level 1: (cI - X Y^T)^{-1} = (I + X (cI - Y^T X)^{-1} Y^T) / c
        self._xy_rank = x.shape[1]
        if self._xy_rank:
            self._xy_core = _checked_lu(
                c * np.eye(self._xy_rank) - y.T @ x, "return-weighted")

        # level 2: fold in + Z Z^T
        self._z_rank = z.shape[1]
        if self._z_rank:
            self._m3_z = self._apply_m3(z)  # cached M3^{-1} Z
            self._z_core = _checked_lu(
                np.eye(self._z_rank) + z.T @ self._m3_z, "penalty")

        # level 3: fold in + U V^T
        self._uv_rank = u.shape[1]
        if self._uv_rank:
            self._m2_u = self._apply_m2(u)  # cached M2^{-1} U
            self._uv_core = _checked_lu(
                np.eye(self._uv_rank) + v.T @ self._m2_u, "score-pair")

    def _apply_m3(self, rhs: np.ndarray) -> np.ndarray:
        c = self.factors.ridge
        if not self._xy_rank:
            return rhs / c
        x, y = self.factors.x, self.factors.y
        out = x @ lu_solve(self._xy_core, y.T @ rhs)
        out += rhs
        out /= c
        return out

    def _apply_m2(self, rhs: np.ndarray) -> np.ndarray:
        out = self._apply_m3(rhs)
        if self._z_rank:
            z = self.factors.z
            out -= self._m3_z @ lu_solve(self._z_core, z.T @ out)
        return out

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A_hat^{-1} rhs for a vector (n_phi,) or a block (n_phi, k)."""
        rhs = np.asarray(rhs, dtype=float)
        squeeze = rhs.ndim == 1
        if squeeze:
            rhs = rhs[:, None]
        out = self._apply_m2(rhs)
        if self._uv_rank:
            v = self.factors.v
            out -= self._m2_u @ lu_solve(self._uv_core, v.T @ out)
        return out[:, 0] if squeeze else out


class HessianOperator:
    """Applies the dual-corrected inverse curvature

        H = A^{-1} + lam * A^{-1} b s^{-1} b^T A^{-1},
        s = dual_slope - lam * b^T A^{-1} b,

    where b is the model/multiplier coupling vector. Raises
    ``SingularScalarError`` when |s| falls under ``SCHUR_FLOOR``.
    """

    def __init__(self, solver: WoodburySolver, lam: float | None = None):
        self.solver = solver
        factors = solver.factors
        self.lam = factors.lam if lam is None else lam
        self.coupling = np.asarray(factors.dual_coupling, dtype=float)
        self.dual_slope = factors.dual_slope
        if self.coupling.size:
            self._a_inv_b = solver.solve(self.coupling)
            self.schur = self.dual_slope - self.lam * float(
                self.coupling @ self._a_inv_b)
        else:
            self._a_inv_b = np.zeros(factors.n_phi)
            self.schur = self.dual_slope

    def apply_inverse_curvature(self, vec: np.ndarray) -> np.ndarray:
        """Plain A^{-1} vec (the multiplier-free correction)."""
        return self.solver.solve(vec)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        base = self.solver.solve(vec)
        if not self.coupling.size or self.lam == 0.0:
            return base
        if abs(self.schur) < SCHUR_FLOOR:
            raise SingularScalarError(
                f"dual Schur complement |{self.schur:.3e}| < {SCHUR_FLOOR:.0e}; "
                "inverse curvature with the multiplier row is singular")
        gain = self.lam * float(self.coupling @ base) / self.schur
        return base + gain * self._a_inv_b


def leader_gradient(grad_policy: np.ndarray, grad_model: np.ndarray,
                    factors: LowRankFactors,
                    operator: HessianOperator | None = None,
                    use_dual_row: bool = True) -> np.ndarray:
    """Total policy derivative: grad_theta J - (U W^T)^T applied-inverse grad_phi J.

    Assembled right-to-left so no n_phi x n_phi or n_phi x n_theta matrix is
    ever formed. With ``use_dual_row`` the multiplier-aware operator H is used;
    otherwise the plain A^{-1}.
    """
    if operator is None:
        operator = HessianOperator(WoodburySolver(factors))
    corrected = (operator.apply(grad_model) if use_dual_row
                 else operator.apply_inverse_curvature(grad_model))
    return grad_policy - factors.w @ (factors.u.T @ corrected)


def random_factors(n_phi: int, n_theta: int = 4, m: int = 8, big_m: int = 12,
                   z_rank: int = 6, ridge: float = 1.0, lam: float = 0.5,
                   seed: int = 0) -> LowRankFactors:
    """Well-scaled random factor set for solver tests and benchmarks."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(n_phi)

    def draw(cols: int) -> np.ndarray:
        return rng.standard_normal((n_phi, cols)) * scale

    return LowRankFactors(
        u=draw(m), v=draw(m), x=draw(big_m), y=draw(big_m), z=draw(z_rank),
        w=rng.standard_normal((n_theta, m)) / np.sqrt(m),
        ridge=ridge, lam=lam,
        dual_coupling=rng.standard_normal(n_phi) * scale,
        dual_slope=float(rng.uniform(0.5, 1.5)))
