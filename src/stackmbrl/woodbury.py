"""Low-rank curvature solves for the leader's gradient correction.

The model-side curvature estimate is kept in factored form

    A_hat = U V^T - X Y^T + Z Z^T + ridge * I          (n_phi x n_phi)

together with the mixed-curvature factor pair (U, W) whose product U W^T
estimates the model/policy cross block. Every factor is a linear
combination of a few score vectors, the atoms: the rows of S (k x n_phi).
A factor is held as a small coefficient matrix, U = S^T c_U and so on, so
the factors cost O(k * n_phi) memory together however many columns they
have.

Solves go through one k x k core. With K = c_U c_V^T - c_X c_Y^T +
c_Z c_Z^T, A_hat = ridge * I + S^T K S, and the push-through Woodbury
identity (Hager, SIAM Review 1989) gives

    A_hat^{-1} b = (b - S^T K (ridge * I_k + G K)^{-1} S b) / ridge,

with G = S S^T. A build forms G, in O(k^2 * n_phi), and K, and checks the
core's condition number against ``COND_LIMIT`` once; a solve projects its
right-hand side onto the atoms once, solves the core with
``np.linalg.solve`` and expands the result once, in O(k * n_phi) time. A
built solver holds K and the core: O(k^2) memory beyond the factors'
O(k * n_phi). When k >= n_phi the core is no smaller than A_hat itself, so
the solver forms A_hat densely and solves it directly. A solve never
writes to the factors or the right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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

    ``atoms`` holds the rows of S (k x n_phi) as one or more row blocks, so
    a block can be a view of a score tensor the caller already has. Each
    factor is S^T times its (k, rank) coefficient matrix. Coefficients are
    pre-scaled so that plain products estimate expectations: U, V carry
    1/sqrt(m); X, Y carry sqrt(h / M); Z carries sqrt(lam / M).
    ``u``, ``v``, ``x``, ``y`` and ``z`` are the dense (n_phi, rank)
    factors, expanded on each read and read-only, for oracle comparisons.
    """

    atoms: tuple                  # row blocks of S, each (rows, n_phi)
    c_u: np.ndarray               # (k, m)   weighted model scores
    c_v: np.ndarray               # (k, m)   trajectory model scores
    c_x: np.ndarray               # (k, M)   return-weighted step scores
    c_y: np.ndarray               # (k, M)   matching step scores
    c_z: np.ndarray               # (k, Mz)  penalty scores off the dataset
    w: np.ndarray                 # (n_theta, m) trajectory policy scores
    ridge: float = RIDGE_DEFAULT
    lam: float = 0.0              # multiplier already folded into c_z
    dual_coupling: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dual_slope: float = 0.0       # estimated constraint gap E[KL] - epsilon

    def __post_init__(self):
        n_phi = self.atoms[0].shape[-1]
        if any(blk.ndim != 2 or blk.shape[1] != n_phi for blk in self.atoms):
            raise ValueError(f"atom blocks must be (rows, {n_phi})")
        k = self.n_atoms
        for name in ("c_u", "c_v", "c_x", "c_y", "c_z"):
            coef = getattr(self, name)
            if coef.ndim != 2 or coef.shape[0] != k:
                raise ValueError(f"coefficients '{name}' must be ({k}, rank)")
        if self.c_u.shape != self.c_v.shape:
            raise ValueError("u and v must have identical shapes")
        if self.c_x.shape != self.c_y.shape:
            raise ValueError("x and y must have identical shapes")
        if self.w.ndim != 2 or self.w.shape[1] != self.c_u.shape[1]:
            raise ValueError("w must have one column per u column")
        if self.ridge <= 0.0:
            raise ValueError("ridge must be positive")

    @classmethod
    def from_columns(cls, u: np.ndarray, v: np.ndarray, x: np.ndarray,
                     y: np.ndarray, z: np.ndarray, w: np.ndarray,
                     **scalars) -> "LowRankFactors":
        """Factors given as explicit (n_phi, rank) columns: every column
        becomes an atom, and each coefficient matrix selects its own."""
        cols = (u, v, x, y, z)
        atoms = np.concatenate([c.T for c in cols])
        ranks = np.cumsum([c.shape[1] for c in cols])
        coefs = np.split(np.eye(len(atoms)), ranks[:-1], axis=1)
        return cls((atoms,), *coefs, w=w, **scalars)

    @property
    def n_phi(self) -> int:
        return self.atoms[0].shape[1]

    @property
    def n_atoms(self) -> int:
        return sum(len(blk) for blk in self.atoms)

    @property
    def n_theta(self) -> int:
        return self.w.shape[0]

    def project(self, rhs: np.ndarray) -> np.ndarray:
        """S rhs: (k,) or (k, p) for rhs (n_phi,) or (n_phi, p)."""
        return np.concatenate([blk @ rhs for blk in self.atoms])

    def expand(self, coef: np.ndarray) -> np.ndarray:
        """S^T coef: (n_phi,) or (n_phi, p) for coef (k,) or (k, p)."""
        out = np.zeros((self.n_phi,) + coef.shape[1:])
        start = 0
        for blk in self.atoms:
            out += blk.T @ coef[start:start + len(blk)]
            start += len(blk)
        return out

    def gram(self) -> np.ndarray:
        """G = S S^T (k x k), one product per pair of atom blocks."""
        blocks = [[None] * len(self.atoms) for _ in self.atoms]
        for i, row in enumerate(self.atoms):
            blocks[i][i] = row @ row.T
            for j in range(i):
                blocks[i][j] = row @ self.atoms[j].T
                blocks[j][i] = blocks[i][j].T
        return np.block(blocks)

    def _dense(self, coef: np.ndarray) -> np.ndarray:
        out = self.expand(coef)
        out.flags.writeable = False
        return out

    u = property(lambda self: self._dense(self.c_u))
    v = property(lambda self: self._dense(self.c_v))
    x = property(lambda self: self._dense(self.c_x))
    y = property(lambda self: self._dense(self.c_y))
    z = property(lambda self: self._dense(self.c_z))

    def dense(self) -> np.ndarray:
        """Explicit A_hat: the solver's dense route when k >= n_phi, and an
        oracle for comparisons."""
        return (self.u @ self.v.T - self.x @ self.y.T + self.z @ self.z.T
                + self.ridge * np.eye(self.n_phi))

    def dense_mixed(self) -> np.ndarray:
        """Explicit mixed-curvature estimate U W^T (n_phi x n_theta)."""
        return self.u @ self.w.T


def _checked_core(mat: np.ndarray) -> np.ndarray:
    if mat.size:
        cond = np.linalg.cond(mat)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise IllConditionedError(
                "woodbury core is ill-conditioned "
                f"(cond={cond:.3e} > {COND_LIMIT:.0e})")
    return mat


class WoodburySolver:
    """Inverse of the factored curvature matrix through one core.

    The core is cI + G K (k x k) with c the ridge, or A_hat itself when
    k >= n_phi; the route is chosen from the factors' shapes alone. Its
    condition number is checked once at build time.
    """

    def __init__(self, factors: LowRankFactors):
        self.factors = factors
        if factors.n_atoms >= factors.n_phi:
            self._k, core = None, factors.dense()
        else:
            self._k = factors.c_u @ factors.c_v.T
            self._k -= factors.c_x @ factors.c_y.T
            self._k += factors.c_z @ factors.c_z.T
            core = factors.gram() @ self._k
            core[np.diag_indices_from(core)] += factors.ridge
        self._core = _checked_core(core)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A_hat^{-1} rhs for a vector (n_phi,) or a block (n_phi, p)."""
        rhs = np.asarray(rhs, dtype=float)
        if self._k is None:
            return np.linalg.solve(self._core, rhs)
        f = self.factors
        out = f.expand(self._k @ np.linalg.solve(self._core, f.project(rhs)))
        np.subtract(rhs, out, out=out)
        out /= f.ridge
        return out


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
    return grad_policy - factors.w @ (factors.c_u.T
                                      @ factors.project(corrected))


def random_factors(n_phi: int, n_theta: int = 4, m: int = 8, big_m: int = 12,
                   z_rank: int = 6, ridge: float = 1.0, lam: float = 0.5,
                   seed: int = 0) -> LowRankFactors:
    """Well-scaled random factor set for solver tests and benchmarks."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(n_phi)

    def draw(cols: int) -> np.ndarray:
        return rng.standard_normal((n_phi, cols)) * scale

    return LowRankFactors.from_columns(
        u=draw(m), v=draw(m), x=draw(big_m), y=draw(big_m), z=draw(z_rank),
        w=rng.standard_normal((n_theta, m)) / np.sqrt(m),
        ridge=ridge, lam=lam,
        dual_coupling=rng.standard_normal(n_phi) * scale,
        dual_slope=float(rng.uniform(0.5, 1.5)))
