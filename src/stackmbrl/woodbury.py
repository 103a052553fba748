"""Low-rank curvature solves for the leader's gradient correction.

The model-side curvature estimate is kept in factored form

    A_hat = U V^T - X Y^T + Z Z^T + ridge * I          (n_phi x n_phi)

together with the mixed-curvature factor pair (U, W) whose product U W^T
estimates the model/policy cross block. Every factor is a linear
combination of a few score vectors, the atoms: the rows of S (k x n_phi).
A factor is held as a small coefficient matrix, U = S^T c_U and so on.

An atom is block-sparse: it is zero outside one cell of K parameters (a
categorical score touches only its own (s, a) block; a Gaussian score, or
any explicit column, is the one-cell case K = n_phi). ``BlockScores``
holds each atom as its cell index and its K-entry block, so the atoms cost
O(k * K) memory, and the three products the solver needs read only those
blocks: G = S S^T is the block Gram matrix masked to atoms that share a
cell, in O(k^2 * K); S b gathers the t <= k cells the atoms touch once
and reads each atom's dot product with its own cell off one (k, t)
product, and S^T c sums each touched cell's scaled blocks as one (t, k)
by (k, K) product. Both take O(k * t * K) in matrix products, no more
than building G, plus one O(n_phi) right-hand side; for one-cell atoms
(t = 1) they are plain matrix-vector products.

Solves go through one k x k core. With M = c_U c_V^T - c_X c_Y^T +
c_Z c_Z^T, A_hat = ridge * I + S^T M S, and the push-through Woodbury
identity (Hager, SIAM Review 1989) gives

    A_hat^{-1} b = (b - S^T M (ridge * I_k + G M)^{-1} S b) / ridge.

A build forms G and M, in O(k^2 * K + k^3), factors the core once as QR
and keeps P = R^{-1} Q^T with the core: O(k^2) memory beyond the atoms.
kappa_2 <= kappa_F = ||R||_F ||R^{-1}||_F <= k kappa_2, so only a core
near ``COND_LIMIT`` pays for an SVD. A solve projects its right-hand side
onto the atoms once, applies P with one refinement step against the core
(an explicit inverse alone leaves a residual of order kappa * eps), and
expands the result once. Every step is a QR or a matrix product, whose
bits do not depend on the BLAS thread count. When k >= n_phi the core is
no smaller than A_hat itself, so the solver factors A_hat densely. A
solve never writes to the factors or the right-hand side.

The multiplier row of the leader's correction updates any A^{-1} solve by
rank one: ``dual_corrected``, shared with the dense games of :mod:`.dynamics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

RIDGE_DEFAULT = 1e-3
COND_LIMIT = 1e12
SCHUR_FLOOR = 1e-10

class IllConditionedError(RuntimeError):
    """A Woodbury core matrix is too ill-conditioned to trust."""


class SingularScalarError(RuntimeError):
    """The dual Schur complement is numerically zero."""


@dataclass(frozen=True)
class BlockScores:
    """Score vectors that vanish outside one block of their layout.

    The parameter vector splits into n_params / size consecutive cells of
    ``size`` entries. The score at index i of the leading shape holds
    ``blocks[i]`` on cell ``cells[i]`` and zeros elsewhere. ``project``,
    ``expand`` and ``gram`` treat the scores as the rows of one matrix S,
    in C order over the leading shape.
    """

    cells: np.ndarray      # (...) int, one cell per score
    blocks: np.ndarray     # (..., size) the scores' entries on their cells
    n_params: int

    def __post_init__(self):
        if self.blocks.shape[:-1] != self.cells.shape:
            raise ValueError("blocks must add one axis to the cells' shape")
        if self.n_params % self.size:
            raise ValueError(f"{self.n_params} parameters do not split into "
                             f"cells of {self.size}")

    @property
    def size(self) -> int:
        return self.blocks.shape[-1]

    @property
    def n_cells(self) -> int:
        return self.n_params // self.size

    def __getitem__(self, index) -> "BlockScores":
        """The scores at ``index`` over the leading shape."""
        return BlockScores(self.cells[index], self.blocks[index],
                           self.n_params)

    def rows(self) -> "BlockScores":
        """The same scores with the leading shape flattened to (k,)."""
        return BlockScores(self.cells.reshape(-1),
                           self.blocks.reshape(-1, self.size), self.n_params)

    @staticmethod
    def concatenate(parts) -> "BlockScores":
        """The rows of each part, one part after the other."""
        parts = [part.rows() for part in parts]
        return BlockScores(np.concatenate([p.cells for p in parts]),
                           np.concatenate([p.blocks for p in parts]),
                           parts[0].n_params)

    def dense(self) -> np.ndarray:
        """(..., n_params) explicit scores, for oracles and tests."""
        flat = self.rows()
        out = np.zeros((flat.cells.size, self.n_cells, self.size))
        out[np.arange(flat.cells.size), flat.cells] = flat.blocks
        return out.reshape(self.cells.shape + (self.n_params,))

    @cached_property
    def _incidence(self) -> tuple:
        """(cells, rows, E): the t distinct cells the scores touch, in
        ascending order, each score's position among them, and the (t, k)
        0/1 matrix with E[rows[i], i] = 1."""
        cells, rows = np.unique(self.cells.reshape(-1), return_inverse=True)
        incidence = np.zeros((len(cells), len(rows)))
        incidence[rows, np.arange(len(rows))] = 1.0
        return cells, rows, incidence

    def project(self, rhs: np.ndarray) -> np.ndarray:
        """S rhs: (k,) or (k, p) for rhs (n_params,) or (n_params, p). The
        t touched cells of rhs are gathered once; each score's dot product
        with its own cell is read off their (k, t) product with the blocks."""
        cells, rows, _ = self._incidence
        touched = rhs.reshape((self.n_cells, self.size) + rhs.shape[1:])[cells]
        products = np.tensordot(self.rows().blocks, touched, axes=(1, 1))
        return products[np.arange(len(rows)), rows]

    def expand(self, coef: np.ndarray) -> np.ndarray:
        """S^T coef: (n_params,) or (n_params, p) for coef (k,) or (k, p).
        Each touched cell's sum of scaled blocks is one row of the product
        of the coefficient-weighted incidence matrix with the blocks."""
        cells, _, incidence = self._incidence
        tail = coef.shape[1:]
        weighted = incidence.reshape(incidence.shape + (1,) * len(tail)) * coef
        sums = np.tensordot(weighted, self.rows().blocks, axes=(1, 0))
        out = np.zeros((self.n_cells, self.size) + tail)
        out[cells] = np.moveaxis(sums, -1, 1)
        return out.reshape((self.n_params,) + tail)

    def gram(self) -> np.ndarray:
        """G = S S^T (k x k): block products of scores in the same cell."""
        flat = self.rows()
        out = flat.blocks @ flat.blocks.T
        out[flat.cells[:, None] != flat.cells[None, :]] = 0.0
        return out


@dataclass
class LowRankFactors:
    """Factored curvature statistics for one batch.

    ``atoms`` holds the k rows of S as block scores. Each factor is S^T
    times its (k, rank) coefficient matrix. Coefficients are pre-scaled so
    that plain products estimate expectations: U, V carry 1/sqrt(m); X, Y
    carry sqrt(h / M); Z carries sqrt(lam / M). A policy epoch's factors
    hold O(k * (K + rank)) numbers plus the (n_theta, m) W and the
    n_phi-vector ``dual_coupling``; no n_phi-tall matrix. ``u``, ``v``,
    ``x``, ``y`` and ``z`` are the dense (n_phi, rank) factors, expanded on
    each read and read-only, for oracle comparisons.
    """

    atoms: BlockScores            # (k,) score atoms, the rows of S
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
        if self.atoms.cells.ndim != 1:
            raise ValueError("atoms must be one row of scores per atom")
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
        becomes a one-cell atom, and each coefficient matrix selects its
        own."""
        cols = (u, v, x, y, z)
        blocks = np.concatenate([c.T for c in cols])
        atoms = BlockScores(np.zeros(len(blocks), dtype=np.int64), blocks,
                            u.shape[0])
        ranks = np.cumsum([c.shape[1] for c in cols])
        coefs = np.split(np.eye(len(blocks)), ranks[:-1], axis=1)
        return cls(atoms, *coefs, w=w, **scalars)

    @property
    def n_phi(self) -> int:
        return self.atoms.n_params

    @property
    def n_atoms(self) -> int:
        return self.atoms.cells.size

    def _dense(self, coef: np.ndarray) -> np.ndarray:
        out = self.atoms.expand(coef)
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


def _upper_inverse(r: np.ndarray) -> np.ndarray:
    """Inverse X of the upper-triangular r: r X = I solved bottom-up by row
    blocks of the largest width up to 16 dividing n, the diagonal blocks
    all at once, then X[I, after] = -(X[I, I] r[I, after]) X[after, after]
    per block row I."""
    n = len(r)
    leaf = max(width for width in range(1, 17) if n % width == 0)
    diag = np.arange(n // leaf)
    shape = (len(diag), leaf, len(diag), leaf)
    blocks = r.reshape(shape)[diag, :, diag]
    inv = np.zeros_like(blocks)
    for i in range(leaf - 1, -1, -1):
        inv[:, i, i] = 1.0 / blocks[:, i, i]
        row = blocks[:, i, None, i + 1:] @ inv[:, i + 1:, i + 1:]
        inv[:, i, i + 1:] = -row[:, 0] / blocks[:, i, i, None]
    out = np.zeros_like(r)
    out.reshape(shape)[diag, :, diag] = inv
    for start in range(n - 2 * leaf, -1, -leaf):
        stop = start + leaf
        out[start:stop, stop:] = -(out[start:stop, start:stop]
                                   @ r[start:stop, stop:]) @ out[stop:, stop:]
    return out


def _screened_inverse(core: np.ndarray) -> np.ndarray:
    """P = R^{-1} Q^T ~ core^{-1}, or ``IllConditionedError`` exactly when
    ``np.linalg.cond(core) > COND_LIMIT``: the SVD runs only for kappa_F in
    (COND_LIMIT / 2, 2 k COND_LIMIT], the 2 absorbing either estimate's
    rounding. A singular core has an infinite or undefined kappa_F."""
    q, r = np.linalg.qr(core)
    with np.errstate(all="ignore"):
        r_inv = _upper_inverse(r)
        cond = np.linalg.norm(r) * np.linalg.norm(r_inv)
    del r
    if COND_LIMIT / 2 < cond <= 2 * len(core) * COND_LIMIT:
        cond = np.linalg.cond(core)
    if not cond <= COND_LIMIT:
        raise IllConditionedError("woodbury core is ill-conditioned "
                                  f"(cond={cond:.3e} > {COND_LIMIT:.0e})")
    return r_inv @ q.T


class WoodburySolver:
    """Inverse of the factored curvature matrix through one core.

    The core is cI + G M (k x k) with c the ridge, or A_hat itself when
    k >= n_phi; the route is chosen from the factors' shapes alone. A
    build factors and screens the core once; every solve reuses it.
    """

    def __init__(self, factors: LowRankFactors):
        self.factors = factors
        self._dense = factors.n_atoms >= factors.n_phi
        if self._dense:
            core = factors.dense()
        else:
            core = factors.c_u @ factors.c_v.T  # M, then G M
            core -= factors.c_x @ factors.c_y.T
            core += factors.c_z @ factors.c_z.T
            core = factors.atoms.gram() @ core
            core[np.diag_indices_from(core)] += factors.ridge
        self._core, self._inverse = core, _screened_inverse(core)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A_hat^{-1} rhs for a vector (n_phi,) or a block (n_phi, p)."""
        f = self.factors
        rhs = np.asarray(rhs, dtype=float)
        b = rhs if self._dense else f.atoms.project(rhs)
        y = self._inverse @ b
        y += self._inverse @ (b - self._core @ y)
        if self._dense:
            return y
        out = f.atoms.expand(f.c_u @ (f.c_v.T @ y) - f.c_x @ (f.c_y.T @ y)
                             + f.c_z @ (f.c_z.T @ y))
        np.subtract(rhs, out, out=out)
        out /= f.ridge
        return out


def dual_corrected(solve, g: np.ndarray, b: np.ndarray, lam: float,
                   slope: float) -> np.ndarray:
    """H g for the dual-corrected inverse curvature

        H = A^{-1} + lam * A^{-1} b s^{-1} b^T A^{-1},
        s = slope - lam * b^T A^{-1} b,

    with ``solve`` applying A^{-1} and b the model/multiplier coupling
    vector. An empty b or a zero multiplier leaves the plain A^{-1} g.
    Raises ``SingularScalarError`` when |s| falls under ``SCHUR_FLOOR``.
    """
    base = solve(g)
    if not b.size or lam == 0.0:
        return base
    a_inv_b = solve(b)
    schur = slope - lam * float(b @ a_inv_b)
    if abs(schur) < SCHUR_FLOOR:
        raise SingularScalarError(
            f"dual Schur complement |{schur:.3e}| < {SCHUR_FLOOR:.0e}; "
            "inverse curvature with the multiplier row is singular")
    return base + (lam * float(b @ base) / schur) * a_inv_b


def leader_gradient(grad_policy: np.ndarray, grad_model: np.ndarray,
                    factors: LowRankFactors,
                    use_dual_row: bool = True) -> np.ndarray:
    """Total policy derivative: grad_theta J - (U W^T)^T H grad_phi J.

    Assembled right-to-left so no n_phi x n_phi or n_phi x n_theta matrix is
    ever formed. With ``use_dual_row`` H is the multiplier-aware
    ``dual_corrected`` inverse; otherwise the coupling is left out and H is
    the plain A^{-1}.
    """
    coupling = factors.dual_coupling if use_dual_row else np.zeros(0)
    corrected = dual_corrected(WoodburySolver(factors).solve, grad_model,
                               coupling, factors.lam, factors.dual_slope)
    return grad_policy - factors.w @ (factors.c_u.T
                                      @ factors.atoms.project(corrected))


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
