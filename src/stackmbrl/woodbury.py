"""Low-rank curvature solves for the leader's gradient correction.

The model-side curvature estimate is kept in factored form

    A_hat = D + U V^T - X Y^T + Z Z^T = ridge * N + S^T M S   (n_phi x n_phi)

with U W^T estimating the model/policy cross block. The base D = ridge * N
is closed-form and block-diagonal over the cells of the model's layout.
The rows of S are k score atoms, each zero outside one cell of K entries
(``BlockScores``), and U = S^T c_U and so on, so M = c_U c_V^T - c_X c_Y^T
+ c_Z c_Z^T. With the k x k core C = ridge * I_k + S N^{-1} S^T M, the
push-through identity over a general base (Hager, SIAM Review 1989) gives

    S A_hat^{-1} x = y_x = C^{-1} S N^{-1} x,
    A_hat^{-1} x = N^{-1} (x - S^T M y_x) / ridge,

where S N^{-1} x reads x only on the atoms' cells (N is symmetric). C costs
O(k^2 K + k^3) and one QR; every step is a QR or a matrix product, whose
bits do not depend on the BLAS thread count. When k >= n_phi the solver
factors A_hat densely.

The leader's step g_theta - W c_U^T S H g_phi reads H g_phi only through
S, so the core route stays in k-space. Per policy epoch: one core, y_g and
y_b (b the multiplier's coupling) as one block, and b^T A_hat^{-1} x =
(N^{-1} b . x - (S N^{-1} b)^T M y_x) / ridge, whatever n_phi is. Per
iteration: D and a ``DualRow``, holding N^{-1} b and b . N^{-1} b.
``dual_corrected`` applies the multiplier's rank-one update and Schur
screen, shared with the dense games of :mod:`.dynamics`.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Score vectors that vanish outside one block of their layout: the
    parameters split into n_params / size cells of ``size`` entries, and
    the score at index i of the leading shape holds ``blocks[i]`` on cell
    ``cells[i]``. ``project``, ``expand`` and ``gram`` treat the scores as
    the rows of one matrix S, in C order over the leading shape."""

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

    def dense(self) -> np.ndarray:
        """(..., n_params) explicit scores, for oracles and tests."""
        cells, rows, _, blocks = self._incidence
        out = np.zeros((len(rows), self.n_cells, self.size))
        out[np.arange(len(rows)), cells[rows]] = blocks
        return out.reshape(self.cells.shape + (self.n_params,))

    @cached_property
    def _incidence(self) -> tuple:
        """(cells, rows, E, blocks): the t distinct cells touched, ascending,
        each score's among them, E (t, k) with E[rows[i], i] = 1, blocks."""
        cells, rows = np.unique(self.cells.reshape(-1), return_inverse=True)
        incidence = np.zeros((len(cells), len(rows)))
        incidence[rows, np.arange(len(rows))] = 1.0
        return cells, rows, incidence, self.blocks.reshape(-1, self.size)

    def project(self, rhs: np.ndarray, blocks=None) -> np.ndarray:
        """S rhs, (k,) or (k, p) for rhs (n_params,) or (n_params, p), or the
        product of ``blocks`` (k, size) on the scores' cells: read off the
        (k, t) product of the blocks with the t touched cells of rhs."""
        cells, rows, _, own = self._incidence
        touched = rhs.reshape((self.n_cells, self.size) + rhs.shape[1:])[cells]
        products = np.tensordot(own if blocks is None else blocks, touched,
                                axes=(1, 1))
        return products[np.arange(len(rows)), rows]

    def expand(self, coef: np.ndarray) -> np.ndarray:
        """S^T coef: (n_params,) or (n_params, p) for coef (k,) or (k, p):
        one product of the coefficient-weighted incidence, (t * p, k), with
        the blocks, scattered onto the t touched cells."""
        cells, rows, incidence, blocks = self._incidence
        cols, tail = np.atleast_2d(coef.T), coef.shape[1:]  # (p, k)
        t, p = len(cells), len(cols)
        sums = (incidence[:, None] * cols).reshape(t * p, len(rows)) @ blocks
        out = np.zeros((self.n_cells, self.size) + tail)
        out[cells] = np.moveaxis(sums.reshape(t, p, self.size), 1, -1).reshape(
            (t, self.size) + tail)
        return out.reshape((self.n_params,) + tail)

    def gram(self, right: np.ndarray) -> np.ndarray:
        """S T^T (k x k) for T's (k, size) blocks ``right`` on the same
        cells, S S^T for the scores' own: block products in the same cell."""
        _, rows, _, blocks = self._incidence
        out = blocks @ right.T
        out[rows[:, None] != rows[None, :]] = 0.0
        return out


@dataclass(frozen=True)
class CellCurvature:
    """A base D = ridge * N, block-diagonal over cells of K entries: ridge
    * I, plus on each listed cell scale E_{y~q}[(e_y - p)(e_y - p)^T] =
    scale (diag(q) - q q^T + d d^T), d = q - p (none for explicit columns).

    Each base has ``dense()``, D itself, ``solve_blocks(cells, blocks)``,
    N^{-1} on (..., k, K) blocks, row i on cell ``cells[i]``, and
    ``solve(rhs)``, N^{-1} on the whole layout. Here a block takes two
    Sherman-Morrison steps in O(K): a downdate by q q^T, over sum_k q_k /
    (1 + beta q_k), beta = scale / ridge, rather than the cancelling 1 -
    sum_k beta q_k^2 / (1 + beta q_k), then an update by d d^T."""

    n_params: int
    ridge: float
    cells: np.ndarray   # (n,) distinct cell indices
    scale: np.ndarray   # (n,) block weights
    q: np.ndarray       # (n, K) reference probabilities
    d: np.ndarray       # (n, K) reference minus block probabilities

    @cached_property
    def _steps(self) -> tuple:
        """Per cell of the layout, for Delta = 1 + beta q: Delta^{-1},
        Delta^{-1} q, d and the two steps' terms; beta = 0 off the list."""
        n_cells, k = self.n_params // self.q.shape[1], self.q.shape[1]
        beta, d = np.zeros((n_cells, 1)), np.zeros((n_cells, k))
        q = np.full((n_cells, k), 1.0 / k)  # any distribution, at beta = 0
        beta[self.cells, 0] = self.scale / self.ridge
        q[self.cells], d[self.cells] = self.q, self.d
        inv = 1.0 / (1.0 + beta * q)
        inv_q = inv * q
        down = inv_q * (beta / inv_q.sum(axis=-1, keepdims=True))
        sol_d = inv * d + down * (inv_q * d).sum(axis=-1, keepdims=True)
        return inv, inv_q, down, d, sol_d * (beta / (1.0 + beta * (
            d * sol_d).sum(axis=-1, keepdims=True)))

    def solve_blocks(self, cells, blocks):
        if not len(self.cells):  # N = I: no copy of n_phi-long blocks
            return blocks
        inv, inv_q, down, d, up = (part[cells] for part in self._steps)
        x = inv * blocks + down * np.einsum("...k,...k", inv_q, blocks)[..., None]
        return x - up * np.einsum("...k,...k", d, x)[..., None]

    def solve(self, rhs):
        return self.solve_blocks(slice(None), rhs.T.reshape(
            rhs.shape[1:] + (-1, self.q.shape[1]))).reshape(rhs.shape[::-1]).T

    def dense(self):
        out, k = self.ridge * np.eye(self.n_params), self.q.shape[1]
        q, d = self.q[:, :, None], self.d[:, :, None]
        out.reshape(-1, k, self.n_params // k, k)[self.cells, :, self.cells] += (
            self.scale[:, None, None] * (q * np.eye(k) - q * self.q[:, None]
                                         + d * self.d[:, None]))
        return out


@dataclass(frozen=True)
class DenseCurvature:
    """The base D = ridge * I + ``penalty`` (symmetric) on the one cell of
    all n_params entries, with ``CellCurvature``'s three methods."""

    n_params: int
    ridge: float
    penalty: np.ndarray

    def solve_blocks(self, cells, blocks):
        return np.linalg.solve(np.eye(self.n_params) + self.penalty
                               / self.ridge, blocks[..., None])[..., 0]

    def solve(self, rhs):
        return self.solve_blocks(None, rhs.T).T

    def dense(self):
        return self.ridge * np.eye(self.n_params) + self.penalty


@dataclass(frozen=True)
class DualRow:
    """The multiplier's row over a base D = ridge * N; ``over`` builds it."""

    coupling: np.ndarray   # (n_phi,) b, the model/multiplier coupling
    slope: float           # estimated constraint gap E[KL] - epsilon
    solved: np.ndarray     # (n_phi,) N^{-1} b
    curvature: float       # b . N^{-1} b

    @classmethod
    def over(cls, base, coupling: np.ndarray, slope: float) -> "DualRow":
        solved = base.solve(coupling)
        return cls(coupling, slope, solved, float(coupling @ solved))


@dataclass
class LowRankFactors:
    """Factored curvature statistics for one batch.

    ``atoms`` holds the k rows of S, in C order over their leading shape.
    Each factor is S^T times its (k, rank) coefficients, scaled so that
    plain products estimate expectations over m trajectories: U, V carry
    1/sqrt(m); X, Y carry 1/sqrt(m) on one step per column (times its
    weight in X); Z holds explicit columns only. D = ``base`` folds in the
    multiplier's penalty curvature, and ``dual`` is the multiplier's row
    over it, or None. ``u`` ... ``z`` are the dense factors, for oracles.
    """

    atoms: BlockScores            # (...) score atoms, the k rows of S
    c_u: np.ndarray               # (k, m)   weighted model scores
    c_v: np.ndarray               # (k, m)   trajectory model scores
    c_x: np.ndarray               # (k, Mx)  return-weighted step scores
    c_y: np.ndarray               # (k, Mx)  the same steps unweighted
    c_z: np.ndarray               # (k, Mz)  explicit symmetric columns
    w: np.ndarray                 # (n_theta, m) trajectory policy scores
    base: CellCurvature           # D, or a DenseCurvature on one cell
    lam: float = 0.0              # multiplier already folded into D
    dual: DualRow | None = None

    def __post_init__(self):
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
        if not self.base.ridge > 0.0:  # NaN fails too
            raise ValueError("ridge must be positive")

    @classmethod
    def from_columns(cls, u: np.ndarray, v: np.ndarray, x: np.ndarray,
                     y: np.ndarray, z: np.ndarray, w: np.ndarray,
                     ridge: float = RIDGE_DEFAULT, lam: float = 0.0,
                     dual_coupling: np.ndarray | None = None,
                     dual_slope: float = 0.0) -> "LowRankFactors":
        """Factors given as explicit (n_phi, rank) columns over ridge * I:
        every column becomes a one-cell atom, and each coefficient matrix
        selects its own."""
        cols = (u, v, x, y, z)
        blocks = np.concatenate([c.T for c in cols])
        atoms = BlockScores(np.zeros(len(blocks), dtype=np.int64), blocks,
                            u.shape[0])
        ranks = np.cumsum([c.shape[1] for c in cols])
        coefs = np.split(np.eye(len(blocks)), ranks[:-1], axis=1)
        none = np.zeros((0, u.shape[0]))
        base = CellCurvature(u.shape[0], ridge, np.zeros(0, int), np.zeros(0),
                             none, none)
        return cls(atoms, *coefs, w=w, base=base, lam=lam, dual=None if
                   dual_coupling is None else DualRow.over(base, dual_coupling,
                                                           dual_slope))

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
    dual_coupling = property(lambda self: np.zeros(0) if self.dual is None
                             else self.dual.coupling)

    def dense(self) -> np.ndarray:
        """Explicit A_hat: the solver's dense route when k >= n_phi, and an
        oracle for comparisons."""
        return (self.u @ self.v.T - self.x @ self.y.T + self.z @ self.z.T
                + self.base.dense())


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
    """Inverse of the factored curvature matrix through one core, C or,
    when k >= n_phi, A_hat itself; the factors' shapes alone choose."""

    def __init__(self, factors: LowRankFactors):
        self.factors = factors
        self._dense = factors.n_atoms >= factors.n_phi
        if self._dense:
            core = factors.dense()
        else:
            f, atoms = factors, factors.atoms
            self._solved = f.base.solve_blocks(  # rows of S N^-1
                atoms.cells, atoms.blocks).reshape(-1, atoms.size)
            core = atoms.gram(self._solved) @ (  # (S N^-1 S^T) M
                f.c_u @ f.c_v.T - f.c_x @ f.c_y.T + f.c_z @ f.c_z.T)
            core[np.diag_indices_from(core)] += f.base.ridge
        self._core, self._inverse = core, _screened_inverse(core)

    def _refined(self, b: np.ndarray) -> np.ndarray:
        """core^{-1} b: P b and one refinement step against the core."""
        y = self._inverse @ b
        y += self._inverse @ (b - self._core @ y)
        return y

    def _coupled(self, y: np.ndarray) -> np.ndarray:
        """M y, for M = c_U c_V^T - c_X c_Y^T + c_Z c_Z^T."""
        f = self.factors
        return (f.c_u @ (f.c_v.T @ y) - f.c_x @ (f.c_y.T @ y)
                + f.c_z @ (f.c_z.T @ y))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A_hat^{-1} rhs for a vector (n_phi,) or a block (n_phi, p)."""
        f = self.factors
        rhs = np.asarray(rhs, dtype=float)
        if self._dense:
            return self._refined(rhs)
        y = self._refined(f.atoms.project(rhs, self._solved))
        return f.base.solve(rhs - f.atoms.expand(self._coupled(y))) / (
            f.base.ridge)

    def leader_atoms(self, g: np.ndarray, lam: float,
                     dual: DualRow | None) -> np.ndarray:
        """S H g for H = A_hat^{-1} or, with the multiplier row ``dual``,
        ``dual_corrected``'s H: g and b solved in full on the dense route,
        their y_x = S A_hat^{-1} x and the row's scalars on the core."""
        f, xs = self.factors, (g,) if dual is None else (g, dual.coupling)
        if self._dense:  # A_hat^{-1} x, and b^T A_hat^{-1} x
            y = [self._refined(x) for x in xs]
            dots = [float(dual.coupling @ v) for v in y] if dual else ()
        else:  # y_x = S A_hat^{-1} x, one column each, and the row's scalars
            near = np.stack([f.atoms.project(x, self._solved) for x in xs], 1)
            y, dots = self._refined(near), ()
            if dual is not None:
                dots = (np.array([dual.solved @ g, dual.curvature])
                        - near[:, 1] @ self._coupled(y)) / f.base.ridge
            y = list(y.T)
        h = y[0] if dual is None else dual_corrected(*y, *dots, lam, dual.slope)
        return f.atoms.project(h) if self._dense else h


def dual_corrected(h_g: np.ndarray, h_b: np.ndarray, b_h_g: float,
                   b_h_b: float, lam: float, slope: float) -> np.ndarray:
    """L H g for H = A^{-1} + lam A^{-1} b s^{-1} b^T A^{-1}, s = slope -
    lam b^T A^{-1} b, b the model/multiplier coupling, from h_g = L A^{-1}
    g, h_b = L A^{-1} b, b_h_g = b^T A^{-1} g and b_h_b = b^T A^{-1} b, L
    the identity or the atoms S. ``SingularScalarError`` when |s| is under
    ``SCHUR_FLOOR``."""
    schur = slope - lam * b_h_b
    if abs(schur) < SCHUR_FLOOR:
        raise SingularScalarError(
            f"dual Schur complement |{schur:.3e}| < {SCHUR_FLOOR:.0e}; "
            "inverse curvature with the multiplier row is singular")
    return h_g + (lam * b_h_g / schur) * h_b


def leader_gradient(grad_policy: np.ndarray, grad_model: np.ndarray,
                    factors: LowRankFactors,
                    use_dual_row: bool = True) -> np.ndarray:
    """grad_theta J - (U W^T)^T H grad_phi J = grad_theta J - W c_U^T (S H
    grad_phi J), S H from ``WoodburySolver.leader_atoms``, with the dual
    row ``factors.dual`` only under ``use_dual_row``."""
    corrected = WoodburySolver(factors).leader_atoms(
        grad_model, factors.lam, factors.dual if use_dual_row else None)
    return grad_policy - factors.w @ (factors.c_u.T @ corrected)


def random_factors(n_phi: int, m: int = 8, big_m: int = 12, z_rank: int = 6,
                   seed: int = 0) -> LowRankFactors:
    """Well-scaled random factors (4 policy parameters, ridge 1, multiplier
    0.5) for solver tests and benchmarks."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(n_phi)
    u, v, x, y, z = (rng.standard_normal((n_phi, cols)) * scale
                     for cols in (m, m, big_m, big_m, z_rank))
    return LowRankFactors.from_columns(
        u, v, x, y, z, w=rng.standard_normal((4, m)) / np.sqrt(m),
        ridge=1.0, lam=0.5, dual_coupling=rng.standard_normal(n_phi) * scale,
        dual_slope=float(rng.uniform(0.5, 1.5)))
