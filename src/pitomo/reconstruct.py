"""State reconstruction from coarse-grained PI measurement data.

The estimate lives in the affine space of unit-trace block-Hermitian
matrices, written as

    rho(x) = base + sum_i x_i B_i,

with ``base`` the compressed maximally mixed state and {B_i} an
orthonormal (Frobenius) basis of traceless directions: per-sector
generalized Gell-Mann matrices plus ``num_sectors - 1`` diagonal
inter-sector trace shifts.  Outcome probabilities are affine in x,
p = p0 + G x, with the overlap table G[row, i] = tr(B_i M_k^a), and G is
never stored: it is held as its factors (``Overlap``).  By Wigner-Eckart,
the overlap of outcome k's block R_a |j,m><j,m| R_a^dagger (m = k - N/2)
with a real spherical tensor T^j_LM is C_j[m, L] Y_LM(a), where C_j, from
the diagonals of T^j_L0, does not depend on the setting and Y_LM(a), a
real harmonic of the axis, does not depend on the sector (Klose, Smith &
Jessen, PRL 86, 4721 (2001); Schmied & Treutlein, NJP 13, 065019
(2011)).  So G = [C Y B, shift columns]: an S x (N+1)^2 table Y of real
spherical harmonics, computed from the axes by the associated-Legendre
recurrence, the (N+1) x n_j columns C_j, one orthogonal map B_j per
sector from its Gell-Mann coordinates to spherical tensor ones
(block-diagonal by |M|), and the trace shifts' columns, which do not
depend on the setting.  C, B and the shift columns are built once
per layout (``Parametrization.multipoles``).  The products p = p0 + G x
and G^T v are two small gemms and one sparse map each.  Every fit
Hessian is G^T diag(c) G with c = phi''(p) >= 0 (below), added into the
lower triangle of the fit's one d x d Newton buffer W by one kernel,
symmetric rank-k (BLAS syrk) updates over rows of G that the operator
builds from its factors a chunk at a time.  The barrier Hessian is
small: each sector's Gell-Mann coordinates couple only with themselves
and the trace shifts, so it is held as the upper entries of one block
per sector and of the shift columns, each at its position in W
(``BlockHessian``).  The Newton system t H_barrier + H_fit is assembled
in W's upper triangle, which LAPACK factors in place, while W's strict
lower triangle and one d-vector keep H_fit for the next step.  A fit
step thus holds G's factors, W and those entries (0.8, 7.5 and 0.8 MB
at N = 16, where G would take 20 MB), and no array the size of G: the
rows that syrk reads are built ROW_CHUNK // 3 at a time.

The barrier engine (``AffineBlockMap``) knows three block kinds, each
with one representation.  Gell-Mann blocks (``_GellMannTables``) carry
the parametrization's directions as index tables; rank-one blocks
(``RankOneBlocks``) carry directions w v v^dagger as columns and weights,
which is how the pretest witness's POVM directions -M = -u u^dagger
enter; diagonal blocks are scalar slacks.  Both Hermitian kinds write
their blocks straight into one identity-padded stack (O(n^2) per block
for Gell-Mann), which one batched Cholesky factors, and read the
barrier derivatives in closed form off A = rho^-1: products of entries
of A for Gell-Mann directions (tr(A E_ab A E_cd) = A_bc A_da for matrix
units, O(n^4) per block), and v^dagger A v' for rank-one ones.

Every fit principle is a separable loss F = sum_r phi(p_r) over the
outcome rows (``LOSSES``: maximum likelihood, weighted and free least
squares, and hedged likelihood), so one ``FitModel`` serves them all:
its gradient is G^T phi'(p) and its Hessian G^T diag(phi''(p)) G.

The optimum is found by an interior-point outer loop: minimize
F(x) - t sum_j log det rho_j(x) by damped Newton, warm-starting while t
shrinks from t0 to t_min (``_barrier_path``).  The path starts at the
analytic centre of the barrier (``Parametrization.centre``, every block
I/D with D the compressed dimension), not at x = 0: the compressed
maximally mixed state has blocks multiplicity(j)/2^N I, which at N = 16
span a factor 1430, so a first stage started there spends most of its
steps re-centring the barrier instead of fitting the data (Boyd &
Vandenberghe, Convex Optimization, 11.3).  Each step length comes from
the Newton ray: one eigendecomposition per block gives the eigenvalues
mu of the step relative to the block, so the barrier along the ray is
exactly -sum log(1 + a mu) plus a constant and the step to the boundary
is 1 / max(-mu).  A safeguarded 1-D Newton search on the derivatives of
fit + barrier along the ray picks the step, and Cholesky feasibility +
Armijo backtracking start from it.  The fit and barrier derivatives do
not depend on t, so the ones that end a stage start the next, and so
does the Cholesky factor of the Newton system whose decrement ended it:
the next stage's first direction is then the first-order predictor
along the central path, for one triangular solve (``NewtonSystem.tangent``).
Standard barrier duality gives F(x_t) - F(x*) <= t * compressed_dim
with certificate Lambda = t rho(x_t)^{-1}, which is what ``gap_bound``
reports.  Only the last stage's point is returned, so the stages before
the last two stop in Newton's quadratic region, once the squared Newton
decrement lambda^2 <= CENTERING * t; the last two keep lambda^2 <=
grad_tol^2.  The pretest's linear-objective LMI runs on the same
engine.  ``build_fit_model`` shares one read-only ``Parametrization``
per layout across fits.

Each fit's stages share one ``NewtonSystem``, which holds the Newton
buffer, the chord fit Hessian and the factor, and states the chord
contract once: the gradient is exact at every step, but a fit Hessian
row is re-weighted only once its p has drifted past a limit, two syrk
passes over the drifted rows alone (at N = 16 most re-weightings touch
under a fifth of the rows).  ``FitModel`` keeps no state, and a fit
reads a point only through p = ``fit.probabilities(x)`` (x itself for
``LinearFit``), formed once per point.

``newton_stage`` is one loop: derivatives at the point, the stopping
tests, then a direction (the central-path tangent or Newton) and one
step call, ``_line_search`` or, once the predicted decrease is beneath
the objective's roundoff, ``_endgame_step``.

``fixed_point_reconstruct`` provides the non-convex iteration
rho_j <- R_j rho_j R_j / norm with R_j = sum (f/p) M_{k,j}, mainly as a
cross-check; it stalls near the boundary where the Newton path does not.
R_j is the POVM adjoint ``weighted_sum`` of the ratios f/p and p the
forward ``probabilities``, both over the ``StackedBlockSets`` of all
settings, built once: one product per sector and iteration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import ztrtri

from .povm import probabilities, stacked_blocks
from .povm import rotated_blocks  # unused here; kept so the benchmark tracer's hook resolves
from .spin_blocks import (
    SpinEnsemble,
    SpinSectorLayout,
    maximally_mixed_ensemble,
    sector_layout,
    spin_operators,
)

__all__ = [
    "FitSpec",
    "SolverConfig",
    "Parametrization",
    "AffineBlockMap",
    "RankOneBlocks",
    "Overlap",
    "FitModel",
    "LinearFit",
    "StageResult",
    "StageCarry",
    "NewtonSystem",
    "StageTrace",
    "ReconstructionResult",
    "FixedPointResult",
    "NonConvergenceError",
    "fit_value",
    "resolve_least_squares_weights",
    "newton_stage",
    "t_schedule",
    "build_fit_model",
    "reconstruct",
    "fixed_point_reconstruct",
    "likelihood_residual",
]


class Loss(NamedTuple):
    """A fit principle as a separable loss F = sum_r phi(p_r) over the
    outcome rows r, with frequencies f and, for LS, weights w.

    ``phi``, ``d1`` = phi' and ``d2`` = phi'' >= 0 act row by row on
    arrays (f, p, w).  ``power`` is the k with phi'' proportional to
    p^-k on the rows with f > 0, 0 for a Hessian that does not depend on
    p.  An ``observed`` loss reads only the rows with f > 0; a
    ``positive`` one takes log p or 1/p, so it needs p > 0 on every row
    it reads.
    """

    phi: Callable
    d1: Callable
    d2: Callable
    power: int
    observed: bool
    positive: bool

    def rows(self, f: np.ndarray):
        """The index of the rows the loss reads."""
        return f > 0 if self.observed else slice(None)

    def check_interior(self, p: np.ndarray) -> None:
        """Raise unless p, given on the rows the loss reads, is in its domain."""
        if self.positive and np.any(p <= 0):
            raise ValueError("non-interior evaluation: p_k <= 0 on a row the fit reads")


# ml: phi = -f log p over the rows with f > 0 (0 log p = 0 elsewhere).
# ls: phi = w (f - p)^2, whose Hessian 2 G^T diag(w) G is constant.
# freels: phi = (f - p)^2/p = f^2/p - 2f + p, so phi' = 1 - f^2/p^2 and
# phi'' = 2 f^2/p^3 >= 0: the exact Hessian is PSD on the interior, with
# no approximation needed.  hedged: the ml loss; its -beta log det rho is
# the barrier itself, with the path stopped at t = beta
_LIKELIHOOD = Loss(phi=lambda f, p, w: -f * np.log(p), d1=lambda f, p, w: -f / p,
                   d2=lambda f, p, w: f / p**2, power=2, observed=True, positive=True)
LOSSES = {
    "ml": _LIKELIHOOD,
    "ls": Loss(phi=lambda f, p, w: w * (f - p) ** 2, d1=lambda f, p, w: 2.0 * w * (p - f),
               d2=lambda f, p, w: 2.0 * w, power=0, observed=False, positive=False),
    "freels": Loss(phi=lambda f, p, w: (f - p) ** 2 / p, d1=lambda f, p, w: 1.0 - f**2 / p**2,
                   d2=lambda f, p, w: 2.0 * f**2 / p**3, power=3, observed=False,
                   positive=True),
    "hedged": _LIKELIHOOD,
}
PRINCIPLES = tuple(LOSSES)

# Stages before the last EXACT_STAGES stop at lambda^2 <= CENTERING * t, where
# fit/t + barrier has decrement 0.32 < (3 - sqrt 5)/2: Newton's quadratic region
CENTERING = 0.1
EXACT_STAGES = 2
# A held fit Hessian's row is re-weighted once its p has drifted from where
# it was weighted by more than LAG, or in an exact stage by more than
# LAG * min(1, lambda^2 / t): the chord contract of ``NewtonSystem``
LAG = 0.05
# The step length along a Newton ray stops once |h'(a)| <= RAY_CURVATURE
# |h'(0)| (the strong-Wolfe curvature test), after at most RAY_ITERATIONS
RAY_CURVATURE = 0.1
RAY_ITERATIONS = 50
# Backtracking from the ray's step multiplies it by LS_SHRINK until the trial
# is feasible and meets Armijo's test with LS_ALPHA (Nocedal & Wright,
# Numerical Optimization, 3.1); t falls by T_REDUCE from stage to stage
LS_ALPHA = 0.01
LS_SHRINK = 0.5
T_REDUCE = 10.0
# A fit Hessian's formation or refresh holds ROW_CHUNK rows of d doubles
# wherever a temporary would otherwise have as many rows as G: a third of
# them the rows of G that the overlap operator builds from its factors and
# syrk reads, weighted sqrt(phi''), two thirds the operator's scratch.  So
# no array the size of G is formed (671 MB at N = 30), and the chunk of a
# few hundred rows keeps syrk's inner dimension long enough for full speed
ROW_CHUNK = 512
# a fit Hessian's lower triangle is zeroed, and copied onto the upper one,
# in blocks of this many rows
MIRROR_ROWS = 64
# the corner triangle that receives _copy_triangle's copy from the lower one
_RECEIVES_FROM_LOWER = np.tri(MIRROR_ROWS, k=-1, dtype=bool).T
_RECEIVES_FROM_LOWER.setflags(write=False)


class NonConvergenceError(RuntimeError):
    """A Newton stage failed to reach the gradient tolerance."""


@dataclass(frozen=True)
class FitSpec:
    """Choice of fit principle with its parameters.

    ``weights`` (LS only) is a flat per-outcome array aligned with the
    dataset rows; None defers to the default rule
    w = 1/max(f, 1/(10*repetitions)) resolved at reconstruction time.
    ``beta`` (hedged only) is the strength of the log-det hedging term.
    """

    principle: str
    weights: np.ndarray | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.principle not in PRINCIPLES:
            raise ValueError(f"unknown principle {self.principle!r}")
        if self.weights is not None:
            if self.principle != "ls":
                raise ValueError("weights are only meaningful for least squares")
            w = np.asarray(self.weights, dtype=float)
            # the negated form also rejects NaN
            if not np.all((0.0 < w) & (w < math.inf)):
                raise ValueError("least-squares weights must be positive and finite")
            object.__setattr__(self, "weights", w)
        if self.principle == "hedged":
            # the negated form also rejects NaN
            if self.beta is None or not 0.0 < self.beta < math.inf:
                raise ValueError("hedged fit requires a finite beta > 0")
        elif self.beta is not None:
            raise ValueError("beta is only meaningful for the hedged principle")

    @classmethod
    def max_lik(cls) -> "FitSpec":
        return cls(principle="ml")

    @classmethod
    def least_squares(cls, weights=None) -> "FitSpec":
        return cls(principle="ls", weights=weights)

    @classmethod
    def free_least_squares(cls) -> "FitSpec":
        return cls(principle="freels")

    @classmethod
    def hedged(cls, beta: float) -> "FitSpec":
        return cls(principle="hedged", beta=beta)


@dataclass(frozen=True)
class SolverConfig:
    t0: float = 1.0
    t_min: float = 1e-10
    grad_tol: float = 1e-8
    max_newton_iters: int = 200
    strict: bool = False

    def __post_init__(self):
        for name in ("t0", "t_min", "grad_tol"):
            # the negated form also rejects NaN
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.t_min > self.t0:
            # t_schedule would start at t_min and drop t0 unannounced
            raise ValueError("t_min must not exceed t0")
        # a float budget such as NaN would never be reached
        if not isinstance(self.max_newton_iters, (int, np.integer)) or self.max_newton_iters < 1:
            raise ValueError("max_newton_iters must be an integer >= 1")


# ---------------------------------------------------------------------------
# Affine block maps and the log-det barrier
# ---------------------------------------------------------------------------


class BlockFactors:
    """The factors of every block of an ``AffineBlockMap`` at one point.

    ``chol`` (B, m, m) holds the lower Cholesky factors of the B
    Hermitian blocks, each padded with the identity to the largest size
    m and factored by one batched call; ``slacks`` holds the slack
    vectors of the diagonal blocks end to end.  Padding is exact: the
    factor of diag(rho, I) is diag(L, I), its inverse diag(L^-1, I) and
    diag(rho^-1, I) the inverse of the block, so log det, feasibility and
    the barrier along a ray are those of the blocks alone.  The
    triangular inverse ``inv_l`` and A = rho^-1 (``inverse``, one
    batched product) are formed on first use and shared by the
    barrier's derivatives and the ray eigenvalues.
    """

    def __init__(self, chol: np.ndarray, slacks: np.ndarray, log_det: float):
        self.chol = chol
        self.slacks = slacks
        self.log_det = log_det

    @functools.cached_property
    def inv_l(self) -> np.ndarray:
        """L^-1 by LAPACK's triangular inverse, one call per block: the
        batched LU inverse pivots rows and loses the componentwise
        accuracy that blocks near the boundary need."""
        out = np.empty_like(self.chol)
        for k, L in enumerate(self.chol):
            out[k] = ztrtri(L, lower=1)[0]
        return out

    @functools.cached_property
    def inverse(self) -> np.ndarray:
        """A = L^-dagger L^-1, made exactly Hermitian (real diagonal)."""
        A = np.swapaxes(self.inv_l.conj(), 1, 2) @ self.inv_l
        return 0.5 * (A + np.swapaxes(A.conj(), 1, 2))


class BlockHessian:
    """A barrier Hessian as the values ``data`` of its structurally
    non-zero upper entries (i <= l), in the order of their sorted flat
    positions ``positions`` in a C-ordered (dim, dim) matrix, the block
    kind's structure.  Writers find an entry's place there by ``_slots``;
    the strict lower triangle is the mirror and is not stored."""

    def __init__(self, positions: np.ndarray):
        self.positions = positions
        self.data = np.zeros(positions.size)

    def add_upper(self, W: np.ndarray, t: float) -> None:
        """Add t H to the upper triangle and diagonal of the C-ordered
        (dim, dim) W; its strict lower triangle is left as it is."""
        W.reshape(-1)[self.positions] += t * self.data


def _slots(positions: np.ndarray, rows, cols, dim: int) -> np.ndarray:
    """The places in the sorted ``positions`` of the Hessian entries
    (rows, cols), rows <= cols, which must be in the structure."""
    return np.searchsorted(positions, rows * dim + cols)


def _pair_slots(positions: np.ndarray, idx: np.ndarray, dim: int):
    """(a, l, slots) of the pairs idx[a] <= idx[l] of one block's
    distinct coordinates: the entries of a term over the block that the
    upper triangle holds, and their places in ``positions``."""
    a, l = np.nonzero(idx[:, None] <= idx)
    return a, l, _slots(positions, idx[a], idx[l], dim)


class _GellMannTables:
    """Flat index tables for ``Parametrization``'s blocks: they write the
    linear part sum_i x_i D_i of every block into the padded stack in
    O(n^2), and read the barrier gradient and Hessian off A = rho^-1 in
    O(n^4) per block.

    Block b (size n, Gell-Mann coordinates from ``offset``) has pair
    directions S_p = (E_rc + E_cr)/sqrt2 and Y_p = i(E_cr - E_rc)/sqrt2
    for the pairs p = (r, c) of ``np.triu_indices(n, 1)``, then diagonal
    directions diag(q) with q a column of its Q = [diagonal table,
    shift coefficients] (the ``Parametrization`` order).  With
    tr(A E_ab A E_cd) = A_bc A_da for matrix units (Fujisawa, Kojima &
    Nakata, Math. Program. 79, 235 (1997)):

        linear part  (x_S - i x_Y)/sqrt2 at (r, c), its conjugate at
                     (c, r); Q (x_diag, x_shift) on the diagonal
        gradient     -sqrt2 Re A_rc, sqrt2 Im A_rc; -Q^T diag(A)
        pair-pair    t1 = A_{c r'} A_{c' r}, t2 = A_{c c'} conj(A_{r r'}):
                     SS = Re(t1 + t2), SY = Im(t1 - t2),
                     YS = Im(t1 + t2), YY = Re(t2 - t1)
        pair-diag    Z = Y Q, Y_pk = A_ck conj(A_rk): sqrt2 Re Z, sqrt2 Im Z
        diag-diag    Q^T |A|^2 Q

    A sector's Gell-Mann coordinates couple only with themselves and
    with the trace shifts, so the Hessian is a ``BlockHessian`` whose
    ``positions`` are each sector block's upper triangle and the upper
    entries of the S shift columns.  The stack and A are identity-padded
    (B, m, m) stacks; every table indexes them, the gradient or the
    Hessian's ``data`` flat, so one evaluation makes a fixed number of
    numpy calls for any number of sectors.  Pair-pair terms are computed
    for p <= p', ``pair_slice`` terms at a time so that their temporaries
    stay below d^2 / 2 doubles, and each written once, at its upper
    entry: for p = p' the equal SY and YS both name (S_p, Y_p), and YS
    is written last.
    Diagonal-type terms are read off the symmetrized Gram matrix for
    columns k <= k', and shift x shift sums over sectors.  Pair slots run over
    ``np.triu_indices(m, 1)`` for every block: a slot outside block b
    reads only padding, where A is the identity, and gives zero.
    ``diag_coord`` reads block b's (x_diag, x_shift) out of x with a
    zero appended: a column of Q that block b lacks reads that zero.
    """

    def __init__(self, sizes, offsets, shift_coeff: np.ndarray, dim: int):
        B, m = len(sizes), max(sizes)
        S = shift_coeff.shape[1]
        K = m - 1 + S  # diagonal-type columns: m - 1 Gell-Mann, then S shifts
        self.shift0 = dim - S
        # the structure: the shift columns' upper entries, and each block's
        # upper triangle
        i, l = np.nonzero(np.arange(dim)[:, None] <= np.arange(self.shift0, dim))
        upper = [i * dim + self.shift0 + l]
        for n, offset in zip(sizes, offsets):
            i, l = np.triu_indices(n * n - 1)
            upper.append((offset + i) * dim + offset + l)
        positions = self.positions = np.sort(np.concatenate(upper))
        self.slot_rows, self.slot_cols = np.triu_indices(m, 1)
        table = _diagonal_table(m)  # block n reads its [:n, :n - 1] corner
        Q = np.zeros((B, m, K))
        diag_coord = np.full((B, K), dim, dtype=np.intp)
        pair_entry, pair_mirror, pair_coord, grad_src, grad_dst = [], [], [], [], []
        pp_src, pp_dst, pd_src, pd_dst, dd_src, dd_dst = [], [], [], [], [], []
        for b, (n, offset) in enumerate(zip(sizes, offsets)):
            Q[b, :n, : n - 1] = table[:n, : n - 1]
            Q[b, :n, m - 1 :] = shift_coeff[b]
            r, c = np.triu_indices(n, 1)
            P = r.size

            def entry(i, j, b=b):
                return (b * m + i) * m + j

            sym = offset + 2 * np.arange(P)  # Y_p is sym + 1
            pair_entry.append(entry(r, c))
            pair_mirror.append(entry(c, r))
            pair_coord.append(sym)
            # the valid diagonal-type columns of Q and their coordinates,
            # which increase with the column
            kcols = np.concatenate([np.arange(n - 1), m - 1 + np.arange(S)])
            coords = np.concatenate([offset + 2 * P + np.arange(n - 1),
                                     self.shift0 + np.arange(S)])
            diag_coord[b, kcols] = coords
            grad_src.append(b * K + kcols[: n - 1])
            grad_dst.append(coords[: n - 1])

            i, j = np.triu_indices(P)
            pp_src.append(np.stack([entry(c[i], r[j]), entry(c[j], r[i]),
                                    entry(c[i], c[j]), entry(r[i], r[j])]))
            rows = sym[i] + np.array([[0], [0], [1], [1]])
            cols = sym[j] + np.array([[0], [1], [0], [1]])
            pp_dst.append(_slots(positions, np.minimum(rows, cols), np.maximum(rows, cols), dim))

            slot = r * m - r * (r + 1) // 2 + c - r - 1  # (r, c) in triu(m, 1)
            p, k = np.repeat(np.arange(P), kcols.size), np.tile(np.arange(kcols.size), P)
            pd_src.append((b * self.slot_rows.size + slot[p]) * K + kcols[k])
            # a pair's coordinates precede every diagonal-type one
            pd_dst.append(_slots(positions, sym[p] + np.array([[0], [1]]), coords[k], dim))

            # shift x shift is summed over sectors apart
            k1, k2 = np.triu_indices(kcols.size)
            keep = k1 < n - 1
            dd_src.append((b * K + kcols[k1[keep]]) * K + kcols[k2[keep]])
            dd_dst.append(_slots(positions, coords[k1[keep]], coords[k2[keep]], dim))
        self.Q = Q
        self.Qc = Q.astype(complex)
        self.diag_coord = diag_coord
        self.diag_cols = m - 1  # first shift column of Q
        self.corner = np.triu_indices(S)
        self.corner_dst = _slots(positions, self.shift0 + self.corner[0],
                                 self.shift0 + self.corner[1], dim)

        def flat(parts, axis=-1):
            out = np.concatenate(parts, axis=axis).astype(np.intp)
            out.setflags(write=False)
            return out

        self.pair_entry, self.pair_mirror = flat(pair_entry), flat(pair_mirror)
        self.pair_coord = flat([np.stack([s, s + 1]) for s in pair_coord])
        self.grad_src, self.grad_dst = flat(grad_src), flat(grad_dst)
        self.pp_src, self.pp_dst = flat(pp_src), flat(pp_dst)
        # pair-pair terms are formed this many at a time: a slice's
        # temporaries (about 64 bytes a term) then stay below d^2 / 2
        # doubles, and every layout but N = 2 (two slices) up to N = 30
        # needs one slice
        self.pair_slice = max(1, dim * dim // 16)
        self.pd_src, self.pd_dst = flat(pd_src), flat(pd_dst)
        self.dd_src, self.dd_dst = flat(dd_src), flat(dd_dst)

    def write(self, x: np.ndarray, stack: np.ndarray) -> None:
        """Add sum_i x_i D_i of every block into the C-contiguous stack."""
        s, y = x[self.pair_coord] * (1.0 / math.sqrt(2.0))
        upper = s - 1j * y
        flat = stack.reshape(-1)
        flat[self.pair_entry] += upper
        flat[self.pair_mirror] += upper.conj()
        diag = np.einsum("bmk,bk->bm", self.Q, np.append(x, 0.0)[self.diag_coord])
        B, m, _ = stack.shape
        stack.reshape(B, m * m)[:, :: m + 1] += diag

    def gradient(self, A: np.ndarray, grad: np.ndarray) -> None:
        """Add -tr(A D_i) over every block's directions into ``grad``."""
        a = A.reshape(-1)[self.pair_entry]
        grad[self.pair_coord] -= math.sqrt(2.0) * np.stack([a.real, -a.imag])
        diag = np.einsum("bkk,bkK->bK", A, self.Q).real
        grad[self.grad_dst] -= diag.reshape(-1)[self.grad_src]
        grad[self.shift0 :] -= diag[:, self.diag_cols :].sum(axis=0)

    def gradient_hessian(self, A: np.ndarray, grad: np.ndarray, hess: BlockHessian) -> None:
        """``gradient`` into ``grad``, then ``hessian`` into ``hess``."""
        self.gradient(A, grad)
        self.hessian(A, hess)

    def hessian(self, A: np.ndarray, hess: BlockHessian) -> None:
        """Write tr(A D_i A D_l) over every block's directions into the
        zero ``hess`` of ``positions``, each upper entry once but
        (S_p, Y_p), which the pair p = p' names twice; shift x shift sums
        over sectors."""
        flat, a = hess.data, A.reshape(-1)
        src, dst = self.pp_src, self.pp_dst
        for start in range(0, src.shape[1], self.pair_slice):
            part = slice(start, start + self.pair_slice)
            t1 = a[src[0, part]]
            t1 *= a[src[1, part]]
            t2 = a[src[2, part]]
            t2 *= a[src[3, part]].conj()
            # SY before YS: for p = p' both name (S_p, Y_p), and YS stays
            flat[dst[0, part]] = t1.real + t2.real
            flat[dst[1, part]] = t1.imag - t2.imag
            flat[dst[2, part]] = t1.imag + t2.imag
            flat[dst[3, part]] = t2.real - t1.real
        Y = A[:, self.slot_cols, :]
        Y *= A[:, self.slot_rows, :].conj()
        z = (Y @ self.Qc).reshape(-1)[self.pd_src]
        flat[self.pd_dst] = math.sqrt(2.0) * np.stack([z.real, z.imag])
        W = np.swapaxes(self.Q, 1, 2) @ (A.real**2 + A.imag**2) @ self.Q
        W = 0.5 * (W + np.swapaxes(W, 1, 2))
        flat[self.dd_dst] = W.reshape(-1)[self.dd_src]
        flat[self.corner_dst] = W[:, self.diag_cols :, self.diag_cols :].sum(axis=0)[self.corner]


def _distinct(indices) -> None:
    if any(np.unique(i).size != i.size for i in indices):
        raise ValueError("a block's direction indices must be distinct")


class RankOneBlocks:
    """Hermitian blocks whose every direction is rank one: coordinate
    ``indices[b][i]`` enters block b as w_i v_i v_i^dagger, with v_i
    column i of ``columns[b]`` (n_b, q_b) and real w_i = ``weights[b][i]``.

    Since tr(A v v^dagger) = v^dagger A v, the linear part is
    V diag(w x) V^dagger, the barrier gradient -w_i Re(v_i^dagger A v_i)
    and the Hessian w_i w_l |v_i^dagger A v_l|^2, all from V^dagger A V
    (the rank-one constraint handling of DSDP: Benson, Ye & Zhang, SIAM
    J. Optim. 10, 443 (2000)).  The columns are stored zero-padded as one
    (B, m, q) stack beside the identity-padded blocks; a padding column
    has weight 0 and the index ``dim``, which reads a zero appended to
    x.  The derivatives are formed block by block on the unpadded
    columns, from one M = V^dagger A V per block that serves gradient
    and Hessian alike, since padding would multiply its O(q_b^2 n_b)
    work by up to (q/q_b)^2 (m/n_b); each block's term is symmetrized
    and added in block order, so the Hessian is exactly symmetric, and
    the gradient is the same with or without it, bit for bit.  Any two
    coordinates may share a block, so the Hessian's ``positions`` are
    the whole upper triangle; each block writes the pairs of its
    coordinates idx_a <= idx_l (``_pair_slots``).
    """

    def __init__(self, columns, weights, indices, dim: int):
        indices = [np.asarray(i, dtype=np.intp) for i in indices]
        _distinct(indices)
        self.dim = int(dim)
        self._shapes = [(np.shape(V)[0], i.size) for V, i in zip(columns, indices)]
        B = len(indices)
        m = max((n for n, _ in self._shapes), default=0)
        q = max((k for _, k in self._shapes), default=0)
        self.columns = np.zeros((B, m, q), dtype=complex)
        self.weights = np.zeros((B, q))
        self.indices = np.full((B, q), self.dim, dtype=np.intp)
        for b, (V, w, idx) in enumerate(zip(columns, weights, indices)):
            n, k = self._shapes[b]
            self.columns[b, :n, :k] = V
            self.weights[b, :k] = w
            self.indices[b, :k] = idx
        rows, cols = np.triu_indices(self.dim)
        self.positions = rows * self.dim + cols
        self._pairs = [_pair_slots(self.positions, idx, self.dim) for idx in indices]

    def write(self, x: np.ndarray, stack: np.ndarray) -> None:
        """Add sum_i x_i w_i v_i v_i^dagger of every block into the stack."""
        wx = self.weights * np.append(x, 0.0)[self.indices]
        stack += (self.columns * wx[:, None, :]) @ np.swapaxes(self.columns.conj(), 1, 2)

    def _forms(self, A: np.ndarray):
        """(indices, w, M = V^dagger A V, ``_pair_slots``) of every block."""
        for b, ((n, k), pairs) in enumerate(zip(self._shapes, self._pairs)):
            V = self.columns[b, :n, :k]
            M = V.conj().T @ (A[b, :n, :n] @ V)
            yield self.indices[b, :k], self.weights[b, :k], M, pairs

    def gradient(self, A: np.ndarray, grad: np.ndarray) -> None:
        """Add -w_i Re(v_i^dagger A v_i) over every block into ``grad``."""
        for idx, w, M, _ in self._forms(A):
            grad[idx] -= w * M.diagonal().real

    def gradient_hessian(self, A: np.ndarray, grad: np.ndarray, hess: BlockHessian) -> None:
        """``gradient`` into ``grad``, and w_i w_l |v_i^dagger A v_l|^2
        over every block into ``hess``, from the same M."""
        flat = hess.data
        for idx, w, M, (a, l, slots) in self._forms(A):
            grad[idx] -= w * M.diagonal().real
            W = (M.real**2 + M.imag**2) * np.outer(w, w)
            flat[slots] += (0.5 * (W + W.T))[a, l]


class _Blocks(list):
    """The blocks of ``AffineBlockMap.blocks``, with the padded stack
    ``stack`` that its Hermitian blocks ``views`` view: while those
    entries are still the views, ``cholesky_list`` factors the stack
    itself instead of copying them into a new one."""

    def __init__(self, blocks, stack: np.ndarray):
        super().__init__(blocks)
        self.stack = stack
        self.views = tuple(blocks[: len(stack)])


class AffineBlockMap:
    """x -> the Hermitian blocks C_b + sum_i x_i D_i, then the diagonal
    blocks, over three block kinds.

    The Hermitian blocks have constants ``constants[b]`` (n_b, n_b) and
    directions of one kind, ``directions``: Gell-Mann blocks
    (``_GellMannTables``, built by ``Parametrization``) or rank-one
    blocks (``RankOneBlocks``).  Either kind writes its linear part into
    the identity-padded (B, m, m) stack that ``cholesky_list`` factors,
    and reads the barrier gradient and Hessian off the padded
    A = rho^-1 of ``BlockFactors``.  The third kind is the diagonal
    block (c, D, idx) of ``diagonal``: a real constant c (s,) and real
    directions D (q, s) on the coordinates idx.  It stands for s scalar
    slacks c + D^T x[idx], feasible iff every one is > 0, with barrier
    -sum log (a linear-programming block beside the semidefinite ones).
    A coordinate may enter several blocks, but at most once per block.
    The barrier Hessian has the kind's ``positions``; every coordinate of
    a diagonal block must be a border coordinate there, one that couples
    with every coordinate (the trace shifts of the Gell-Mann kind, and
    every coordinate of the rank-one kind).
    """

    def __init__(self, constants, directions, diagonal, dim):
        self.dim = int(dim)
        self.directions = directions
        self._sizes = [np.shape(c)[0] for c in constants]
        m = max(self._sizes, default=0)
        # the constants padded with the identity, the stack every point starts from
        self._base = np.tile(np.eye(m, dtype=complex), (len(self._sizes), 1, 1))
        for k, (c, n) in enumerate(zip(constants, self._sizes)):
            self._base[k, :n, :n] = c
        self._base.setflags(write=False)
        self.constants = [self._base[k, :n, :n] for k, n in enumerate(self._sizes)]
        self.diagonal = [
            (np.ascontiguousarray(c, dtype=float), np.ascontiguousarray(D, dtype=float),
             np.asarray(idx, dtype=np.intp))
            for c, D, idx in diagonal
        ]
        _distinct([idx for _, _, idx in self.diagonal])
        # a border coordinate couples with every coordinate: its row and
        # column hold dim + 1 positions, the diagonal counted twice
        rows, cols = np.divmod(directions.positions, self.dim)
        coupled = np.bincount(rows, minlength=self.dim) + np.bincount(cols, minlength=self.dim)
        if any(np.any(coupled[idx] != self.dim + 1) for _, _, idx in self.diagonal):
            raise ValueError("a diagonal block's coordinates must be border coordinates")
        self._slack_pairs = [_pair_slots(directions.positions, idx, self.dim)
                             for _, _, idx in self.diagonal]
        ends = np.cumsum([c.size for c, _, _ in self.diagonal], dtype=int)
        self._slack_ranges = [slice(e - c.size, e) for (c, _, _), e in zip(self.diagonal, ends)]

    def _linear_stack(self, v: np.ndarray) -> np.ndarray:
        """sum_i v_i D_i of the Hermitian blocks as one zero-padded stack."""
        stack = np.zeros_like(self._base)
        self.directions.write(v, stack)
        return stack

    def blocks(self, x: np.ndarray) -> "_Blocks":
        """The Hermitian blocks at x, then the diagonal blocks' slacks: a
        list whose Hermitian blocks are views of one identity-padded stack,
        which it carries to ``cholesky_list``."""
        stack = self._base.copy()
        self.directions.write(x, stack)
        return _Blocks([stack[k, :n, :n] for k, n in enumerate(self._sizes)]
                       + [c + x[idx] @ D for c, D, idx in self.diagonal], stack)

    def ray_eigenvalues(self, chols: BlockFactors, delta: np.ndarray) -> np.ndarray:
        """Eigenvalues mu of the step delta relative to each block, from
        the factors at x: eig(L^-1 Delta L^-dagger) for a Hermitian block
        with factor L and step Delta = sum_i delta_i D_i, Delta s / s for
        a diagonal block.  Along the ray the barrier is then exact,
        -log det(x + a delta) = -log det(x) - sum log(1 + a mu), and
        feasible iff a < 1 / max(-mu).  The Hermitian blocks come first,
        m per block from one batched eigvalsh of the padded stack; each
        padding row adds an exact mu = 0, which changes neither."""
        inv_l = chols.inv_l
        relative = inv_l @ self._linear_stack(delta) @ np.swapaxes(inv_l.conj(), 1, 2)
        diagonal = [delta[idx] @ D for _, D, idx in self.diagonal]
        return np.concatenate(
            [np.linalg.eigvalsh(relative).ravel(),
             np.concatenate(diagonal) / chols.slacks if diagonal else []]
        )

    def cholesky_list(self, blocks) -> BlockFactors | None:
        """The ``BlockFactors`` of the blocks (as ``blocks`` orders them),
        or None if any block is not positive definite or has a NaN or
        infinite pivot.  The padding's unit pivots never hide a failing
        block.  Blocks from ``blocks`` are factored in the stack they
        view (an edit of a block in place is an edit of the stack); any
        other list is copied into a fresh padded stack."""
        stack = getattr(blocks, "stack", None)
        if stack is None or any(b is not v for b, v in zip(blocks, blocks.views)):
            stack = self._base.copy()  # identity padding; every block is overwritten
            for k, n in enumerate(self._sizes):
                stack[k, :n, :n] = blocks[k]
        try:
            chol = np.linalg.cholesky(stack)
        except np.linalg.LinAlgError:
            return None
        slacks = np.concatenate(blocks[len(self._sizes) :] or [np.zeros(0)])
        diag = chol.diagonal(0, 1, 2).real
        pivots = np.concatenate([diag.ravel(), slacks])
        # LAPACK passes NaN through; NaN fails both comparisons
        if not np.all((pivots > 0.0) & (pivots < np.inf)):
            return None
        log_det = 2.0 * float(np.log(diag).sum()) + float(np.log(slacks).sum())
        return BlockFactors(chol, slacks, log_det)

    @staticmethod
    def barrier_value(chols: BlockFactors) -> float:
        """-sum_b log det(block_b) from the factors."""
        return -chols.log_det

    def _slack_rows(self, chols: BlockFactors):
        """(indices, D / s) of each diagonal block with slacks s."""
        for (_, D, idx), part in zip(self.diagonal, self._slack_ranges):
            yield idx, D / chols.slacks[part]

    def _gradient(self, chols: BlockFactors) -> np.ndarray:
        """grad_i = -sum_b tr(block^-1 D_i), from A = rho^-1 for the
        Hermitian blocks and D / s for a diagonal one."""
        grad = np.zeros(self.dim)
        self.directions.gradient(chols.inverse, grad)
        for idx, C in self._slack_rows(chols):
            grad[idx] -= C.sum(axis=1)
        return grad

    def barrier_grad_hess(self, chols: BlockFactors):
        """(value, gradient, Hessian) of -sum_b log det(block_b), the
        Hessian a ``BlockHessian`` of the kind's ``positions``.

        grad_i = -sum_b tr(block^-1 D_i), hess_il = sum_b tr(block^-1 D_i
        block^-1 D_l): the Hermitian blocks' kind reads both off
        A = rho^-1, and a diagonal block with slacks s adds C = D / s and
        the entries (C C^T)[a, l], idx_a <= idx_l, of its Hessian.
        """
        grad = np.zeros(self.dim)
        hess = BlockHessian(self.directions.positions)
        self.directions.gradient_hessian(chols.inverse, grad, hess)
        for (idx, C), (a, l, slots) in zip(self._slack_rows(chols), self._slack_pairs):
            grad[idx] -= C.sum(axis=1)
            hess.data[slots] += (C @ C.T)[a, l]
        return -chols.log_det, grad, hess

    def barrier_grad(self, chols: BlockFactors):
        """(value, gradient) of the barrier without the Hessian; both are
        those of ``barrier_grad_hess``, bit for bit."""
        return -chols.log_det, self._gradient(chols)


def _diagonal_table(n: int) -> np.ndarray:
    """(n, n-1) diagonals of the n-1 diagonal Gell-Mann matrices of size n."""
    table = np.zeros((n, n - 1))
    for l in range(1, n):
        scale = 1.0 / math.sqrt(l * (l + 1))
        table[:l, l - 1] = scale
        table[l, l - 1] = -l * scale
    return table


class Parametrization:
    """Orthonormal affine coordinates on unit-trace PI states.

    d = sum_j (2j+1)^2 - 1 real coordinates; x = 0 is the compressed
    maximally mixed state.  Sector b reads the coordinates
    ``indices[b]``: its own n^2 - 1 Gell-Mann ones, then every trace
    shift.  ``centre`` is the analytic centre of the barrier
    -sum_j log det rho_j: the state whose blocks are all I/D, with
    D = ``compressed_dim``, where every block's rho^-1 = D I and so every
    traceless direction's barrier gradient vanishes.  It is zero but in
    the trace shifts, and exactly zero for N <= 2, where base is I/D.
    Every array it holds is read-only, so one instance can serve every
    fit on its layout (``_shared_parametrization``).
    """

    def __init__(self, layout: SpinSectorLayout):
        self.layout = layout
        dims = [t + 1 for t in layout.two_j_values]
        n_sectors = len(dims)
        gg_counts = [d * d - 1 for d in dims]
        gg_offsets = np.concatenate([[0], np.cumsum(gg_counts)])
        self.dimension = int(gg_offsets[-1]) + (n_sectors - 1)
        shift_ids = np.arange(int(gg_offsets[-1]), self.dimension)

        # trace-shift directions: diagonal c_{s,b} * I_{n_b} blocks,
        # orthonormal under Frobenius and orthogonal to the global trace
        if n_sectors > 1:
            sqrtn = np.sqrt(np.asarray(dims, dtype=float))
            u = sqrtn / np.linalg.norm(sqrtn)
            Q, _ = np.linalg.qr(np.column_stack([u, np.eye(n_sectors)]))
            shift_coeff = Q[:, 1:n_sectors] / sqrtn[:, None]  # (sector, shift)
        else:
            shift_coeff = np.zeros((1, 0))
        self.shift_coeff = shift_coeff
        self.indices = [
            np.concatenate([np.arange(gg_offsets[b], gg_offsets[b + 1]), shift_ids]).astype(np.intp)
            for b in range(n_sectors)
        ]
        # the analytic centre of -sum_j log det rho_j on unit trace: every
        # block I/D.  It differs from base (multiplicity/2^N per block) by a
        # multiple of I per block, so only the trace shifts move
        scale = [1.0 / layout.compressed_dim - layout.multiplicity(t) / 2**layout.n_qubits
                 for t in layout.two_j_values]
        self.centre = np.zeros(self.dimension)
        self.centre[shift_ids] = (np.asarray(dims) * np.asarray(scale)) @ shift_coeff
        base = maximally_mixed_ensemble(layout)
        tables = _GellMannTables(dims, gg_offsets[:-1], shift_coeff, self.dimension)
        self.affine = AffineBlockMap([base.blocks[t] for t in layout.two_j_values],
                                     tables, [], self.dimension)
        # read-only: ``build_fit_model`` shares one instance per layout
        for array in (shift_coeff, self.centre, tables.Q, tables.Qc, tables.slot_rows,
                      tables.slot_cols, tables.diag_coord, tables.positions,
                      *tables.corner, tables.corner_dst, *self.indices):
            array.setflags(write=False)

    def blocks(self, x: np.ndarray) -> dict[int, np.ndarray]:
        mats = self.affine.blocks(x)
        return dict(zip(self.layout.two_j_values, mats))

    def ensemble(self, x: np.ndarray) -> SpinEnsemble:
        return SpinEnsemble(layout=self.layout, blocks=self.blocks(x))

    def coordinates(self, ensemble: SpinEnsemble) -> np.ndarray:
        """Coordinates of an ensemble: x_i = tr((rho - base) B_i), the
        adjoint of the directions' ``write``.  Their ``gradient`` adds
        -tr(A D_i), here at the zero-padded stack A = rho - base."""
        if ensemble.layout != self.layout:
            raise ValueError("ensemble layout does not match parametrization")
        delta = np.zeros_like(self.affine._base)
        for k, (two_j, C) in enumerate(zip(self.layout.two_j_values, self.affine.constants)):
            delta[k, : two_j + 1, : two_j + 1] = ensemble.blocks[two_j] - C
        x = np.zeros(self.dimension)
        self.affine.directions.gradient(delta, x)
        return -x

    @functools.cached_property
    def multipoles(self) -> "_Multipoles":
        """The setting-independent factors of the overlap table G, built
        on first use: every ``Overlap`` on this instance shares them."""
        return _Multipoles(self)

    def basis_element(self, i: int) -> dict[int, np.ndarray]:
        """Materialize basis direction B_i as a block dictionary."""
        if not 0 <= i < self.dimension:
            raise IndexError(f"basis index {i} outside 0..{self.dimension - 1}")
        unit = np.zeros(self.dimension)
        unit[i] = 1.0
        stack = self.affine._linear_stack(unit)
        return {two_j: stack[k, : two_j + 1, : two_j + 1].copy()
                for k, two_j in enumerate(self.layout.two_j_values)}


@functools.lru_cache(maxsize=4)
def _shared_parametrization(layout: SpinSectorLayout) -> Parametrization:
    """The ``Parametrization`` of a layout, built once: it depends on
    nothing else, and its arrays are read-only."""
    return Parametrization(layout)


# ---------------------------------------------------------------------------
# The overlap operator
# ---------------------------------------------------------------------------


def _tensor_lines(two_j: int) -> list[np.ndarray]:
    """The spherical tensor operators T_LM, M >= 0, of sector ``two_j``
    by their one non-zero line: entry i of column L - M of ``lines[M]`` is
    T_LM[i, i + M] (basis m = j - i), for L = M..2j, each real and of
    unit norm.

    On the matrices of offset M, [J_+, .] is a bidiagonal map E_M to
    offset M + 1, and T_LM is the eigenvector of E_M^T E_M = [J_-, [J_+, .]]
    of eigenvalue L(L+1) - M(M+1).  Each has a positive first entry
    T_LM[0, M], proportional to <j, j-M; L M | j, j>, whose sign is (-1)^M
    for the standard tensors (Condon-Shortley) whatever j and L.  So every
    sector's T_LM are the standard ones times the same signs (-1)^M, and
    rotate by one and the same D^L, up to those signs.  T_L0's entries are
    the Clebsch-Gordan coefficients <j m; L 0 | j m> up to one norm
    (Varshalovich, Moskalev & Khersonskii, Quantum Theory of Angular
    Momentum (1988)).
    """
    n = two_j + 1
    a = spin_operators(two_j).j_minus.real.diagonal(-1)  # a_i = J_+[i, i + 1]
    lines = []
    for M in range(n):
        i = np.arange(n - M - 1)
        E = np.zeros((n - M - 1, n - M))
        E[i, i + 1] = a[i]
        E[i, i] = -a[i + M]
        V = np.linalg.eigh(E.T @ E)[1]  # eigenvalues ascend with L
        lines.append(V * np.sign(V[0]))
    return lines


class _Multipoles:
    """The setting-independent factors of a ``Parametrization``'s overlap
    table G (``Parametrization.multipoles``, built once per instance).

    In sector j the real spherical tensor coordinates of a Hermitian A
    are <T_L0, A> and, for M > 0, sqrt2 <T_LM, Re A> and -sqrt2 <T_LM, Im A>
    (``_tensor_lines``), at lm = L^2, L^2 + 2M - 1 and L^2 + 2M.  B maps
    the sector's Gell-Mann coordinates to those with L >= 1.  It is
    orthogonal and block-diagonal: one block per sector and |M|, the same
    for the pair directions S and Y, n_j - |M| square (n_j - 1 for M = 0),
    sum_M (n_j - |M|)^2 - 1 entries per sector.  By Wigner-Eckart, the
    coordinates of outcome k's block R_a |j,m><j,m| R_a^dagger, m = k - N/2,
    are C_j[m, L] Y_lm(a), with ``coefficients`` (N+1, K) holding
    C_j[m, L] = T_L0[m, m] at column K_j + L (K = sum_j n_j, zero where
    |m| > j) and Y_lm(a) the real harmonics of the axis (``_harmonics``).

    ``table`` places x's tensor coordinates in a (K, (N+1)^2) table at
    (K_j + L, lm): B x, and each trace shift on the T_00 = I / sqrt(n_j) of
    every sector, by the (place, coordinate, value) ``entries``;
    ``coordinates`` is its transpose.  ``blocks`` holds B's transposed
    blocks grouped by size, each group (Q, start, stop) the stack Q of
    blocks whose tensor coordinates come start:stop in block order;
    ``columns`` (d', N+1) is C of each of them in that order, ``lm`` its
    lm - 1 (its column of Y without Y_00), and ``inverse`` puts the
    Gell-Mann coordinates back from that order.  The trace shifts'
    columns of G, ``shifts`` (N+1, shifts), do not depend on the
    setting: tr(c I M) = c.
    """

    def __init__(self, parametrization: "Parametrization"):
        layout = parametrization.layout
        n_out = layout.n_qubits + 1
        sizes = [t + 1 for t in layout.two_j_values]
        self.shift0 = sum(n * n - 1 for n in sizes)
        self.shifts = np.zeros((n_out, len(sizes) - 1))
        self.coefficients = np.zeros((n_out, sum(sizes)))
        groups = {}  # size -> [(Gell-Mann coordinates, tensor coordinates, block)]
        lm, jl = np.empty(self.shift0, dtype=np.intp), np.empty(self.shift0, dtype=np.intp)
        offset = first = 0
        for n, coeff in zip(sizes, parametrization.shift_coeff):
            lines = _tensor_lines(n - 1)
            k = (n - 1 + layout.n_qubits) // 2 - np.arange(n)  # outcome of basis index i
            self.coefficients[k, first : first + n] = lines[0]
            self.shifts[k] += coeff
            own = slice(offset, offset + n * n - 1)
            lm[own] = np.arange(1, n * n)
            jl[own] = first + np.repeat(np.arange(n), 2 * np.arange(n) + 1)[1:]
            # pair p = (r, c) of np.triu_indices(n, 1) has S, Y at 2p, 2p + 1;
            # those of offset M = c - r have r = 0..n-M-1 in increasing p
            r, c = np.triu_indices(n, 1)
            for M in range(1, n):
                p = np.flatnonzero(c - r == M)
                for sigma in (0, 1):
                    groups.setdefault(n - M, []).append(
                        (offset + 2 * p + sigma, offset + np.arange(M, n) ** 2 + 2 * M - 2 + sigma,
                         lines[M]))
            if n > 1:
                groups.setdefault(n - 1, []).append(
                    (offset + 2 * r.size + np.arange(n - 1), offset + np.arange(1, n) ** 2 - 1,
                     _diagonal_table(n).T @ lines[0][:, 1:]))
            offset += n * n - 1
            first += n
        self.blocks, order, gell_mann, rows, cols, vals = [], [], [], [], [], []
        start = 0
        for size in sorted(groups):
            gm, tensor, Q = (np.stack(part) for part in zip(*groups[size]))
            self.blocks.append((Q, start, start + gm.size))
            start += gm.size
            order.append(tensor.ravel())
            gell_mann.append(gm.ravel())
            # B[tensor[b, l], gm[b, i]] = Q[b, i, l]
            rows.append(np.broadcast_to(tensor[:, None, :], Q.shape).ravel())
            cols.append(np.broadcast_to(gm[:, :, None], Q.shape).ravel())
            vals.append(Q.ravel())
        order, gell_mann = np.concatenate(order), np.concatenate(gell_mann)
        self.inverse = np.empty_like(gell_mann)
        self.inverse[gell_mann] = np.arange(gell_mann.size)
        rows, cols, vals = (np.concatenate(part) for part in (rows, cols, vals))
        # the trace shift s enters sector j's T_00 = I / sqrt(n_j) as sqrt(n_j) c[j, s]
        first = np.cumsum([0] + sizes[:-1]) * n_out**2
        self.entries = (
            np.concatenate([(jl * n_out**2 + lm)[rows], np.repeat(first, len(sizes) - 1)]),
            np.concatenate([cols, np.tile(self.shift0 + np.arange(len(sizes) - 1), len(sizes))]),
            np.concatenate([vals, (np.sqrt(sizes)[:, None] * parametrization.shift_coeff).ravel()]))
        self.lm = lm[order] - 1
        self.columns = np.ascontiguousarray(self.coefficients.T[jl[order]])
        # read-only: every ``Overlap`` on the parametrization shares them
        for array in self._arrays():
            array.setflags(write=False)

    def _arrays(self) -> list[np.ndarray]:
        return [self.shifts, self.coefficients, self.inverse, self.lm, self.columns,
                *self.entries, *(Q for Q, _, _ in self.blocks)]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self._arrays())

    def table(self, x: np.ndarray) -> np.ndarray:
        """The (K, (N+1)^2) table of x's tensor coordinates: B x, and the
        trace shifts on each sector's T_00, each at its (j, L) and lm."""
        places, coordinates, values = self.entries
        size = self.coefficients.shape[1] * self.shifts.shape[0] ** 2
        return np.bincount(places, weights=values * x[coordinates], minlength=size).reshape(
            self.coefficients.shape[1], -1)

    def coordinates(self, table: np.ndarray) -> np.ndarray:
        """The transpose of ``table``: x from a (K, (N+1)^2) table."""
        places, coordinates, values = self.entries
        return np.bincount(coordinates, weights=values * table.reshape(-1)[places],
                           minlength=self.shift0 + self.shifts.shape[1])


def _harmonics(axes: np.ndarray, n: int) -> np.ndarray:
    """Y^T (n^2, S), n = N + 1: column a holds the real harmonics Y_lm of
    the unit axis ``axes[a]``, the real spherical tensor coordinates
    (``_Multipoles``) of R_a T_L0 R_a^dagger, at lm = L^2 for M = 0 and
    L^2 + 2M - 1, L^2 + 2M for M > 0.  With z = a_z, rho = hypot(a_x, a_y)
    and phi = atan2(a_y, a_x), they are Pbar_L^0 and sqrt2 Pbar_L^M
    cos(M phi), sqrt2 Pbar_L^M sin(M phi), where
    Pbar_L^M = sqrt((L-M)!/(L+M)!) P_L^M(z) without the Condon-Shortley
    phase.  Pbar runs up the stable recurrence in L (Abramowitz & Stegun
    8.5.3, normalized) from Pbar_L^L = Pbar_{L-1}^{L-1} rho
    sqrt((2L-1)/(2L)), Pbar_0^0 = 1, every M of a degree at once, and
    each degree fills its rows of Y^T whole."""
    x, y, z = axes.T
    rho, angle = np.hypot(x, y), np.arange(1, n)[:, None] * np.arctan2(y, x)
    cos, sin = math.sqrt(2.0) * np.cos(angle), math.sqrt(2.0) * np.sin(angle)
    Y = np.empty((n * n, z.size))
    # rows M of Pbar_{L-2}^M and Pbar_{L-1}^M, zero where M exceeds the degree
    older, last = np.zeros((n, z.size)), np.zeros((n, z.size))
    last[0] = 1.0
    for L in range(n):
        if L:
            M = np.arange(L)[:, None]
            older[:L] = ((2 * L - 1) * z * last[:L] - np.sqrt((L - 1) ** 2 - M * M) * older[:L]
                         ) / np.sqrt(L * L - M * M)
            older[L] = last[L - 1] * rho * math.sqrt((2 * L - 1) / (2 * L))
            older, last = last, older
        Y[L * L] = last[0]
        Y[L * L + 1 : (L + 1) ** 2 : 2] = last[1 : L + 1] * cos[:L]
        Y[L * L + 2 : (L + 1) ** 2 : 2] = last[1 : L + 1] * sin[:L]
    return Y


class Overlap:
    """The overlap table G of a ``Parametrization`` and a list of
    ``settings``, p = p0 + G x over the rows (setting, outcome), held as its
    factors: G = [C Y B, shift columns] with C and B the parametrization's
    ``_Multipoles`` and Y (S, (N+1)^2) the real harmonics of the settings'
    axes (``_harmonics``).  No product forms G: ``matvec`` G x and
    ``rmatvec`` G^T v are each two small gemms and one sparse map
    (``_Multipoles.table``), and ``rows`` builds the rows a refresh
    re-weights.  ``shape`` is G's, and ``nbytes`` the factors' bytes.
    """

    def __init__(self, parametrization: "Parametrization", settings):
        self.settings = tuple(settings)
        self.multipoles = parametrization.multipoles
        table = _harmonics(np.array([s.axis for s in self.settings]),
                           parametrization.layout.n_qubits + 1)
        table.setflags(write=False)
        # the transpose of the C-ordered Y^T, whose rows ``rows`` gathers from
        self.harmonics = table.T
        self.shape = (len(self.settings) * self.multipoles.coefficients.shape[0],
                      parametrization.dimension)

    @property
    def nbytes(self) -> int:
        return self.harmonics.nbytes + self.multipoles.nbytes

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """G x: x's table of tensor coordinates, times C on the left and Y
        on the right (Y_00 = 1 carries the trace shifts)."""
        m = self.multipoles
        return (self.harmonics @ (m.coefficients @ m.table(x)).T).reshape(-1)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """G^T v, the transpose of ``matvec`` step by step."""
        m = self.multipoles
        v = v.reshape(-1, m.shifts.shape[0])
        return m.coordinates(m.coefficients.T @ (v.T @ self.harmonics))

    def rows(self, index: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
        """Write the rows ``index`` of G as the columns of the C-ordered
        (d, index.size) ``out``, with 2 (d - shifts) index.size doubles of
        ``work`` as scratch: the coordinates C[k] * Y[a] of each row, in
        block order, mapped block by block through B^T, then put in
        Gell-Mann order, and the shift columns of outcome k."""
        m = self.multipoles
        n = index.size
        setting, outcome = np.divmod(index, m.shifts.shape[0])
        X, O = work[: 2 * m.shift0 * n].reshape(2, m.shift0, n)
        # mode="clip" gathers straight into ``out=`` ("raise" would buffer
        # the gather in a temporary first); every index is in range
        harmonics = self.harmonics.T[1:]
        np.take(np.take(harmonics, setting, axis=1, out=O[: len(harmonics)], mode="clip"),
                m.lm, axis=0, out=X, mode="clip")
        X *= np.take(m.columns, outcome, axis=1, out=O, mode="clip")
        for Q, start, stop in m.blocks:
            np.matmul(Q, X[start:stop].reshape(len(Q), -1, n),
                      out=O[start:stop].reshape(len(Q), -1, n))
        np.take(O, m.inverse, axis=0, out=out[: m.shift0], mode="clip")
        out[m.shift0 :] = m.shifts[outcome].T


# ---------------------------------------------------------------------------
# Fit functions
# ---------------------------------------------------------------------------


def fit_value(spec: FitSpec, frequencies, probabilities) -> float:
    """Evaluate a fit principle on flat frequency/probability arrays.

    For the hedged principle this is the likelihood part only (the
    log-det term needs a state, not just a distribution).  Raises on
    non-interior input: p <= 0 where the principle needs 1/p or log p.
    """
    f = np.asarray(frequencies, dtype=float).ravel()
    p = np.asarray(probabilities, dtype=float).ravel()
    if f.shape != p.shape:
        raise ValueError("frequencies and probabilities differ in length")
    w = _weights(spec, f)
    loss = LOSSES[spec.principle]
    rows = loss.rows(f)
    loss.check_interior(p[rows])
    return float(np.sum(loss.phi(f[rows], p[rows], None if w is None else w[rows])))


def _weights(spec: FitSpec, f: np.ndarray) -> np.ndarray | None:
    """The spec's LS weights, None for the other principles; raises if
    they are unresolved or do not match the frequencies f."""
    if spec.principle == "ls" and spec.weights is None:
        raise ValueError("least-squares weights unresolved; pass them explicitly")
    if spec.weights is not None and spec.weights.shape != f.shape:
        raise ValueError("weights length does not match frequencies")
    return spec.weights


def resolve_least_squares_weights(frequencies, repetitions) -> np.ndarray:
    """Default LS weights 1/max(f, 1/(10*repetitions)) per outcome."""
    f = np.asarray(frequencies, dtype=float)
    floor = 1.0 / (10.0 * float(repetitions))
    return 1.0 / np.maximum(f, floor)


def _copy_triangle(H: np.ndarray) -> np.ndarray:
    """The square H with its strict lower triangle copied onto the strict
    upper one, in place and MIRROR_ROWS rows at a time, so that no d x d
    temporary is formed.  The lower triangle and the diagonal are left as
    they are, and H is then exactly symmetric."""
    for start in range(0, H.shape[0], MIRROR_ROWS):
        end = start + MIRROR_ROWS
        corner = H[start:end, start:end]
        np.copyto(corner, corner.T, where=_RECEIVES_FROM_LOWER[: len(corner), : len(corner)])
        H[start:end, end:] = H[end:, start:end].T
    return H


def _zero_lower(H: np.ndarray) -> None:
    """Zero the lower triangle and diagonal of the square H in place,
    MIRROR_ROWS rows at a time; the strict upper one is not touched."""
    for start in range(0, H.shape[0], MIRROR_ROWS):
        end = start + MIRROR_ROWS
        H[start:end, :start] = 0.0
        corner = H[start:end, start:end]
        np.copyto(corner, 0.0, where=~_RECEIVES_FROM_LOWER[: len(corner), : len(corner)])


class FitModel:
    """A fit principle evaluated over parametrization coordinates.

    Holds p0, the outcome probabilities C(N, k) / 2^N of the maximally
    mixed state, and the overlap table G as an ``Overlap`` (its factors),
    with p(x) = p0 + G x; rows run over (setting, outcome) in dataset
    order.  G is never formed: ``probabilities`` and the ray apply it,
    the gradient applies its transpose, and the Hessian kernel has it
    build the rows it re-weights.

    The principle enters only through its ``Loss`` phi, on the rows the
    loss reads, and no method branches on it.  The gradient is
    G^T phi'(p).  The Hessian G^T diag(phi''(p)) G comes from one kernel
    (``_refresh``) that re-weights given rows of a Hessian held in the
    lower triangle of a C-ordered d x d buffer, from weight 0 to form it.
    So a Hessian costs d^2 doubles and ROW_CHUNK rows of d beside G's
    factors, never an array the size of G.  The model holds no state
    between calls: which rows are re-weighted, and when, is the chord
    contract of ``NewtonSystem``.  ``value`` and the derivative methods
    read a point only through its p = ``probabilities(x)``, so that one
    point pays one product G x.
    """

    def __init__(self, spec: FitSpec, parametrization: Parametrization,
                 overlap: Overlap, frequencies):
        self.spec = spec
        self.loss = LOSSES[spec.principle]
        self.curvature_power = self.loss.power
        self.parametrization = parametrization
        self.frequencies = np.concatenate(
            [np.asarray(fr, dtype=float).ravel() for fr in frequencies]
        )
        rows = overlap.shape[0]
        if self.frequencies.size != rows:
            raise ValueError(
                f"{self.frequencies.size} frequencies for {rows} outcome rows"
            )
        w = _weights(spec, self.frequencies)
        self.G = overlap
        # the maximally mixed state's p_k = C(N, k) / 2^N, for every setting
        n = parametrization.layout.n_qubits
        binomial = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
        self.p0 = np.tile(binomial / 2.0**n, rows // (n + 1))
        self.observed = np.flatnonzero(self.frequencies > 0)
        # the index of the rows the loss reads, and f and w on them
        self._rows = np.arange(rows)[self.loss.rows(self.frequencies)]
        self._f = self.frequencies[self._rows]
        self._w = None if w is None else w[self._rows]

    def _scatter(self, v: np.ndarray) -> np.ndarray:
        """v, given on the rows the loss reads, over every row (0 elsewhere)."""
        out = np.zeros(self.frequencies.size)
        out[self._rows] = v
        return out

    def _gradient(self, p: np.ndarray) -> np.ndarray:
        """G^T phi'(p) from p on the rows the loss reads."""
        self.loss.check_interior(p)
        return self.G.rmatvec(self._scatter(self.loss.d1(self._f, p, self._w)))

    def probabilities(self, x: np.ndarray) -> np.ndarray:
        return self.p0 + self.G.matvec(x)

    def drift(self, p: np.ndarray, reference: np.ndarray) -> np.ndarray:
        """|p / reference - 1| on the rows ``observed`` (f > 0), the only
        rows where a curvature phi'' that depends on p is non-zero: how far
        each row of p has moved from the ``reference`` a Hessian was
        weighted at."""
        return np.abs(p[self.observed] / reference[self.observed] - 1.0)

    def value(self, p: np.ndarray) -> float:
        return fit_value(self.spec, self.frequencies, p)

    def gradient(self, p: np.ndarray) -> np.ndarray:
        return self._gradient(p[self._rows])

    def gradient_hessian(self, p: np.ndarray, out: np.ndarray, *,
                         reference: np.ndarray | None = None, rows: np.ndarray | None = None):
        """(gradient, ``out``) at p, the Hessian written by ``_refresh``
        into the lower triangle and diagonal of the C-ordered (d, d)
        ``out``; its strict upper triangle is never read nor written.
        Without ``reference`` the Hessian is formed: ``out``'s lower
        triangle is zeroed and every row the loss reads is re-weighted to
        p from weight 0, so that rows of weight 0 (f = 0) drop out.  With
        ``reference`` it is refreshed: ``out`` holds a Hessian whose row r
        is weighted at ``reference[r]``, only ``rows`` (rows with f > 0)
        are re-weighted to p, and ``reference`` takes p on them."""
        g = self._gradient(p[self._rows])
        self._refresh(p, reference, self._rows if reference is None else rows, out)
        return g, out

    def _refresh(self, p: np.ndarray, reference: np.ndarray | None, rows: np.ndarray,
                 H: np.ndarray) -> None:
        """Add G^T diag(phi''(p) - phi''(reference)) G over ``rows`` to the
        lower triangle of the C-ordered H, diagonal included: the rows
        whose weight grew by syrk with alpha = +1, those whose weight fell
        with alpha = -1, each on sqrt(|change|) G built ROW_CHUNK // 3
        rows at a time, as the columns of one reused buffer that also
        holds the operator's scratch; then reference[rows] = p[rows].
        A ``reference`` of None is weight 0 on a triangle zeroed first."""
        change = self._curvature(p, rows)
        if reference is None:
            _zero_lower(H)
        else:
            change -= self._curvature(reference, rows)
            reference[rows] = p[rows]
        grew, fell = change > 0.0, change < 0.0
        scale = np.sqrt(np.abs(change, out=change), out=change)
        step = max(1, ROW_CHUNK // 3)
        d = self.G.shape[1]
        # a chunk of rows (as columns) and the overlap operator's scratch
        buffer = np.empty(3 * d * min(rows.size, step))
        for sign, moved in ((1.0, grew), (-1.0, fell)):
            part, weight = rows[moved], scale[moved]
            for start in range(0, part.size, step):
                gather = part[start : start + step]
                block = buffer[: d * gather.size].reshape(d, gather.size)
                self.G.rows(gather, block, buffer[d * gather.size :])
                block *= weight[start : start + step]
                # the upper triangle of the Fortran-ordered H.T is H's lower one
                dsyrk(sign, block.T, 1.0, H.T, trans=1, overwrite_c=1, lower=0)

    def _curvature(self, p: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """phi''(p) on ``rows``."""
        w = None if self.spec.weights is None else self.spec.weights[rows]
        return self.loss.d2(self.frequencies[rows], p[rows], w)

    def ray(self, p: np.ndarray, delta: np.ndarray):
        """Derivatives of a -> F(x + a delta) at p = p(x): a function of a
        returning (F', F'') = (phi'(p + a q) . q, phi''(p + a q) . q^2)
        with q = G delta, both on the rows the loss reads and each formed
        once.  It makes no interior check: the ray search keeps a below
        the step to the boundary."""
        p = p[self._rows]
        q = self.G.matvec(delta)[self._rows]
        f, w, q2, loss = self._f, self._w, q * q, self.loss

        def derivatives(a):
            s = p + a * q
            return float(loss.d1(f, s, w) @ q), float(loss.d2(f, s, w) @ q2)

        return derivatives


class LinearFit:
    """Linear objective c^T x (used by the pretest LMI).  Its
    ``probabilities`` are the point x itself, so its methods read x as the
    p of ``FitModel``'s protocol.  Its Hessian, 0, is constant."""

    curvature_power = 0

    def __init__(self, coefficients):
        self.c = np.asarray(coefficients, dtype=float).ravel()

    def probabilities(self, x):
        return x

    def value(self, p):
        return float(self.c @ p)

    def gradient(self, p):
        return self.c.copy()

    def gradient_hessian(self, p, out):
        out.fill(0.0)
        return self.c.copy(), out

    def ray(self, p, delta):
        slope = float(self.c @ delta)
        return lambda a: (slope, 0.0)


# ---------------------------------------------------------------------------
# Newton engine
# ---------------------------------------------------------------------------


@dataclass
class StageResult:
    x: np.ndarray
    iterations: int
    grad_norm: float
    converged: bool
    objective: float
    fit_value: float
    # lambda^2 = -g^T delta at x of the held system, within its
    # ``NewtonSystem.inflation`` of the true one.  NaN if no direction was
    # formed there
    decrement: float
    # gradient_hessian calls: fit Hessians formed or re-weighted
    hessians: int
    # rows of G those calls re-weighted; a formation counts every row
    hessian_rows: int


class StageCarry(NamedTuple):
    """What a ``newton_stage`` hands the next one, all at the point it
    returned, whichever exit ended the stage: the fit's p there, so the
    next stage forms no p at its start, the fit's ``NewtonSystem``, and
    the fit and barrier derivatives.  Between stages the carry is the
    system's only holder."""

    probabilities: np.ndarray
    fit_gradient: np.ndarray
    system: "NewtonSystem"
    barrier_gradient: np.ndarray
    barrier_hessian: BlockHessian


class NewtonSystem:
    """The Newton system t H_bar + H_fit of one fit, held from its first
    barrier stage to its last, and its chord contract, stated here once.

    Every stage is chord Newton in the fit Hessian H_fit (Kelley,
    Iterative Methods for Linear and Nonlinear Equations, 5.4), held row
    by row.  The gradient is exact at every pass, but row r of H_fit is
    weighted at ``hessian_at[r]``, the value of p_r it was last weighted at.
    ``update`` forms H_fit on first use, re-weighting every row the loss
    reads from weight 0 (a formation counts all of them).  After that it
    re-weights to p only the rows with f > 0 whose drift |p_r /
    hessian_at[r] - 1| (``FitModel.drift``) exceeds the hold limit: LAG,
    or in an exact stage LAG * min(1, ``ratio``), with ``ratio`` = lambda^2
    / t of the last Newton direction.  So most passes re-weight few rows
    or none, and every row then drifts by at most the limit.  A stage
    started from a carry holds the carried H_fit at its first point
    whatever the drift, which ``inflation`` covers.  A constant H_fit
    (LS, ``LinearFit``: ``hessian_at`` None) is formed once.

    With drift the largest over the rows and phi'' proportional to p^-k
    (k = ``curvature_power``: 2 for ML, 3 for FreeLS), phi''(p) /
    phi''(hessian_at) >= (1 + drift)^-k row by row, so the held system is
    >= (1 + drift)^-k times the true one: every direction is a descent
    direction, and the true squared Newton decrement is lambda^2 <=
    ``inflation`` * lambda_held^2, with ``inflation`` = (1 + drift)^k
    (Boyd & Vandenberghe, Convex Optimization, 9.6).  Stages centred
    approximately stop at lambda_held^2 <= CENTERING * t, which certifies
    lambda^2 <= 0.116 t, still inside the quadratic region lambda^2 <
    (3 - sqrt 5)^2 / 4 = 0.146 t; so would any LAG up to 0.13 (FreeLS) or
    0.2 (ML).  In the exact stages the Hessian's relative error
    k * drift shrinks with the decrement, so Newton's quadratic rate
    holds, and their stop inflation * lambda_held^2 <= grad_tol^2
    certifies lambda^2 <= grad_tol^2.

    One C-ordered d x d Newton buffer ``W`` holds the system: H_fit in
    its strict lower triangle, with the held ``diagonal``, and the
    Cholesky factor of the last system ``direction`` solved in its upper
    triangle.  So H_fit outlives every factor, and a step allocates no
    d x d array.  ``direction`` keeps its ``factor`` and ``tangent``
    solves with it once more and drops it; a stage drops it by setting
    ``factor`` to None.  ``hessians`` and ``hessian_rows`` count the
    updates that formed or re-weighted H_fit and the rows they re-weighted,
    for the stage that zeroes them at its start.
    """

    def __init__(self, fit, dimension: int):
        self.fit = fit
        self.W = np.empty((dimension, dimension))
        self.diagonal = self.hessian_at = self.factor = None
        self.ratio = math.inf
        self.hessians = self.hessian_rows = 0

    def update(self, p: np.ndarray, exact: bool) -> np.ndarray:
        """The fit gradient at p.  H_fit is formed on first use; after
        that the rows that drifted past the hold limit are re-weighted to
        p.  Either is one ``FitModel.gradient_hessian`` call."""
        fit, W = self.fit, self.W
        if self.diagonal is None:
            g, _ = fit.gradient_hessian(p, W)
            self.hessian_rows += p.size
            self.hessian_at = p.copy() if fit.curvature_power else None
        else:
            if self.hessian_at is None:
                return fit.gradient(p)
            limit = LAG * (min(1.0, self.ratio) if exact else 1.0)
            rows = fit.observed[fit.drift(p, self.hessian_at) > limit]
            if rows.size == 0:
                return fit.gradient(p)
            # the held diagonal goes beneath the refresh, in place of the
            # last factor's
            W.reshape(-1)[:: len(W) + 1] = self.diagonal
            g, _ = fit.gradient_hessian(p, W, reference=self.hessian_at, rows=rows)
            self.hessian_rows += rows.size
        self.diagonal = W.diagonal().copy()
        self.hessians += 1
        return g

    def inflation(self, p: np.ndarray) -> float:
        """(1 + drift)^k at p, by which the held decrement bounds the true
        one; 1.0 for a constant H_fit."""
        if self.hessian_at is None:
            return 1.0
        drift = float(np.max(self.fit.drift(p, self.hessian_at), initial=0.0))
        return (1.0 + drift) ** self.fit.curvature_power

    def direction(self, H_bar: BlockHessian, t: float, g: np.ndarray):
        """(delta, slope g^T delta) of (t H_bar + H_fit) delta = -g by
        Cholesky, adding an escalating ridge on factorization failure or
        loss of descent (1e-12 (1 + max diag), then x10, at most three
        escalations); ``ratio`` becomes -slope / t.  Each attempt writes
        the system into W's upper triangle and diagonal (the lower
        triangle copied up, the diagonal restored, then t H_bar and the
        ridge added) and factors it there in place: LAPACK's lower factor
        of the Fortran-ordered view W.T reads and writes only that
        triangle, and so does the solve.  The system's entries are those
        of t H_bar + H_fit, bit for bit."""
        W = self.W
        diagonal = W.reshape(-1)[:: len(W) + 1]
        max_diag = None
        ridge = 0.0
        for _ in range(4):
            _copy_triangle(W)
            diagonal[...] = self.diagonal
            H_bar.add_upper(W, t)
            if max_diag is None:
                max_diag = float(np.max(diagonal)) if g.size else 0.0
            if ridge:
                diagonal += ridge
            try:
                self.factor = cho_factor(W.T, lower=True, overwrite_a=True, check_finite=False)
            except np.linalg.LinAlgError:
                ridge = 1e-12 * (1.0 + max_diag) if ridge == 0.0 else ridge * 10.0
                continue
            delta = cho_solve(self.factor, -g, check_finite=False)
            slope = float(g @ delta)
            if slope < 0.0 and np.all(np.isfinite(delta)):
                self.ratio = -slope / t
                return delta, slope
            ridge = 1e-12 * (1.0 + max_diag) if ridge == 0.0 else ridge * 10.0
        raise NonConvergenceError("Newton system unsolvable even with ridge repair")

    def tangent(self, g: np.ndarray):
        """(delta, slope) of delta = -M^-1 g, solved with the factor of the
        last stage's Newton system M = t H_bar + H_fit, which it then drops;
        g = grad F + t' grad B is this stage's gradient at the same point.
        At a t-centre grad F = -t grad B, so delta = (t' - t) x'(t): the
        step along the central path's tangent x' = -M^-1 grad B, for no
        factorization."""
        delta = cho_solve(self.factor, -g, check_finite=False)
        self.factor = None
        return delta, float(g @ delta)


def _ray_step(fit_derivatives, mu: np.ndarray, t: float, slope: float) -> float:
    """Step length a in (0, a_max) near the minimum of the stage objective
    along the Newton ray, h(a) = F(x + a delta) - t sum log(1 + a mu)
    + const, with a_max = 1 / max(-mu) its feasibility limit.

    Safeguarded 1-D Newton on the increasing h' inside a bracket, from
    min(1, a_max / 2), until the strong-Wolfe curvature test
    |h'(a)| <= RAY_CURVATURE |h'(0)|; h'(0) is the Newton ``slope``.
    """
    shrink = float(-mu.min(initial=0.0))
    lo, hi = 0.0, 1.0 / shrink if shrink > 0.0 else math.inf
    a = min(1.0, 0.5 * hi)
    for _ in range(RAY_ITERATIONS):
        fit_d1, fit_d2 = fit_derivatives(a)
        r = mu / (1.0 + a * mu)
        h1 = fit_d1 - t * float(r.sum())
        if abs(h1) <= -RAY_CURVATURE * slope:
            break
        if h1 < 0.0:
            lo = a
        else:
            hi = a
        h2 = fit_d2 + t * float(r @ r)
        a = a - h1 / h2 if h2 > 0.0 else math.nan
        if not lo < a < hi:
            a = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo
    return a


def _line_search(fit, affine, chols, x, p, obj, t, delta, slope):
    """From the ray's step, backtrack to a feasible trial point (every
    block passes Cholesky) with Armijo sufficient decrease; returns its
    (x, p, factors, objective, fit value), or None if no step >= 1e-16
    is accepted.  p is the fit's p(x); each feasible trial forms its own
    once."""
    step = _ray_step(fit.ray(p, delta), affine.ray_eigenvalues(chols, delta), t, slope)
    while step >= 1e-16:
        x_new = x + step * delta
        chols_new = affine.cholesky_list(affine.blocks(x_new))
        if chols_new is not None:
            p_new = fit.probabilities(x_new)
            fit_new = fit.value(p_new)
            obj_new = fit_new + t * affine.barrier_value(chols_new)
            if obj_new <= obj + LS_ALPHA * step * slope:
                return x_new, p_new, chols_new, obj_new, fit_new
        step *= LS_SHRINK
    return None


def _endgame_step(fit, affine, x, t, delta, grad_norm):
    """The step of a Newton direction whose predicted decrease is beneath
    the objective's roundoff, where Armijo cannot certify progress: the
    full step, backtracked only to feasibility, is taken if it strictly
    shrinks the gradient norm ``grad_norm`` at x, since quadratic
    convergence still has several orders of gradient reduction left.
    Returns the trial's (x, p, factors, objective, fit value), as
    ``_line_search`` does, or None."""
    step, chols = 1.0, None
    while chols is None:
        if step < 1e-16:
            return None
        x_new = x + step * delta
        chols = affine.cholesky_list(affine.blocks(x_new))
        step *= LS_SHRINK
    _, bg = affine.barrier_grad(chols)
    p = fit.probabilities(x_new)
    if float(np.linalg.norm(fit.gradient(p) + t * bg)) >= grad_norm:
        return None
    fit_v = fit.value(p)
    return x_new, p, chols, fit_v + t * affine.barrier_value(chols), fit_v


def newton_stage(fit, affine: AffineBlockMap, t: float, x_start: np.ndarray,
                 config: SolverConfig | None = None, *,
                 exact: bool = True, carry: list | None = None) -> StageResult:
    """Minimize fit(x) - t sum log det over the interior of ``affine``'s
    blocks from x_start, by damped Newton on the fit's ``NewtonSystem``,
    whose chord contract the stops below rest on.

    Each pass forms the derivatives at the current point (the fit's by
    ``NewtonSystem.update``), then stops, or forms a direction and takes
    one step.  It stops converged once |g| <= grad_tol, or once the
    squared decrement lambda^2 = -g^T delta of the held system, times its
    ``inflation``, is <= grad_tol^2; with ``exact=False`` also once
    lambda^2 <= CENTERING * t, in Newton's quadratic region of
    fit/t + barrier.  Starting at an optimum costs zero iterations.
    After ``max_newton_iters`` steps it stops unconverged on the
    derivatives it has just formed, so ``grad_norm`` is that of the
    returned point.  A step is one call: ``_line_search`` if the
    predicted decrease -slope exceeds the objective's roundoff, else, for
    a Newton direction, ``_endgame_step``.  The line search starts at the
    minimum of the exact barrier along the Newton ray (``_ray_step``), so
    trials almost never leave the feasible set, and backtracks to
    feasibility (every block must pass Cholesky) and Armijo sufficient
    decrease.  A Newton step that finds no trial is the stage's one
    failure exit: it reports converged iff |g| <= grad_tol (1 +
    |objective|).  ``hessians`` and ``hessian_rows`` in the result are
    the system's counts for this stage.  The fit reads a point only
    through p = ``fit.probabilities``, formed once per point: at the
    start (unless carried) and at each feasible trial point, whose p the
    accepted one hands on.

    ``carry`` hands work from stage to stage of one fit; a ``StageCarry``
    of another fit's system raises ``ValueError``.  If it holds one taken
    at x_start, its p and derivatives, which do not depend on t, replace
    the first evaluation, its system serves this stage, and it is removed
    from the list.  If that system holds a factor, the first direction is
    the central-path tangent step ``NewtonSystem.tangent``, which costs
    no factorization, and its step length comes from the same ray
    search.  If it is not a descent direction by more than roundoff, or
    no trial point is accepted, the stage hands itself its derivatives
    back and takes the Newton direction at the same point, so the
    tangent never ends a stage.  On return ``carry`` holds the
    ``StageCarry`` at the returned point, whose system holds the factor
    of the Newton direction whose decrement ended the stage, and no
    factor after any other exit.  A factor is dropped before the next
    derivatives are formed, and the barrier Hessian before the next fit
    or barrier Hessian is formed.
    """
    cfg = config or SolverConfig()
    if carry and carry[-1].system.fit is not fit:
        raise ValueError("newton_stage was handed the Newton system of another fit")
    x = np.asarray(x_start, dtype=float).copy()
    chols = affine.cholesky_list(affine.blocks(x))
    if chols is None:
        raise ValueError("newton_stage requires a strictly feasible start")
    # p = p0 + G x, formed once per point: by the stage that ended at
    # x_start, or here, then by each trial point a step accepts
    p = carry[-1].probabilities if carry else fit.probabilities(x)
    fit_v = fit.value(p)
    obj = fit_v + t * affine.barrier_value(chols)

    system = carry[-1].system if carry else NewtonSystem(fit, x.size)
    system.hessians = system.hessian_rows = iterations = 0
    decrement = math.nan
    eps = float(np.finfo(float).eps)
    while True:
        if carry:
            _, g_fit, _, bg, bH = carry.pop()
        else:
            bH = None  # released before the next fit or barrier Hessian is formed
            g_fit = system.update(p, exact)
            _, bg, bH = affine.barrier_grad_hess(chols)
        g = g_fit + t * bg
        grad_norm = float(np.linalg.norm(g))
        converged = grad_norm <= cfg.grad_tol
        if converged or iterations >= cfg.max_newton_iters:
            system.factor = None  # only a stop on the decrement hands a factor on
            break
        newton = system.factor is None
        if newton:
            delta, slope = system.direction(bH, t, g)
            decrement = -slope
            # Affine-invariant centrality: the squared Newton decrement
            # g^T H^-1 g is what self-concordance bounds the remaining
            # decrease by.  In badly scaled geometry (barrier curvature
            # ~1/lambda^2 near the cone boundary) the plain gradient norm
            # can sit far above grad_tol while the iterate is already
            # central to machine precision; the decrement is not fooled
            if (decrement * system.inflation(p) <= cfg.grad_tol**2
                    or (not exact and decrement <= CENTERING * t)):
                converged = True
                break
            system.factor = None
        else:
            delta, slope = system.tangent(g)
        # Armijo certifies only a predicted decrease above the objective's
        # roundoff; beneath it, only a Newton direction takes the endgame
        if -slope > 64.0 * eps * abs(obj) and np.all(np.isfinite(delta)):
            trial = _line_search(fit, affine, chols, x, p, obj, t, delta, slope)
        else:
            trial = _endgame_step(fit, affine, x, t, delta, grad_norm) if newton else None
        if trial is None:
            if newton:
                converged = grad_norm <= cfg.grad_tol * (1.0 + abs(obj))
                break
            # a failed tangent hands the next pass this point's derivatives:
            # it takes the Newton direction here
            carry.append(StageCarry(p, g_fit, system, bg, bH))
            continue
        x, p, chols, obj, fit_v = trial
        decrement = math.nan
        iterations += 1

    if carry is not None:
        carry.append(StageCarry(p, g_fit, system, bg, bH))
    return StageResult(
        x=x,
        iterations=iterations,
        grad_norm=grad_norm,
        converged=converged,
        objective=obj,
        fit_value=fit_v,
        decrement=decrement,
        hessians=system.hessians,
        hessian_rows=system.hessian_rows,
    )


def t_schedule(config: SolverConfig, floor: float | None = None) -> list[float]:
    """Barrier weights t0, t0/r, ... down to the floor (t_min or beta)."""
    stop = config.t_min if floor is None else floor
    if stop >= config.t0:
        return [stop]
    count = math.ceil(math.log(config.t0 / stop) / math.log(T_REDUCE) - 1e-9)
    ts = [config.t0 / T_REDUCE**i for i in range(count)]
    ts.append(stop)
    return ts


def _barrier_path(fit, affine, schedule, x, config, stage=None):
    """Run one ``newton_stage`` per t of ``schedule``, each warm-started
    at the last one's point, and yield (t, StageResult) after each.

    Stages before the last EXACT_STAGES are centred approximately; the
    last EXACT_STAGES hold the fit Hessian to the tighter limit and stop
    on a bound of the true Newton decrement (``NewtonSystem``).  The
    ``StageCarry`` that ends one stage seeds the next through ``carry``,
    which the stage empties on use, so the fit's one ``NewtonSystem``
    serves every stage, and a fit Hessian that still holds may serve
    several.  Every stage but the first and the last thus starts with a
    central-path tangent step.  The final stage gets the derivatives
    without the factor: it starts from the exact centre of the one
    before with plain Newton steps, so its point, and the certificate
    t * dim, are those of an all-exact path to the stopping tolerance.
    ``stage`` replaces ``newton_stage`` for a caller that passes it as
    looked up in its own module.
    """
    stage = stage or newton_stage
    carry = []
    for i, t in enumerate(schedule):
        if carry and i == len(schedule) - 1:
            carry[-1].system.factor = None
        result = stage(fit, affine, t, x, config,
                       exact=i >= len(schedule) - EXACT_STAGES, carry=carry)
        x = result.x
        yield t, result


# ---------------------------------------------------------------------------
# Reconstruction drivers
# ---------------------------------------------------------------------------


@dataclass
class StageTrace:
    t: float
    iterations: int
    fit_value: float
    grad_norm: float
    decrement: float
    estimate: SpinEnsemble
    hessians: int  # gradient_hessian calls: fit Hessians formed or refreshed
    hessian_rows: int  # rows of G they re-weighted; a formation counts every row


@dataclass
class ReconstructionResult:
    estimate: SpinEnsemble
    fit_value: float
    gap_bound: float
    trace: list[StageTrace]
    converged: bool

    @property
    def total_iterations(self) -> int:
        return sum(s.iterations for s in self.trace)

    @property
    def total_hessians(self) -> int:
        """Fit Hessians formed or refreshed over all stages; fewer than
        the Newton steps when the stages hold them (LAG)."""
        return sum(s.hessians for s in self.trace)

    @property
    def total_hessian_rows(self) -> int:
        """Rows of G re-weighted over all stages, a formation counting
        every row: the cost of the fit Hessians apart from their number."""
        return sum(s.hessian_rows for s in self.trace)


def _resolve_spec(spec: FitSpec, dataset, freqs) -> FitSpec:
    if spec.principle == "ls" and spec.weights is None:
        w = np.concatenate(
            [
                resolve_least_squares_weights(f, rec.repetitions)
                for f, rec in zip(freqs, dataset.records)
            ]
        )
        return FitSpec(principle="ls", weights=w)
    return spec


def build_fit_model(dataset, spec: FitSpec,
                    parametrization: Parametrization | None = None) -> FitModel:
    """Build the FitModel (overlap operator, frequencies) for a dataset.

    Without ``parametrization`` the layout's shared instance is used."""
    freqs = [rec.frequencies for rec in dataset.records]
    param = parametrization or _shared_parametrization(sector_layout(dataset.n_qubits))
    overlap = Overlap(param, [rec.setting for rec in dataset.records])
    resolved = _resolve_spec(spec, dataset, freqs)
    return FitModel(resolved, param, overlap, freqs)


def reconstruct(dataset, spec: FitSpec,
                config: SolverConfig | None = None) -> ReconstructionResult:
    """Interior-point reconstruction of a PI state from count data.

    Runs the barrier Newton outer loop over the t schedule (stopping at
    t = beta for the hedged principle) with warm starts, and returns the
    final estimate with its optimality-gap certificate
    gap_bound = t_final * compressed_dim.  The path starts at the
    barrier's analytic centre, the state with every block I/D
    (``Parametrization.centre``), where the barrier gradient vanishes:
    the first stage then moves towards the data from a point that is
    already centred for the barrier, which saves about a sixth of the
    Newton steps at N = 16.  The end of the path does not depend on its
    start.
    """
    cfg = config or SolverConfig()
    model = build_fit_model(dataset, spec)
    param = model.parametrization
    hedged = spec.principle == "hedged"
    schedule = t_schedule(cfg, spec.beta if hedged else None)

    trace = []
    all_converged = True
    for t, stage in _barrier_path(model, param.affine, schedule, param.centre, cfg):
        x = stage.x
        if not stage.converged:
            all_converged = False
            if cfg.strict:
                raise NonConvergenceError(
                    f"stage t={t:g} stopped at gradient norm {stage.grad_norm:.3e}"
                )
        trace.append(
            StageTrace(
                t=t,
                iterations=stage.iterations,
                fit_value=stage.fit_value,
                grad_norm=stage.grad_norm,
                decrement=stage.decrement,
                estimate=param.ensemble(x),
                hessians=stage.hessians,
                hessian_rows=stage.hessian_rows,
            )
        )

    final_fit = trace[-1].fit_value
    if hedged:
        chols = param.affine.cholesky_list(param.affine.blocks(x))
        final_fit += spec.beta * param.affine.barrier_value(chols)
    return ReconstructionResult(
        estimate=trace[-1].estimate,
        fit_value=final_fit,
        gap_bound=schedule[-1] * param.layout.compressed_dim,
        trace=trace,
        converged=all_converged,
    )


@dataclass
class FixedPointResult:
    estimate: SpinEnsemble
    fit_trace: np.ndarray
    iterations: int


def _ratio_operators(stack, f: np.ndarray, p: np.ndarray) -> dict[int, np.ndarray]:
    """R_j = sum_{a,k} (f_k^a / p_k^a) M_{k,j}^a from flat (setting,
    outcome) frequencies and probabilities; outcomes with f = 0 add 0."""
    ratio = np.zeros_like(p)
    pos = f > 0
    ratio[pos] = f[pos] / np.maximum(p[pos], 1e-300)
    return stack.weighted_sum(ratio)


def likelihood_residual(dataset, ensemble: SpinEnsemble) -> float:
    """Stationarity residual ||R(rho) rho - S rho||_F of the ML problem.

    R(rho) = sum_{a,k} (f_k^a / p_k^a) M_{k,j}^a and S is the number of
    settings; the residual vanishes exactly at a maximum-likelihood
    state (on its support), for boundary and interior optima alike, so
    it compares solver accuracy without needing interior iterates.
    """
    n = dataset.n_qubits
    if ensemble.layout.n_qubits != n:
        raise ValueError("ensemble does not match dataset qubit number")
    stack = stacked_blocks(n, [rec.setting for rec in dataset.records])
    f = np.concatenate([rec.frequencies for rec in dataset.records])
    R = _ratio_operators(stack, f, probabilities(ensemble, stack))
    n_settings = len(dataset.records)
    total = 0.0
    for two_j, rho in ensemble.blocks.items():
        total += float(np.linalg.norm(R[two_j] @ rho - n_settings * rho)) ** 2
    return math.sqrt(total)


def fixed_point_reconstruct(dataset, iterations: int = 3000,
                            start: SpinEnsemble | None = None) -> FixedPointResult:
    """Multiplicative fixed-point ML iteration (cross-check algorithm).

    rho_j <- R_j rho_j R_j / norm with R_j = sum_{a,k} (f_k^a/p_k^a)
    M_{k,j}^a, starting from the maximally mixed state.  Records the ML
    fit value at every iterate.  Exact block data f = p(start) is a
    fixed point because R_j collapses to (number of settings) * identity.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    n = dataset.n_qubits
    layout = sector_layout(n)
    state = start or maximally_mixed_ensemble(layout)
    if state.layout != layout:
        raise ValueError(
            f"start state has N={state.layout.n_qubits}, dataset has N={n}"
        )
    stack = stacked_blocks(n, [rec.setting for rec in dataset.records])
    f = np.concatenate([rec.frequencies for rec in dataset.records])

    ml_spec = FitSpec.max_lik()
    values = np.empty(iterations + 1)
    for it in range(iterations + 1):
        p = probabilities(state, stack)
        values[it] = fit_value(ml_spec, f, np.maximum(p, 1e-300))
        if it == iterations:
            break
        new_blocks = {}
        norm = 0.0
        for two_j, R in _ratio_operators(stack, f, p).items():
            updated = R @ state.blocks[two_j] @ R.conj().T
            updated = 0.5 * (updated + updated.conj().T)
            new_blocks[two_j] = updated
            norm += float(np.trace(updated).real)
        if norm <= 0.0:
            raise ValueError("fixed-point normalization vanished (degenerate data)")
        state = SpinEnsemble(
            layout=layout, blocks={t: m / norm for t, m in new_blocks.items()}
        )

    return FixedPointResult(estimate=state, fit_trace=values, iterations=iterations)
