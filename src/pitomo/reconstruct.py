"""State reconstruction from coarse-grained PI measurement data.

The estimate lives in the affine space of unit-trace block-Hermitian
matrices, written as

    rho(x) = base + sum_i x_i B_i,

with ``base`` the compressed maximally mixed state and {B_i} an
orthonormal (Frobenius) basis of traceless directions: per-sector
generalized Gell-Mann matrices plus ``num_sectors - 1`` diagonal
inter-sector trace shifts.  Outcome probabilities are affine in x,
p = p0 + G x, with the overlap table G[row, i] = tr(B_i M_k^a) assembled
once per (layout, settings).  Each block of G is read off the entries of
M_{k,j}^a at its Gell-Mann index pairs, O(n^2) per outcome and sector,
not contracted against the dense basis stack (O(n^4)).  Every fit
Hessian is G^T diag(c) G with c >= 0, formed as the symmetric rank-k
(BLAS syrk) product of sqrt(c) G; the Newton system t H_barrier + H_fit
is then assembled in place in the barrier Hessian's buffer.

Three convex fit principles are supported, plus a hedged variant:

    ml      F = -sum f log p           (maximum likelihood)
    ls      F = sum w (f - p)^2        (weighted least squares)
    freels  F = sum (f - p)^2 / p      (probability-weighted LS)
    hedged  F = ml - beta log det rho  (barrier run stopped at t = beta)

FreeLS derivatives, per outcome with phi(p) = (f-p)^2/p = f^2/p - 2f + p:
phi' = 1 - f^2/p^2 and phi'' = 2 f^2/p^3 >= 0, so the exact Hessian
G^T diag(2 f^2/p^3) G is PSD on the interior - no approximation needed.

The optimum is found by an interior-point outer loop: minimize
F(x) - t sum_j log det rho_j(x) by damped Newton (Cholesky feasibility +
Armijo backtracking), warm-starting while t shrinks from t0 to t_min.
Standard barrier duality gives F(x_t) - F(x*) <= t * compressed_dim with
certificate Lambda = t rho(x_t)^{-1}, which is what ``gap_bound``
reports.  Only the last stage's point is returned, so the stages before
the last two stop in Newton's quadratic region, once the squared Newton
decrement lambda^2 <= CENTERING * t.  The last two keep lambda^2 <=
grad_tol^2: the final stage lands wherever its start sends it, and an
exactly centred start keeps estimate and certificate as on an all-exact
path.  The pretest's linear-objective LMI runs on the same engine.

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

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .povm import probabilities, stacked_blocks
from .povm import rotated_blocks  # unused here; kept so the benchmark tracer's hook resolves
from .spin_blocks import (
    SpinEnsemble,
    SpinSectorLayout,
    maximally_mixed_ensemble,
    sector_layout,
)

__all__ = [
    "FitSpec",
    "SolverConfig",
    "Parametrization",
    "AffineBlockMap",
    "FitModel",
    "LinearFit",
    "StageResult",
    "StageTrace",
    "ReconstructionResult",
    "FixedPointResult",
    "NonConvergenceError",
    "fit_value",
    "resolve_least_squares_weights",
    "barrier_value_grad_hess",
    "newton_stage",
    "t_schedule",
    "build_fit_model",
    "reconstruct",
    "fixed_point_reconstruct",
    "likelihood_residual",
]

PRINCIPLES = ("ml", "ls", "freels", "hedged")

# Stages before the last EXACT_STAGES stop at lambda^2 <= CENTERING * t, where
# fit/t + barrier has decrement 0.32 < (3 - sqrt 5)/2: Newton's quadratic region
CENTERING = 0.1
EXACT_STAGES = 2


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
            if np.any(w <= 0):
                raise ValueError("least-squares weights must be positive")
            object.__setattr__(self, "weights", w)
        if self.principle == "hedged":
            if self.beta is None or not self.beta > 0:
                raise ValueError("hedged fit requires beta > 0")
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
    t_reduce: float = 10.0
    t_min: float = 1e-10
    grad_tol: float = 1e-8
    ls_alpha: float = 0.01
    ls_shrink: float = 0.5
    max_newton_iters: int = 200
    strict: bool = False

    def __post_init__(self):
        if self.t0 <= 0 or self.t_min <= 0:
            raise ValueError("t0 and t_min must be positive")
        if self.t_reduce <= 1:
            raise ValueError("t_reduce must exceed 1")
        if not 0 < self.ls_alpha < 0.5:
            raise ValueError("ls_alpha must lie in (0, 0.5)")
        if not 0 < self.ls_shrink < 1:
            raise ValueError("ls_shrink must lie in (0, 1)")
        if self.max_newton_iters < 1:
            raise ValueError("max_newton_iters must be >= 1")


# ---------------------------------------------------------------------------
# Affine block maps and the log-det barrier
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _hermitian_coordinates(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns and weights that read the n^2 real coordinates of a
    Hermitian n x n matrix off its flat complex entries viewed as
    (re, im) float pairs: sqrt2 Re and sqrt2 Im of the strict upper
    triangle, then the diagonal.  The dot product of two coordinate rows
    is the Frobenius inner product tr(A B) of the matrices."""
    rows, cols = np.triu_indices(n, 1)
    upper = 2 * (rows * n + cols)
    columns = np.concatenate([upper, upper + 1, 2 * (n + 1) * np.arange(n)])
    weights = np.ones(n * n)
    weights[: 2 * upper.size] = math.sqrt(2.0)
    # read-only: the cache hands the same arrays to every caller
    columns.setflags(write=False)
    weights.setflags(write=False)
    return columns, weights


def _log_det(factor: np.ndarray) -> float:
    """log det of a block from its factor: the slack vector of a diagonal
    block, the lower Cholesky factor of a Hermitian one."""
    if factor.ndim == 1:
        return float(np.sum(np.log(factor)))
    return 2.0 * float(np.sum(np.log(np.diag(factor).real)))


def _triangular_inverse(L: np.ndarray) -> np.ndarray:
    n = L.shape[0]
    return solve_triangular(L, np.eye(n, dtype=complex), lower=True, check_finite=False)


class AffineBlockMap:
    """x -> [C_b + sum_i x[idx_b[i]] * D_b[i]]_b over Hermitian and
    diagonal blocks.

    A Hermitian block has ``constants[b]`` of shape (n, n) and
    ``dir_stacks[b]`` of shape (q, n, n) of Hermitian directions.  A
    diagonal block has a real constant c of shape (m,) and real
    directions D of shape (q, m): it stands for m scalar slacks
    s = c + D^T x[idx], feasible iff every s > 0, with barrier -sum log s
    (a linear-programming block beside the semidefinite ones).
    ``dir_indices[b]`` maps the local direction axis into the global
    coordinate vector; an index may repeat across blocks, not within one.
    """

    def __init__(self, constants, dir_stacks, dir_indices, dim):
        self.constants = []
        self.dir_stacks = []
        for c, d in zip(constants, dir_stacks):
            dtype = float if np.ndim(c) == 1 else complex
            self.constants.append(np.ascontiguousarray(c, dtype=dtype))
            self.dir_stacks.append(np.ascontiguousarray(d, dtype=dtype))
        self.dir_indices = [np.asarray(i, dtype=np.intp) for i in dir_indices]
        if any(np.unique(i).size != i.size for i in self.dir_indices):
            raise ValueError("a block's direction indices must be distinct")
        self.dim = int(dim)

    def blocks(self, x: np.ndarray) -> list[np.ndarray]:
        return [
            C + (x[idx] @ D if C.ndim == 1 else np.tensordot(x[idx], D, axes=(0, 0)))
            for C, D, idx in zip(self.constants, self.dir_stacks, self.dir_indices)
        ]

    def cholesky_list(self, blocks) -> list[np.ndarray] | None:
        """Factors of the blocks (lower Cholesky factor of a Hermitian
        block, the slack vector itself for a diagonal one), or None if any
        block is not positive definite or has a NaN or infinite pivot."""
        chols = []
        for blk in blocks:
            if blk.ndim == 2:
                try:
                    blk = np.linalg.cholesky(blk)
                except np.linalg.LinAlgError:
                    return None
            pivots = blk if blk.ndim == 1 else np.diag(blk).real
            # LAPACK passes NaN through; NaN fails both comparisons
            if not np.all((pivots > 0.0) & (pivots < np.inf)):
                return None
            chols.append(blk)
        return chols

    @staticmethod
    def barrier_value(chols) -> float:
        """-sum_b log det(block_b) from the factors."""
        return -sum(_log_det(F) for F in chols)

    def barrier_grad_hess(self, chols):
        """(value, gradient, Hessian) of -sum_b log det(block_b).

        grad_i = -sum_b tr(block^-1 D_i), hess_il = sum_b tr(block^-1 D_i
        block^-1 D_l).  A Hermitian block with factor L contributes through
        T_i = L^-1 D_i L^-dagger, formed from one triangular inverse and
        two flat products with no solve per direction.  The n^2 real
        coordinates of each T_i (sqrt2 Re and sqrt2 Im of the strict upper
        triangle, then the diagonal) are the rows of a real matrix C: the
        block Hessian is the real syrk C C^T, exactly symmetric, and the
        gradient is minus the diagonal sums.  A diagonal block with slacks
        s has C = D / s, gradient -D (1/s) and Hessian (D/s)(D/s)^T.
        """
        value = 0.0
        grad = np.zeros(self.dim)
        hess = np.zeros((self.dim, self.dim))
        for F, D, idx in zip(chols, self.dir_stacks, self.dir_indices):
            value -= _log_det(F)
            if F.ndim == 1:
                C = D / F
                grad[idx] -= C.sum(axis=1)
            else:
                q, n, _ = D.shape
                inv_l = _triangular_inverse(F)
                # slabs of P are D_i L^-dagger; P_i^T L^-T = conj(T_i) for
                # Hermitian D_i, which has the same real coordinates up to
                # the sign of every Im entry, so the same Gram matrix
                P = (D.reshape(q * n, n) @ inv_l.conj().T).reshape(q, n, n)
                T_conj = P.transpose(0, 2, 1).reshape(q * n, n) @ inv_l.T
                columns, weights = _hermitian_coordinates(n)
                C = T_conj.reshape(q, n * n).view(float)[:, columns]
                C *= weights
                grad[idx] -= C[:, n * n - n :].sum(axis=1)
            hess[np.ix_(idx, idx)] += C @ C.T
        return value, grad, hess

    def barrier_grad(self, chols):
        """(value, gradient) of the barrier without the Hessian.

        Uses tr(block^-1 D_i) = <L^-T L^-1 conj(), D_i> so the inverse is
        formed once per block instead of solving per direction.
        """
        value = 0.0
        grad = np.zeros(self.dim)
        for F, D, idx in zip(chols, self.dir_stacks, self.dir_indices):
            value -= _log_det(F)
            if F.ndim == 1:
                grad[idx] -= (D / F).sum(axis=1)
            else:
                inv_l = _triangular_inverse(F)
                inv = inv_l.conj().T @ inv_l
                grad[idx] -= np.einsum("mn,qnm->q", inv, D).real
        return value, grad


def _diagonal_table(n: int) -> np.ndarray:
    """(n, n-1) diagonals of the n-1 diagonal Gell-Mann matrices of size n."""
    table = np.zeros((n, n - 1))
    for l in range(1, n):
        scale = 1.0 / math.sqrt(l * (l + 1))
        table[:l, l - 1] = scale
        table[l, l - 1] = -l * scale
    return table


def _gell_mann_stack(n: int) -> np.ndarray:
    """Orthonormal traceless Hermitian basis of an n x n block."""
    mats = []
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for r in range(n):
        for c in range(r + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[r, c] = m[c, r] = inv_sqrt2
            mats.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[r, c] = -1j * inv_sqrt2
            m[c, r] = 1j * inv_sqrt2
            mats.append(m)
    for diag in _diagonal_table(n).T:
        mats.append(np.diag(diag).astype(complex))
    if mats:
        return np.array(mats)
    return np.zeros((0, n, n), dtype=complex)


def _gell_mann_coordinates(stack: np.ndarray, shift_coeff: np.ndarray) -> np.ndarray:
    """Re tr(D_q M) for every slab M of an (R, n, n) stack, in O(n^2) each.

    D_q runs over one sector's directions in ``Parametrization`` order:
    the ``_gell_mann_stack(n)`` matrices, then the trace shifts
    ``shift_coeff[s] * I``.  The coordinates are read off the entries
    (sqrt2 Re M_rc and -sqrt2 Im M_rc for r < c when M is Hermitian,
    diag(M) against the diagonal table, and tr M for the shifts) instead
    of contracting against the dense (q, n, n) direction stack.
    """
    R, n, _ = stack.shape
    upper_r, upper_c = np.triu_indices(n, 1)
    pairs = upper_r.size
    upper = stack[:, upper_r, upper_c]
    lower = stack[:, upper_c, upper_r]
    diag = np.diagonal(stack, axis1=1, axis2=2).real
    out = np.empty((R, n * n - 1 + shift_coeff.size))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    out[:, 0 : 2 * pairs : 2] = (upper.real + lower.real) * inv_sqrt2
    out[:, 1 : 2 * pairs : 2] = (lower.imag - upper.imag) * inv_sqrt2
    out[:, 2 * pairs : n * n - 1] = diag @ _diagonal_table(n)
    out[:, n * n - 1 :] = np.outer(diag.sum(axis=1), shift_coeff)
    return out


class Parametrization:
    """Orthonormal affine coordinates on unit-trace PI states.

    d = sum_j (2j+1)^2 - 1 real coordinates; x = 0 is the compressed
    maximally mixed state.
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

        base = maximally_mixed_ensemble(layout)
        constants, stacks, indices = [], [], []
        for b, (two_j, n) in enumerate(zip(layout.two_j_values, dims)):
            gg = _gell_mann_stack(n)
            shifts = shift_coeff[b][:, None, None] * np.eye(n)[None, :, :]
            stacks.append(np.concatenate([gg, shifts.astype(complex)], axis=0))
            indices.append(
                np.concatenate(
                    [np.arange(gg_offsets[b], gg_offsets[b + 1]), shift_ids]
                ).astype(np.intp)
            )
            constants.append(base.blocks[two_j])
        self.affine = AffineBlockMap(constants, stacks, indices, self.dimension)

    def blocks(self, x: np.ndarray) -> dict[int, np.ndarray]:
        mats = self.affine.blocks(x)
        return dict(zip(self.layout.two_j_values, mats))

    def ensemble(self, x: np.ndarray) -> SpinEnsemble:
        return SpinEnsemble(layout=self.layout, blocks=self.blocks(x))

    def coordinates(self, ensemble: SpinEnsemble) -> np.ndarray:
        """Coordinates of an ensemble: x_i = tr((rho - base) B_i)."""
        if ensemble.layout != self.layout:
            raise ValueError("ensemble layout does not match parametrization")
        x = np.zeros(self.dimension)
        for two_j, C, coeff, idx in zip(
            self.layout.two_j_values,
            self.affine.constants,
            self.shift_coeff,
            self.affine.dir_indices,
        ):
            delta = ensemble.blocks[two_j] - C
            x[idx] += _gell_mann_coordinates(delta[None], coeff)[0]
        return x

    def basis_element(self, i: int) -> dict[int, np.ndarray]:
        """Materialize basis direction B_i as a block dictionary."""
        if not 0 <= i < self.dimension:
            raise IndexError(f"basis index {i} outside 0..{self.dimension - 1}")
        out = {}
        for two_j, D, idx in zip(
            self.layout.two_j_values, self.affine.dir_stacks, self.affine.dir_indices
        ):
            n = two_j + 1
            pos = np.flatnonzero(idx == i)
            out[two_j] = D[pos[0]].copy() if pos.size else np.zeros((n, n), complex)
        return out


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
    kind = spec.principle
    if kind in ("ml", "hedged"):
        mask = f > 0
        if np.any(p[mask] <= 0):
            raise ValueError("non-interior evaluation: p_k <= 0 where f_k > 0")
        return float(-np.sum(f[mask] * np.log(p[mask])))
    if kind == "ls":
        if spec.weights is None:
            raise ValueError("least-squares weights unresolved; pass them explicitly")
        w = spec.weights
        if w.shape != f.shape:
            raise ValueError("weights length does not match frequencies")
        return float(np.sum(w * (f - p) ** 2))
    # freels
    if np.any(p <= 0):
        raise ValueError("non-interior evaluation: p_k <= 0")
    return float(np.sum((f - p) ** 2 / p))


def resolve_least_squares_weights(frequencies, repetitions) -> np.ndarray:
    """Default LS weights 1/max(f, 1/(10*repetitions)) per outcome."""
    f = np.asarray(frequencies, dtype=float)
    floor = 1.0 / (10.0 * float(repetitions))
    return 1.0 / np.maximum(f, floor)


class FitModel:
    """A fit principle evaluated over parametrization coordinates.

    Precomputes p0 (the outcome probabilities of the maximally mixed
    state) and the overlap table G with p(x) = p0 + G x; rows run over
    (setting, outcome) in dataset order, as the outcomes of the
    ``StackedBlockSets`` it is built from.  Each (setting, sector) block
    of G is read off the dense POVM blocks by ``_gell_mann_coordinates``
    in O(n^2) per outcome.  Every fit Hessian has the form G^T diag(c) G
    with c >= 0 and is formed as the symmetric rank-k product Gs^T Gs of
    Gs = sqrt(c) G, which numpy hands to BLAS syrk (half the flops of a
    general product) and which is exactly symmetric.  The constant LS Hessian is built once and stored
    read-only.
    """

    def __init__(self, spec: FitSpec, parametrization: Parametrization,
                 measurement, frequencies):
        if spec.principle == "ls" and spec.weights is None:
            raise ValueError("least-squares weights unresolved; pass them explicitly")
        self.spec = spec
        self.parametrization = parametrization
        layout = parametrization.layout
        n = layout.n_qubits
        if measurement.n_qubits != n:
            raise ValueError("block set qubit number does not match layout")
        self.frequencies = np.concatenate(
            [np.asarray(fr, dtype=float).ravel() for fr in frequencies]
        )
        rows = measurement.n_outcomes
        if self.frequencies.size != rows:
            raise ValueError(
                f"{self.frequencies.size} frequencies for {rows} outcome rows"
            )
        indices = parametrization.affine.dir_indices
        shift_coeff = parametrization.shift_coeff
        G = np.zeros((rows, parametrization.dimension))
        # one setting at a time: the dense (n, n, n) outcome blocks of all
        # settings at once would raise peak memory for nothing
        for b, two_j in enumerate(layout.two_j_values):
            d = two_j + 1
            U_all = measurement.rotations[two_j]
            slots = measurement.outcome_slots(two_j)
            for start in range(0, U_all.shape[1], d):
                U = U_all[:, start : start + d]
                off = slots[start]
                G[off : off + d, indices[b]] += _gell_mann_coordinates(
                    np.einsum("mr,nr->rmn", U, U.conj()), shift_coeff[b]
                )
        self.G = G
        base = maximally_mixed_ensemble(layout)
        self.p0 = probabilities(base, measurement)
        self._mask = self.frequencies > 0
        self._ls_hessian = None
        if spec.principle == "ls":
            w = spec.weights
            if w.shape != self.frequencies.shape:
                raise ValueError("weights length does not match dataset rows")
            self._ls_hessian = self._gram(np.sqrt(2.0 * w))
            self._ls_hessian.setflags(write=False)

    def _gram(self, scale: np.ndarray) -> np.ndarray:
        """G^T diag(scale^2) G as the syrk product of scale * G."""
        Gs = self.G * scale[:, None]
        return Gs.T @ Gs

    def probabilities(self, x: np.ndarray) -> np.ndarray:
        return self.p0 + self.G @ x

    def value(self, x: np.ndarray) -> float:
        return fit_value(self.spec, self.frequencies, self.probabilities(x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        p = self.probabilities(x)
        f = self.frequencies
        kind = self.spec.principle
        if kind in ("ml", "hedged"):
            mask = self._mask
            if np.any(p[mask] <= 0):
                raise ValueError("non-interior evaluation: p_k <= 0 where f_k > 0")
            ratio = np.zeros_like(p)
            ratio[mask] = f[mask] / p[mask]
            return -(self.G.T @ ratio)
        if kind == "ls":
            return 2.0 * (self.G.T @ (self.spec.weights * (p - f)))
        if np.any(p <= 0):
            raise ValueError("non-interior evaluation: p_k <= 0")
        return self.G.T @ (1.0 - f**2 / p**2)

    def gradient_hessian(self, x: np.ndarray):
        """(gradient, Hessian) at x; the LS Hessian is the shared read-only
        array, the others are fresh and exactly symmetric."""
        p = self.probabilities(x)
        f = self.frequencies
        kind = self.spec.principle
        if kind in ("ml", "hedged"):
            mask = self._mask
            if np.any(p[mask] <= 0):
                raise ValueError("non-interior evaluation: p_k <= 0 where f_k > 0")
            ratio = np.zeros_like(p)
            ratio[mask] = f[mask] / p[mask]
            grad = -(self.G.T @ ratio)
            # curvature f / p^2, so sqrt(curvature) = sqrt(f) / p
            scale = np.zeros_like(p)
            scale[mask] = np.sqrt(f[mask]) / p[mask]
            return grad, self._gram(scale)
        if kind == "ls":
            w = self.spec.weights
            return 2.0 * (self.G.T @ (w * (p - f))), self._ls_hessian
        if np.any(p <= 0):
            raise ValueError("non-interior evaluation: p_k <= 0")
        grad = self.G.T @ (1.0 - f**2 / p**2)
        # curvature 2 f^2 / p^3 with f >= 0
        return grad, self._gram(math.sqrt(2.0) * f / (p * np.sqrt(p)))


class LinearFit:
    """Linear objective c^T x (used by the pretest LMI)."""

    def __init__(self, coefficients):
        self.c = np.asarray(coefficients, dtype=float).ravel()

    def value(self, x):
        return float(self.c @ x)

    def gradient(self, x):
        return self.c.copy()

    def gradient_hessian(self, x):
        return self.c.copy(), np.zeros((self.c.size, self.c.size))


def barrier_value_grad_hess(parametrization, x, t: float):
    """(value, grad, Hessian) of -t sum_j log det rho_j(x).

    Accepts a Parametrization or a bare AffineBlockMap; raises on
    non-interior x.
    """
    affine = getattr(parametrization, "affine", parametrization)
    chols = affine.cholesky_list(affine.blocks(np.asarray(x, dtype=float)))
    if chols is None:
        raise ValueError("non-interior point: a block is not positive definite")
    value, grad, hess = affine.barrier_grad_hess(chols)
    return t * value, t * grad, t * hess


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
    decrement: float  # lambda^2 = -g^T delta at x; NaN if no direction was formed there


def _newton_direction(H, g):
    """Solve H delta = -g by Cholesky, adding an escalating ridge on
    factorization failure or loss of descent (lambda = 1e-12 (1 + max
    diag), then x10, at most three escalations)."""
    max_diag = float(np.max(H.diagonal())) if H.size else 0.0
    ridge = 0.0
    for _ in range(4):
        Hw = H + ridge * np.eye(H.shape[0]) if ridge else H
        try:
            factor = cho_factor(Hw, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            ridge = 1e-12 * (1.0 + max_diag) if ridge == 0.0 else ridge * 10.0
            continue
        delta = cho_solve(factor, -g, check_finite=False)
        slope = float(g @ delta)
        if slope < 0.0 and np.all(np.isfinite(delta)):
            return delta, slope
        ridge = 1e-12 * (1.0 + max_diag) if ridge == 0.0 else ridge * 10.0
    raise NonConvergenceError("Newton system unsolvable even with ridge repair")


def newton_stage(fit, parametrization, t: float, x_start: np.ndarray,
                 config: SolverConfig | None = None, *,
                 exact: bool = True) -> StageResult:
    """Minimize fit(x) - t sum log det over the interior from x_start.

    Backtracking first restores feasibility (every block must pass
    Cholesky), then enforces Armijo sufficient decrease.  Starting at an
    optimum costs zero iterations.  It stops once lambda^2 = -g^T delta
    <= grad_tol^2 (or |g| <= grad_tol); with ``exact=False`` also once
    lambda^2 <= CENTERING * t, in Newton's quadratic region of fit/t + barrier.
    """
    cfg = config or SolverConfig()
    affine = getattr(parametrization, "affine", parametrization)
    x = np.asarray(x_start, dtype=float).copy()
    chols = affine.cholesky_list(affine.blocks(x))
    if chols is None:
        raise ValueError("newton_stage requires a strictly feasible start")
    fit_v = fit.value(x)
    obj = fit_v + t * affine.barrier_value(chols)

    iterations = 0
    grad_norm = math.inf
    decrement = math.nan
    converged = False
    eps = float(np.finfo(float).eps)
    for _ in range(cfg.max_newton_iters):
        g_fit, H_fit = fit.gradient_hessian(x)
        _, bg, bH = affine.barrier_grad_hess(chols)
        g = g_fit + t * bg
        grad_norm = float(np.linalg.norm(g))
        if grad_norm <= cfg.grad_tol:
            converged = True
            break
        # assembled in place: bH is fresh each step, H_fit may be shared
        bH *= t
        bH += H_fit
        delta, slope = _newton_direction(bH, g)
        decrement = -slope
        # Affine-invariant centrality: the squared Newton decrement
        # g^T H^-1 g is what self-concordance bounds the remaining
        # decrease by.  In badly scaled geometry (barrier curvature
        # ~1/lambda^2 near the cone boundary) the plain gradient norm
        # can sit far above grad_tol while the iterate is already
        # central to machine precision; the decrement is not fooled.
        if decrement <= cfg.grad_tol**2 or (not exact and decrement <= CENTERING * t):
            converged = True
            break

        if -slope > 64.0 * eps * abs(obj):
            # ordinary phase: feasibility, then Armijo sufficient decrease
            step = 1.0
            accepted = False
            while step >= 1e-16:
                x_new = x + step * delta
                chols_new = affine.cholesky_list(affine.blocks(x_new))
                if chols_new is not None:
                    fit_new = fit.value(x_new)
                    obj_new = fit_new + t * affine.barrier_value(chols_new)
                    if obj_new <= obj + cfg.ls_alpha * step * slope:
                        accepted = True
                        break
                step *= cfg.ls_shrink
            if not accepted:
                converged = grad_norm <= cfg.grad_tol * (1.0 + abs(obj))
                break
        else:
            # endgame: the predicted decrease is beneath the objective's
            # roundoff, so Armijo cannot certify progress.  Take the full
            # (feasibility-damped) Newton step as long as it strictly
            # shrinks the gradient norm; quadratic convergence still has
            # several orders of gradient reduction left here.
            step = 1.0
            chols_new = None
            while step >= 1e-16:
                x_new = x + step * delta
                chols_new = affine.cholesky_list(affine.blocks(x_new))
                if chols_new is not None:
                    break
                step *= cfg.ls_shrink
            if chols_new is None:
                converged = grad_norm <= cfg.grad_tol * (1.0 + abs(obj))
                break
            _, bg_new = affine.barrier_grad(chols_new)
            g_new = fit.gradient(x_new) + t * bg_new
            if float(np.linalg.norm(g_new)) >= grad_norm:
                converged = grad_norm <= cfg.grad_tol * (1.0 + abs(obj))
                break
            fit_new = fit.value(x_new)
            obj_new = fit_new + t * affine.barrier_value(chols_new)
        x, chols, obj, fit_v = x_new, chols_new, obj_new, fit_new
        decrement = math.nan
        iterations += 1
    else:
        # iteration budget exhausted; check the final gradient once more
        _, bg = affine.barrier_grad(chols)
        grad_norm = float(np.linalg.norm(fit.gradient(x) + t * bg))
        converged = grad_norm <= cfg.grad_tol

    return StageResult(
        x=x,
        iterations=iterations,
        grad_norm=grad_norm,
        converged=converged,
        objective=obj,
        fit_value=fit_v,
        decrement=decrement,
    )


def t_schedule(config: SolverConfig, floor: float | None = None) -> list[float]:
    """Barrier weights t0, t0/r, ... down to the floor (t_min or beta)."""
    stop = config.t_min if floor is None else floor
    if stop >= config.t0:
        return [stop]
    count = math.ceil(
        math.log(config.t0 / stop) / math.log(config.t_reduce) - 1e-9
    )
    ts = [config.t0 / config.t_reduce**i for i in range(count)]
    ts.append(stop)
    return ts


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
    """Assemble the FitModel (overlap table, frequencies) for a dataset."""
    freqs = [rec.frequencies for rec in dataset.records]
    layout = sector_layout(dataset.n_qubits)
    param = parametrization or Parametrization(layout)
    measurement = stacked_blocks(dataset.n_qubits, [rec.setting for rec in dataset.records])
    resolved = _resolve_spec(spec, dataset, freqs)
    return FitModel(resolved, param, measurement, freqs)


def reconstruct(dataset, spec: FitSpec,
                config: SolverConfig | None = None) -> ReconstructionResult:
    """Interior-point reconstruction of a PI state from count data.

    Runs the barrier Newton outer loop over the t schedule (stopping at
    t = beta for the hedged principle) with warm starts, and returns the
    final estimate with its optimality-gap certificate
    gap_bound = t_final * compressed_dim.
    """
    cfg = config or SolverConfig()
    model = build_fit_model(dataset, spec)
    param = model.parametrization
    hedged = spec.principle == "hedged"
    schedule = t_schedule(cfg, spec.beta if hedged else None)

    x = np.zeros(param.dimension)
    trace = []
    all_converged = True
    for i, t in enumerate(schedule):
        stage = newton_stage(model, param, t, x, cfg, exact=i >= len(schedule) - EXACT_STAGES)
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
