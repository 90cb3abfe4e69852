"""Measurement-setting design by Bloch-vector error minimization.

A PI state is fixed by the expectation values of the symmetrized Pauli
products [sigma_x^k sigma_y^l sigma_z^m 1^n]_PI.  Each measured axis a
gives access to the symmetrized powers [(a.sigma)^(x)w (x) 1]_PI, which
expand over the weight-w products with coefficients
multinomial(w; k,l,m) a_x^k a_y^l a_z^m.  Inverting that expansion
(the minimum-norm solution, from one Householder QR per weight) yields
per-element estimators whose variances, propagated with squared
coefficients and weighted by the multinomial element count, form the
total-error figure of merit that the random-walk optimizer minimizes
(Toth et al., PRL 105, 250403 (2010)).

The figure of merit is evaluated for every proposal, so it works on
whole tables: one power table a_c^p per settings list feeds the
expansion matrix of every weight (multinomial coefficients cached per
weight), the outcome distributions of all settings come from one batched
rotation build, and the moment means and variances of all weights are
two (S, N+1) @ (N+1, N+1) products with the table of the cached
moment coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_triangular

from .povm import Setting, moment_coefficients, probabilities, rotated_blocks, stacked_blocks
from .spin_blocks import SpinEnsemble

__all__ = [
    "BlochIndex",
    "DesignProblem",
    "OptimizationResult",
    "RankDeficientSettings",
    "bloch_coefficients",
    "determined_setting_count",
    "element_error",
    "first_deficient_weight",
    "moment_variance",
    "optimize_settings",
    "random_settings",
    "total_error",
]

# Smallest setting count that can determine every Bloch element of an
# N-qubit PI state: one per weight-w monomial, summed over w = 0..N.
def determined_setting_count(n_qubits: int) -> int:
    return (n_qubits + 1) * (n_qubits + 2) // 2


# Settings closer than this angle (radians), up to sign, count as the
# same measurement.
DUPLICATE_ANGLE_TOL = 1e-6

# A least-squares residual above this marks the monomial as outside the
# span of the settings' expansion rows.
RANK_RESIDUAL_TOL = 1e-8


class RankDeficientSettings(ValueError):
    """Settings do not span the weight-w symmetrized products."""

    def __init__(self, weight: int, residual: float):
        self.weight = weight
        self.residual = residual
        super().__init__(
            f"settings do not span weight-{weight} operators "
            f"(least-squares residual {residual:.3e})"
        )


@dataclass(frozen=True)
class BlochIndex:
    """Exponents (k, l, m, n) of one element [x^k y^l z^m 1^n]_PI."""

    k: int
    l: int
    m: int
    n: int

    def __post_init__(self):
        for name in ("k", "l", "m", "n"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise ValueError(f"index {name}={v!r} must be a non-negative integer")

    @property
    def n_qubits(self) -> int:
        return self.k + self.l + self.m + self.n

    @property
    def weight(self) -> int:
        return self.k + self.l + self.m

    @property
    def multiplicity(self) -> int:
        """Number of distinct qubit arrangements of this element."""
        return (
            math.comb(self.n_qubits, self.k)
            * math.comb(self.n_qubits - self.k, self.l)
            * math.comb(self.n_qubits - self.k - self.l, self.m)
        )


@lru_cache(maxsize=64)
def _weight_monomials(weight: int) -> tuple[tuple[int, int, int], ...]:
    """All (k, l, m) with k + l + m = weight, in a fixed order."""
    return tuple(
        (k, l, weight - k - l)
        for k in range(weight + 1)
        for l in range(weight - k + 1)
    )


@lru_cache(maxsize=64)
def _monomial_table(weight: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents (monomials, 3) of ``_weight_monomials(weight)`` and their
    multinomial coefficients w!/(k! l! m!) as floats, both read-only.

    The coefficients are exact in double precision for every weight that
    ``sector_layout`` admits (w <= 30 keeps them below 2^53).
    """
    monos = _weight_monomials(weight)
    exps = np.array(monos, dtype=np.intp).reshape(-1, 3)
    multinomial = np.array([
        math.factorial(weight) // (math.factorial(k) * math.factorial(l) * math.factorial(m))
        for k, l, m in monos
    ], dtype=float)
    exps.setflags(write=False)
    multinomial.setflags(write=False)
    return exps, multinomial


def _axis_powers(settings, max_weight: int) -> np.ndarray:
    """Power table (S, max_weight + 1, 3): entry [i, p, c] is a_c^p of
    setting i, shared by the expansion matrices of every weight.

    The powers come from the C library's pow, not numpy's vectorized
    power: the high-weight systems are ill-conditioned (condition ~4e6 at
    N=12), and numpy's last-bit differences move total_error by ~1e-10.
    """
    comps = [c for s in settings for c in s.axis.tolist()]
    table = np.array([[c**p for p in range(max_weight + 1)] for c in comps])
    return table.reshape(-1, 3, max_weight + 1).transpose(0, 2, 1)


def _expansion_matrix(powers: np.ndarray, weight: int) -> np.ndarray:
    """Row i holds the weight-w expansion of [(a_i.sigma)^(x)w (x) 1]_PI,
    multinomial(w; k,l,m) a_x^k a_y^l a_z^m per monomial, read off the
    power table of ``_axis_powers``."""
    exps, multinomial = _monomial_table(weight)
    return (
        multinomial
        * powers[:, exps[:, 0], 0]
        * powers[:, exps[:, 1], 1]
        * powers[:, exps[:, 2], 2]
    )


def _min_norm_solve(mat: np.ndarray, rhs: np.ndarray, weight: int) -> np.ndarray:
    """The least-norm X with mat^T X = rhs: X = Q R^-T rhs from the
    Householder QR mat = Q R of the (settings, monomials) expansion
    matrix.  Raises ``RankDeficientSettings`` (residual inf) when there
    are fewer settings than monomials or R has a zero pivot (below
    eps * max(shape) * the largest, the cutoff of an SVD least-squares
    solve), and with the residual when it exceeds RANK_RESIDUAL_TOL."""
    if mat.shape[0] < mat.shape[1]:
        raise RankDeficientSettings(weight, math.inf)
    q, r = np.linalg.qr(mat)
    pivots = np.abs(r.diagonal())
    if not pivots.min() > np.finfo(float).eps * max(mat.shape) * pivots.max():
        raise RankDeficientSettings(weight, math.inf)
    coeff = q @ solve_triangular(r, rhs, trans="T", check_finite=False)
    residual = float(np.abs(mat.T @ coeff - rhs).max())
    if residual > RANK_RESIDUAL_TOL:
        raise RankDeficientSettings(weight, residual)
    return coeff


def _solve_weight(powers: np.ndarray, weight: int) -> np.ndarray:
    """Min-norm coefficients for every weight-w monomial: column j of the
    result combines the settings into monomial j.  Raises on deficiency."""
    mat = _expansion_matrix(powers, weight)
    return _min_norm_solve(mat, np.eye(mat.shape[1]), weight)


def bloch_coefficients(settings, bloch_index: BlochIndex) -> np.ndarray:
    """Per-setting coefficients c_i with
    sum_i c_i [(a_i.sigma)^(x)w (x) 1]_PI = [x^k y^l z^m 1^n]_PI,
    the minimum-norm solution of the expansion system.

    Only the requested monomial has to be reachable, so a deliberately
    small setting list (even a single aligned axis) is fine here even
    though it could not support every element of the same weight; that
    needs the SVD least-squares solve, not ``_min_norm_solve``.
    """
    monos = _weight_monomials(bloch_index.weight)
    rhs = np.zeros(len(monos))
    rhs[monos.index((bloch_index.k, bloch_index.l, bloch_index.m))] = 1.0
    mat = _expansion_matrix(_axis_powers(settings, bloch_index.weight), bloch_index.weight)
    coeff, *_ = np.linalg.lstsq(mat.T, rhs, rcond=None)
    residual = float(np.abs(mat.T @ coeff - rhs).max())
    if residual > RANK_RESIDUAL_TOL:
        raise RankDeficientSettings(bloch_index.weight, residual)
    return coeff


def moment_variance(state: SpinEnsemble, setting: Setting, weight: int) -> float:
    """Outcome variance of the weight-w moment estimator on ``state``.

    The symmetrized power is diagonal in the measured collective basis
    with eigenvalue K(k, w, N) on outcome k, so its variance under the
    outcome distribution is sum_k K^2 p_k - (sum_k K p_k)^2.
    """
    n = state.layout.n_qubits
    p = probabilities(state, rotated_blocks(n, setting))
    kk = moment_coefficients(n, weight)
    mean = float(kk @ p)
    return float(kk**2 @ p - mean**2)


@dataclass(frozen=True)
class DesignProblem:
    """Target state, candidate settings, and the error-scale constant."""

    n_qubits: int
    target: SpinEnsemble
    settings: tuple[Setting, ...]
    noise_constant: float = 1.0

    def __post_init__(self):
        if self.target.layout.n_qubits != self.n_qubits:
            raise ValueError("target state does not match n_qubits")
        if not self.noise_constant > 0:
            raise ValueError("noise_constant must be positive")
        settings = tuple(self.settings)
        needed = determined_setting_count(self.n_qubits)
        if len(settings) < needed:
            raise ValueError(
                f"{len(settings)} settings cannot determine an N={self.n_qubits} "
                f"state; at least {needed} are required"
            )
        axes = np.array([s.axis for s in settings])
        # separation up to sign of every pair: min(|a_i - a_j|, |a_i + a_j|)
        gap = np.minimum(
            np.linalg.norm(axes[:, None] - axes[None], axis=-1),
            np.linalg.norm(axes[:, None] + axes[None], axis=-1),
        )
        rows, cols = np.triu_indices(len(axes), 1)
        close = np.flatnonzero(gap[rows, cols] < DUPLICATE_ANGLE_TOL)
        if close.size:
            i, j = rows[close[0]], cols[close[0]]
            raise ValueError(
                f"settings {i} and {j} coincide up to sign "
                f"(separation {gap[i, j]:.2e})"
            )
        object.__setattr__(self, "settings", settings)


def element_error(problem: DesignProblem, settings, bloch_index: BlochIndex) -> float:
    """Squared estimation error of one Bloch element:
    K * sum_i c_i^2 * variance_i (independent per-setting errors)."""
    if bloch_index.n_qubits != problem.n_qubits:
        raise ValueError(
            f"index {bloch_index} is for N={bloch_index.n_qubits}, "
            f"problem has N={problem.n_qubits}"
        )
    c = bloch_coefficients(settings, bloch_index)
    variances = np.array(
        [moment_variance(problem.target, s, bloch_index.weight) for s in settings]
    )
    return float(problem.noise_constant * np.sum(c**2 * variances))


def total_error(problem: DesignProblem, settings) -> float:
    """Multinomially weighted squared error summed over all Bloch
    elements; +inf when any weight is outside the settings' span.

    The expansion matrices of all weights read one power table.  One
    batched rotation build and one contraction give the (S, N+1) outcome
    table P, so the estimator means and variances of every weight are
    the columns of P @ K and P @ K^2 - (P @ K)^2, K being the moment
    table.
    """
    n = problem.n_qubits
    settings = list(settings)
    powers = _axis_powers(settings, n)
    try:
        coeffs = [_solve_weight(powers, weight) for weight in range(n + 1)]
    except RankDeficientSettings:
        return math.inf
    probs = probabilities(problem.target, stacked_blocks(n, settings)).reshape(
        len(settings), n + 1
    )
    # column w of the moment table is K(., w, N)
    kk = np.column_stack([moment_coefficients(n, w) for w in range(n + 1)])
    means = probs @ kk
    variances = probs @ kk**2 - means**2
    total = 0.0
    for weight, coeff in enumerate(coeffs):
        # element multiplicity = multinomial(N; k, l, m, N-w)
        mult = math.comb(n, weight) * _monomial_table(weight)[1]
        total += float(variances[:, weight] @ coeff**2 @ mult)
    return problem.noise_constant * total


def first_deficient_weight(settings, n_qubits: int) -> int | None:
    """Smallest weight whose monomials the settings cannot all reach,
    or None when every coefficient system is solvable."""
    powers = _axis_powers(settings, n_qubits)
    for w in range(n_qubits + 1):
        try:
            _solve_weight(powers, w)
        except RankDeficientSettings as err:
            return err.weight
    return None


def random_settings(count: int, seed=None) -> list[Setting]:
    """Uniformly random measurement axes (sphere-symmetric Gaussians)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = rng.normal(size=3)
        norm = np.linalg.norm(v)
        while norm < 1e-12:
            v = rng.normal(size=3)
            norm = np.linalg.norm(v)
        out.append(Setting(axis=v / norm))
    return out


@dataclass(frozen=True)
class OptimizationResult:
    settings: tuple[Setting, ...]
    error_trace: np.ndarray
    proposals: int

    @property
    def final_error(self) -> float:
        return float(self.error_trace[-1])


def optimize_settings(problem: DesignProblem, seed=None, p_mix: float = 0.9,
                      max_stall: int = 500) -> OptimizationResult:
    """Random-walk descent on total_error.

    Every proposal blends each axis with a fresh random unit vector,
    a' = normalize(p_mix * a + (1 - p_mix) * r), and is accepted only on
    strict decrease; the walk stops after ``max_stall`` consecutive
    rejections and returns the best settings seen.
    """
    if not 0.0 < p_mix < 1.0:
        raise ValueError("p_mix must lie strictly between 0 and 1")
    if max_stall < 1:
        raise ValueError("max_stall must be >= 1")
    rng = np.random.default_rng(seed)
    current = list(problem.settings)
    best = total_error(problem, current)
    trace = [best]
    proposals = 0
    stall = 0
    while stall < max_stall:
        proposal = []
        for s in current:
            r = rng.normal(size=3)
            r /= np.linalg.norm(r)
            blended = p_mix * s.axis + (1.0 - p_mix) * r
            norm = np.linalg.norm(blended)
            proposal.append(Setting(axis=blended / norm) if norm > 1e-12 else Setting(axis=r))
        proposals += 1
        err = total_error(problem, proposal)
        if err < best:
            current, best = proposal, err
            trace.append(err)
            stall = 0
        else:
            stall += 1
    return OptimizationResult(
        settings=tuple(current), error_trace=np.asarray(trace), proposals=proposals
    )
