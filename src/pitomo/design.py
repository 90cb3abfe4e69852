"""Measurement-setting design by Bloch-vector error minimization.

A PI state is fixed by the expectation values of the symmetrized Pauli
products [sigma_x^k sigma_y^l sigma_z^m 1^n]_PI.  Each measured axis a
gives access to the symmetrized powers [(a.sigma)^(x)w (x) 1]_PI, which
expand over the weight-w products with coefficients
multinomial(w; k,l,m) a_x^k a_y^l a_z^m.  Inverting that expansion
(the minimum-norm solution) yields per-element estimators whose
variances, propagated with squared coefficients and weighted by the
multinomial element count, form the total-error figure of merit that
the random-walk optimizer minimizes (Toth et al., PRL 105, 250403
(2010)).

The figure of merit is evaluated for every proposal, so it works on
whole tables and builds no rotation: one gather from one power table
a_c^p per settings list gives the expansion matrix E_w of every weight.
Each E_w costs one Householder QR (LAPACK's ``dgeqrf``), whose pivots
alone decide rank (an absolute residual test would not scale with the
condition, 1e10 at N=30 on random determined designs), and one
triangular solve (BLAS ``dtrsm``) against Q (``dorgqr``) gives the
squared coefficients.  These are scipy's compiled routines, loaded by
``_lapack`` without importing ``scipy.linalg``; a nonzero LAPACK status
raises, naming the routine.  The outcome moments are polynomials
in the axis whose coefficients are the target's Bloch elements, so the
moment means of all settings are one product of the expansion matrices
with those elements, and their second moments follow from the
Krawtchouk product rule, one (S, N+1) @ (N+1, N+1) product with a
cached table.  The target's elements are read once per problem from
one batched rotation build on a fixed reference design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._lapack import check_info, dgeqrf, dorgqr, dtrsm
from .povm import Setting, moment_coefficients, probabilities, stacked_blocks
from .povm import rotated_blocks  # unused here; kept so the benchmark tracer's hook resolves
from .spin_blocks import SpinEnsemble

__all__ = [
    "BlochIndex",
    "DesignProblem",
    "OptimizationResult",
    "RankDeficientSettings",
    "determined_setting_count",
    "first_deficient_weight",
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

# LAPACK workspace per column for a blocked QR; the wrappers' default
# of 3 makes the QR of a weight-30 system about 1.8x slower.
QR_BLOCK = 64


class RankDeficientSettings(ValueError):
    """Settings do not span the weight-w symmetrized products.  The
    package raises it with residual inf, from the QR pivot test."""

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
def _weight_tables(n_qubits: int) -> tuple[np.ndarray, ...]:
    """The monomials of every weight w = 0..N, each weight's in
    ``_weight_monomials(w)`` order, concatenated over w: their exponents
    (monomials, 3), multinomial coefficients w!/(k! l! m!) and element
    multiplicities N!/(k! l! m! (N-w)!) as floats, and the (N+2,) starts
    of each weight's run.  All read-only.

    The coefficients are exact in double precision for every N that
    ``sector_layout`` admits (N <= 30 keeps them below 2^53).
    """
    n, f = n_qubits, math.factorial
    monos = [mono for w in range(n + 1) for mono in _weight_monomials(w)]
    exps = np.array(monos, dtype=np.intp)
    multinomial = np.array([f(k + l + m) / (f(k) * f(l) * f(m)) for k, l, m in monos])
    multiplicity = multinomial * [math.comb(n, k + l + m) for k, l, m in monos]
    starts = np.cumsum([0] + [len(_weight_monomials(w)) for w in range(n + 1)])
    for table in (exps, multinomial, multiplicity, starts):
        table.setflags(write=False)
    return exps, multinomial, multiplicity, starts


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


def _expansion_rows(powers: np.ndarray) -> np.ndarray:
    """The expansion matrices E_w of every weight w up to the power
    table's, transposed and stacked: rows starts[w]:starts[w+1]
    (``_weight_tables``) are E_w^T.  Row i of E_w holds the weight-w
    expansion of [(a_i.sigma)^(x)w (x) 1]_PI, multinomial(w; k,l,m)
    a_x^k a_y^l a_z^m per monomial."""
    exps, multinomial, _, _ = _weight_tables(powers.shape[1] - 1)
    # one (monomials, S) gather alive at a time beside the result
    rows = multinomial[:, None] * powers[:, exps[:, 0], 0].T
    rows *= powers[:, exps[:, 1], 1].T
    rows *= powers[:, exps[:, 2], 2].T
    return rows


def _householder(mat: np.ndarray, weight: int) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK's Householder QR (qr, tau) of the (settings, monomials)
    expansion matrix, overwriting ``mat`` when it is Fortran-ordered.
    The one rank test: raises ``RankDeficientSettings`` (residual inf)
    when there are fewer settings than monomials or R has a zero pivot,
    below eps * max(shape) * the largest (an SVD least-squares cutoff)."""
    rows, cols = mat.shape
    if rows < cols:
        raise RankDeficientSettings(weight, math.inf)
    qr, tau, _, info = dgeqrf(mat, lwork=QR_BLOCK * cols, overwrite_a=True)
    check_info("dgeqrf", info)
    pivots = np.abs(qr.diagonal())
    if not pivots.min() > np.finfo(float).eps * rows * pivots.max():
        raise RankDeficientSettings(weight, math.inf)
    return qr, tau


def _squared_coefficients(mat: np.ndarray, multiplicity: np.ndarray,
                          weight: int) -> np.ndarray:
    """sum_m multiplicity_m X_im^2 per setting i, X being the least-norm
    solution of mat^T X = I: X = Q R^-T from the QR of ``_householder``
    (which may overwrite ``mat``), one triangular solve X R^T = Q."""
    qr, tau = _householder(mat, weight)
    cols = mat.shape[1]
    r = qr[:cols].copy(order="F")  # dtrsm reads only its upper triangle
    q, _, info = dorgqr(qr, tau, lwork=QR_BLOCK * cols, overwrite_a=True)
    check_info("dorgqr", info)
    x = dtrsm(1.0, r, q, side=1, trans_a=1, overwrite_b=True)
    return x**2 @ multiplicity


def _reference_settings(n_qubits: int) -> list[Setting]:
    """determined_setting_count(N) axes on a golden spiral over the upper
    hemisphere, equally spaced in z.  No two are antipodal, and for every
    N = 1..30 they pass the pivot test at every weight (condition of the
    weight-N system 7e2 at N=12, 3.6e7 at N=30; random designs 1e10)."""
    count = determined_setting_count(n_qubits)
    turn = math.pi * (3.0 - math.sqrt(5.0))
    out = []
    for i in range(count):
        z = 1.0 - (i + 0.5) / count
        r, phi = math.sqrt(1.0 - z * z), turn * i
        out.append(Setting(axis=np.array([r * math.cos(phi), r * math.sin(phi), z])))
    return out


@lru_cache(maxsize=64)
def _krawtchouk_squares(n_qubits: int) -> np.ndarray:
    """Read-only (N+1, N+1) table T with K(k,w,N)^2 = sum_v T[v, w] K(k,v,N).

    K(k,w,N) averages the sign product over the w-subsets of the qubits.
    Two w-subsets that share o qubits multiply to the sign product of
    their symmetric difference, of size 2w - 2o, so

        K(k,w)^2 = sum_o C(w,o) C(N-w,w-o) / C(N,w) K(k, 2w-2o)

    over the o with w - o <= N - w (the Krawtchouk product identity,
    MacWilliams & Sloane, ch. 5).
    """
    n = n_qubits
    table = np.zeros((n + 1, n + 1))
    for w in range(n + 1):
        for o in range(max(0, 2 * w - n), w + 1):
            pairs = math.comb(w, o) * math.comb(n - w, w - o)
            table[2 * w - 2 * o, w] = pairs / math.comb(n, w)
    table.setflags(write=False)
    return table


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
        if not 0.0 < self.noise_constant < math.inf:
            raise ValueError("noise_constant must be positive and finite")
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

    @cached_property
    def bloch_elements(self) -> tuple[np.ndarray, ...]:
        """The target's Bloch elements <[x^k y^l z^m 1^n]_PI>, one read-only
        array per weight w in ``_weight_monomials(w)`` order, computed on
        first use and kept on the instance.

        They solve, by least squares, the weight-w expansion system of the
        reference design (``_reference_settings``) against the target's
        weight-w moments sum_k K(k,w,N) p_k on that design, whose outcome
        distributions come from one batched rotation build.
        """
        n = self.n_qubits
        reference = _reference_settings(n)
        probs = probabilities(self.target, stacked_blocks(n, reference)).reshape(
            len(reference), n + 1
        )
        rows = _expansion_rows(_axis_powers(reference, n))
        starts = _weight_tables(n)[3]
        out = []
        for weight in range(n + 1):
            mat = rows[starts[weight]:starts[weight + 1]].T
            elements, *_ = np.linalg.lstsq(
                mat, probs @ moment_coefficients(n, weight), rcond=None
            )
            elements.setflags(write=False)
            out.append(elements)
        return tuple(out)


def total_error(problem: DesignProblem, settings) -> float:
    """Multinomially weighted squared error summed over all Bloch
    elements; +inf when any weight is outside the settings' span.

    No rotation is built.  One gather from one power table gives the
    expansion matrices E_w of every weight, and with them the min-norm
    coefficients (one QR each, ``_squared_coefficients``) and the moment
    means E_w @ b_w of every setting, b_w being the target's weight-w
    Bloch elements (``DesignProblem.bloch_elements``).  The second
    moments sum_k K(k,w)^2 p_k follow from the product rule

        K(k,w)^2 = sum_o C(w,o) C(N-w,w-o) / C(N,w) K(k, 2w-2o),

    so the variances of all weights are means @ T - means^2, T being the
    cached table of ``_krawtchouk_squares``.
    """
    n = problem.n_qubits
    *_, multiplicity, starts = _weight_tables(n)
    rows = _expansion_rows(_axis_powers(settings, n))
    elements = np.concatenate(problem.bloch_elements)
    means = np.add.reduceat(rows * elements[:, None], starts[:-1], axis=0).T
    variances = means @ _krawtchouk_squares(n) - means**2
    total = 0.0
    try:
        for weight in range(n + 1):
            run = slice(starts[weight], starts[weight + 1])
            total += float(variances[:, weight] @ _squared_coefficients(
                rows[run].T, multiplicity[run], weight
            ))
    except RankDeficientSettings:
        return math.inf
    return problem.noise_constant * total


def first_deficient_weight(settings, n_qubits: int) -> int | None:
    """Smallest weight whose monomials the settings cannot all reach (by
    the pivot test of ``_householder``), or None when they reach all."""
    starts = _weight_tables(n_qubits)[3]
    rows = _expansion_rows(_axis_powers(settings, n_qubits))
    for w in range(n_qubits + 1):
        try:
            _householder(rows[starts[w]:starts[w + 1]].T, w)
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
