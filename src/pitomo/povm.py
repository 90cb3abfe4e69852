"""Coarse-grained collective measurements in the spin-block representation.

Every qubit is measured along the same unit vector a, and only the count
k of "+1" results is recorded (k = 0..N).  The resulting POVM commutes
with qubit permutations, so each element splits over the spin sectors:

    M_k^a = (+)_j  M_{k,j}^a (x) 1_{K_j}.

Along the z axis the block elements are rank-1 projectors onto the basis
state with magnetic quantum number m = k - N/2 (k up-spins out of N),
present only when |m| <= j.  A general axis follows by the collective
rotation taking e_z to a:

    M_{k,j}^a = W_j M_{k,j}^{e_z} W_j^dagger,
    W_j = exp(-i theta n.S_j),   n = (e_z x a)/|e_z x a|,
    theta = atan2(|e_z x a|, a_z),

with n = e_x when a is (anti)parallel to e_z.  Since n lies in the xy
plane, n.S_j = R_z(phi) S_y R_z(-phi) with phi = atan2(-n_x, n_y) and
R_z(phi) = exp(-i phi S_z) = diag(e^{-i phi m}), so W_j factorises into
the Wigner small-d matrix between two diagonal phases,

    W_j = R_z(phi) d^j(theta) R_z(-phi),
    d^j(theta) = V diag(e^{-i theta mu}) V^dagger    (real),

where S_y = V diag(mu) V^dagger is diagonalised once per sector and
cached (Feng, Wang, Yang & Jin, PRE 92, 043307 (2015)).  No
decomposition is made per setting: ``stacked_blocks`` builds W_j for a
whole list of settings as one (S, n, n) batched product per sector, and
``rotated_blocks`` is its one-setting case.

Every block element is the rank-one projector u u^dagger onto one column
of W_j, and a ``MeasurementBlockSet`` stores only U_j = W_j[:, ::-1] per
sector: column r of U_j is the vector that outcome k = k_offset(2j) + r
projects onto.  All contractions go through two operations on U_j:

    forward   p_k = sum_j [diag(U_j^dagger rho_j U_j)]_r      (probabilities)
    adjoint   sum_k w_k M_{k,j}^a = U_j diag(w) U_j^dagger    (weighted_sum)

They are adjoint: sum_k w_k p_k = sum_j tr(rho_j weighted_sum(w)_j).
The same two operations serve ``StackedBlockSets``, the U_j of several
settings concatenated column-wise (n x S n), so a contraction over all
settings is one product per sector.  The dense per-outcome stacks are
derived on demand (``sector_stacks``).

The module also provides the moment coefficients K(k,w,N) that convert
outcome distributions into expectation values of symmetrized w-fold
tensor powers of a.sigma: since the POVM is the eigen-decomposition of
the collective measurement, [(a.sigma)^{(x)w} (x) 1]_PI = sum_k K M_k^a
holds as an operator identity, so second moments use K^2 with the same
probabilities.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spin_blocks import (
    PSD_TOL,
    SpinEnsemble,
    SpinSectorLayout,
    _as_readonly,
    hermitian_expm,  # unused here; kept so the benchmark tracer's hook resolves
    sector_layout,
    spin_operators,
)

__all__ = [
    "Setting",
    "E1",
    "E2",
    "E3",
    "MeasurementBlockSet",
    "StackedBlockSets",
    "stacked_blocks",
    "rotation_params",
    "standard_blocks",
    "rotated_blocks",
    "probabilities",
    "moment_coefficients",
    "load_settings",
    "save_settings",
]

UNIT_NORM_TOL = 1e-12
# an accepted SpinEnsemble has p_k >= -PSD_TOL up to roundoff
PROBABILITY_ROUNDOFF = 2 * PSD_TOL
LOAD_NORM_WARN = 1e-6


@dataclass(frozen=True)
class Setting:
    """A measurement direction: unit 3-vector (tolerance 1e-12)."""

    axis: np.ndarray

    def __post_init__(self):
        ax = np.asarray(self.axis, dtype=float).reshape(3)
        norm = float(np.linalg.norm(ax))
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"setting axis norm {norm!r} deviates from 1")
        ax = ax.copy()
        ax.setflags(write=False)
        object.__setattr__(self, "axis", ax)

    @classmethod
    def from_vector(cls, vec, warn_tol: float = LOAD_NORM_WARN) -> "Setting":
        """Normalize an arbitrary non-zero 3-vector into a Setting."""
        v = np.asarray(vec, dtype=float).reshape(3)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise ValueError("setting axis must be non-zero")
        if abs(norm - 1.0) > warn_tol:
            warnings.warn(
                f"setting axis norm {norm:.8f} deviates from 1 by more than "
                f"{warn_tol:g}; normalizing",
                stacklevel=2,
            )
        return cls(axis=v / norm)


E1 = Setting(axis=np.array([1.0, 0.0, 0.0]))
E2 = Setting(axis=np.array([0.0, 1.0, 0.0]))
E3 = Setting(axis=np.array([0.0, 0.0, 1.0]))


def rotation_params(setting: Setting) -> tuple[np.ndarray, float]:
    """Rotation axis and angle taking e_z onto the measurement direction.

    Returns (n, theta) with n a unit vector orthogonal to e_z.  For
    settings (anti)parallel to e_z the axis degenerates; e_x is returned
    with theta = 0 or pi.  theta = atan2(|e_z x a|, a_z) stays accurate
    next to the poles, where arccos(a_z) loses every digit.
    """
    a = setting.axis
    cross = np.array([-a[1], a[0], 0.0])  # e_z x a
    norm = math.hypot(a[0], a[1])
    theta = math.atan2(norm, a[2])
    if norm == 0.0:
        return np.array([1.0, 0.0, 0.0]), theta
    return cross / norm, theta


class _RankOnePOVM:
    """Adjoint shared by single-setting and stacked block sets: column r
    of ``rotations[two_j]`` is the vector that outcome
    ``outcome_slots(two_j)[r]`` projects onto, out of ``n_outcomes``."""

    def weighted_sum(self, weights) -> dict[int, np.ndarray]:
        """Adjoint of ``probabilities``: {two_j: sum_k w_k M_{k,j}}, each
        U_j diag(w[outcome_slots(two_j)]) U_j^dagger."""
        w = np.asarray(weights, dtype=float)
        if w.shape != (self.n_outcomes,):
            raise ValueError(
                f"weights have shape {w.shape}, expected ({self.n_outcomes},)"
            )
        return {
            two_j: (U * w[self.outcome_slots(two_j)]) @ U.conj().T
            for two_j, U in self.rotations.items()
        }


@dataclass(frozen=True)
class MeasurementBlockSet(_RankOnePOVM):
    """Block-diagonal POVM for one setting, one (2j+1) x (2j+1) unitary per
    sector.

    ``rotations[two_j]`` is U_j = W_j[:, ::-1]: outcome
    k = k_offset(two_j) + r has the block u_r u_r^dagger with u_r column r
    of U_j.  Outcomes outside that range have no support in the sector
    (structural zeros).  ``probabilities`` (forward) and ``weighted_sum``
    (adjoint) contract the POVM without forming its blocks.
    """

    n_qubits: int
    setting: Setting
    rotations: dict[int, np.ndarray]

    @property
    def n_outcomes(self) -> int:
        return self.n_qubits + 1

    def k_offset(self, two_j: int) -> int:
        return (self.n_qubits - two_j) // 2

    def outcome_range(self, two_j: int) -> range:
        off = self.k_offset(two_j)
        return range(off, off + two_j + 1)

    def outcome_slots(self, two_j: int) -> slice:
        off = self.k_offset(two_j)
        return slice(off, off + two_j + 1)

    @property
    def sector_stacks(self) -> dict[int, np.ndarray]:
        """Dense blocks, built from ``rotations`` on each access:
        ``sector_stacks[two_j][r]`` is the block of outcome k_offset + r."""
        return {
            two_j: np.einsum("mr,nr->rmn", U, U.conj())
            for two_j, U in self.rotations.items()
        }

    def block(self, k: int, two_j: int) -> np.ndarray | None:
        """Block of outcome k in sector two_j, or None if structurally zero."""
        if not 0 <= k <= self.n_qubits:
            raise KeyError(f"outcome k={k} outside 0..{self.n_qubits}")
        off = self.k_offset(two_j)
        if k < off or k > off + two_j:
            return None
        u = self.rotations[two_j][:, k - off]
        return np.outer(u, u.conj())


@dataclass(frozen=True)
class StackedBlockSets(_RankOnePOVM):
    """The block sets of several settings as one POVM with S (N+1)
    outcomes, setting-major: outcome k of setting a is a (N+1) + k.

    ``rotations[two_j]`` is [U_j^1 | ... | U_j^S] (n x S n), so one
    ``probabilities`` or ``weighted_sum`` call covers every setting.
    Built by ``stacked_blocks``.
    """

    n_qubits: int
    n_outcomes: int
    rotations: dict[int, np.ndarray]
    slots: dict[int, np.ndarray]

    def outcome_slots(self, two_j: int) -> np.ndarray:
        return self.slots[two_j]


def standard_blocks(n_qubits: int) -> MeasurementBlockSet:
    """Block POVM for the z axis: projectors onto m = k - N/2.

    Outcome k = k_offset + r sits at m = k - N/2, basis index two_j - r
    (the basis is ordered m descending), so U_j is the exact anti-identity.
    """
    layout = sector_layout(n_qubits)
    rotations = {
        two_j: _as_readonly(np.eye(two_j + 1)[:, ::-1])
        for two_j in layout.two_j_values
    }
    return MeasurementBlockSet(n_qubits=n_qubits, setting=E3, rotations=rotations)


@lru_cache(maxsize=128)
def _s_y_eigen(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues mu and eigenvectors V of S_y in one sector (read-only)."""
    mu, V = np.linalg.eigh(spin_operators(two_j).s_y)
    mu.setflags(write=False)
    V.setflags(write=False)
    return mu, V


def rotated_blocks(n_qubits: int, setting: Setting) -> MeasurementBlockSet:
    """Block POVM for one setting: the one-setting case of
    ``stacked_blocks``, W_j = R_z(phi) d^j(theta) R_z(-phi) per sector."""
    stack = stacked_blocks(n_qubits, [setting])
    return MeasurementBlockSet(
        n_qubits=n_qubits, setting=setting, rotations=stack.rotations
    )


def stacked_blocks(n_qubits: int, settings) -> StackedBlockSets:
    """Block POVMs of several settings as one ``StackedBlockSets``.

    Per sector, U_j = [R_z(phi) d^j(theta) R_z(-phi)][:, ::-1] of every
    setting is one (S, n, n) batched product on the cached S_y
    eigenbasis (see the module docstring); the dense per-outcome blocks
    are never formed.
    """
    settings = list(settings)
    if not settings:
        raise ValueError("need at least one setting")
    params = [rotation_params(s) for s in settings]
    theta = np.array([t for _, t in params])
    phi = np.array([math.atan2(-n[0], n[1]) for n, _ in params])
    count, n_out = len(settings), n_qubits + 1
    rotations, slots = {}, {}
    for two_j in sector_layout(n_qubits).two_j_values:
        dim = two_j + 1
        mu, V = _s_y_eigen(two_j)
        # d^j(theta) = V diag(e^{-i theta mu}) V^dagger is real
        d = ((V * np.exp(-1j * theta[:, None, None] * mu)) @ V.conj().T).real
        z = np.exp(-1j * phi[:, None] * (two_j / 2.0 - np.arange(dim)))  # R_z(phi)
        # outcome r projects onto column two_j - r of W_j
        U = z[:, :, None] * d[:, :, ::-1] * z[:, None, ::-1].conj()
        # column a n + r of [U^1 | ... | U^S] is column r of U^a
        U = U.transpose(1, 0, 2).reshape(dim, count * dim)
        U.setflags(write=False)
        rotations[two_j] = U
        off = (n_qubits - two_j) // 2
        slots[two_j] = (n_out * np.arange(count)[:, None] + off + np.arange(dim)).ravel()
    return StackedBlockSets(
        n_qubits=n_qubits, n_outcomes=count * n_out, rotations=rotations, slots=slots
    )


def probabilities(state: SpinEnsemble, blocks) -> np.ndarray:
    """Outcome distribution p_k = sum_j tr(rho_j M_{k,j}) as
    diag(U_j^dagger rho_j U_j) per sector: k = 0..N for a
    ``MeasurementBlockSet``, setting-major over all settings for a
    ``StackedBlockSets``.

    Values in [-PROBABILITY_ROUNDOFF, 0) are roundoff, clamped to zero;
    a lower one raises ValueError: the state is not PSD.
    """
    if state.layout.n_qubits != blocks.n_qubits:
        raise ValueError(
            f"state has N={state.layout.n_qubits}, POVM has N={blocks.n_qubits}"
        )
    p = np.zeros(blocks.n_outcomes)
    for two_j in state.layout.two_j_values:
        U = blocks.rotations[two_j]
        vals = ((state.blocks[two_j] @ U) * U.conj()).sum(axis=0).real
        p[blocks.outcome_slots(two_j)] += vals
    if np.any(p < -PROBABILITY_ROUNDOFF):
        raise ValueError(f"probability {p.min():.3e}: state not positive semidefinite")
    return np.where(p < 0.0, 0.0, p)


@lru_cache(maxsize=1024)
def moment_coefficients(n_qubits: int, weight: int) -> np.ndarray:
    """Coefficients K(k,w,N) with sum_k K p_k = <[(a.sigma)^{(x)w} (x) 1]_PI>.

    Outcome k fixes k spins at +1 and N-k at -1 along the measured axis;
    averaging the sign product over all w-subsets of qubits gives

        K(k,w,N) = [sum_l (-1)^l C(N-k,l) C(k,w-l)] / C(N,w),

    evaluated in exact integer arithmetic before the single division.
    The result is cached and read-only.
    """
    n = int(n_qubits)
    w = int(weight)
    if not 0 <= w <= n:
        raise ValueError(f"weight w={w} outside 0..{n}")
    denom = math.comb(n, w)
    out = np.empty(n + 1)
    for k in range(n + 1):
        acc = 0
        for l in range(max(0, w - k), min(w, n - k) + 1):
            acc += (-1) ** l * math.comb(n - k, l) * math.comb(k, w - l)
        out[k] = acc / denom
    out.setflags(write=False)
    return out


def load_settings(path) -> list[Setting]:
    """Read a JSON array of 3-vectors; normalizes, warning beyond 1e-6."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not data:
        raise ValueError(f"settings file {path} must hold a non-empty JSON array")
    return [Setting.from_vector(entry) for entry in data]


def save_settings(settings, path) -> None:
    data = [[float(c) for c in s.axis] for s in settings]
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
