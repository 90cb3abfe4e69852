"""Spin-sector block representation of permutationally invariant qubit states.

The Hilbert space of N qubits decomposes into collective-spin sectors,

    H = (+)_j  H_j (x) K_j,

where H_j carries a spin-j irreducible representation of the collective
SU(2) action (dimension 2j+1) and K_j carries the commutant of the
permutation group (dimension ``multiplicity(j)``).  A permutationally
invariant (PI) density matrix is fully described by one (2j+1) x (2j+1)
Hermitian block per sector,

    rho = (+)_j  rho_j (x) 1/multiplicity(j),

so the whole state fits in ``sum_j (2j+1)`` dimensions instead of 2^N.
This module provides the sector bookkeeping, the block container with
JSON persistence, collective spin operators, named PI states, and a
brute-force expansion back to the full 2^N space for small N (used as a
cross-check oracle, not on the hot path).

Trace distance note: for two PI states the full-space trace distance is
``(1/2) sum_j || rho_j - sigma_j ||_1`` without multiplicity weights.
Each sector contributes ``multiplicity(j)`` identical copies of the
difference block scaled by ``1/multiplicity(j)``, so the factors cancel:
``mult * || (rho_j - sigma_j)/mult ||_1 = || rho_j - sigma_j ||_1``.

Basis convention inside a block: states are ordered by decreasing
magnetic quantum number, m = j, j-1, ..., -j, so index i holds m = j - i.
Qubit basis: ``|0>`` is the +1 eigenstate of sigma_z (spin up).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

__all__ = [
    "DEFAULT_MAX_QUBITS",
    "MAX_QUBITS_ENV",
    "SpinSectorLayout",
    "SpinEnsemble",
    "SpinOperators",
    "sector_layout",
    "spin_operators",
    "hermitian_expm",
    "maximally_mixed_ensemble",
    "dicke_ensemble",
    "ghz_ensemble",
    "trace_distance",
    "expand_full",
    "compress_full",
]

DEFAULT_MAX_QUBITS = 30
MAX_QUBITS_ENV = "PITOMO_MAX_QUBITS"

# Validation tolerances for ensemble blocks.  The negative eigenvalues of
# all blocks together may reach -PSD_TOL: an outcome probability
# p_k = sum_j u_j^dagger rho_j u_j with unit u_j is then >= -PSD_TOL up
# to roundoff, which povm.probabilities clamps instead of rejecting.
HERMITICITY_TOL = 1e-12
PSD_TOL = 5e-13
TRACE_TOL = 1e-10

# Largest N for which full 2^N-space expansion is permitted (oracle scale).
EXPAND_MAX_QUBITS = 12


def configured_max_qubits() -> int:
    """Qubit-number cap, overridable through the PITOMO_MAX_QUBITS env var."""
    raw = os.environ.get(MAX_QUBITS_ENV)
    if raw is None or raw == "":
        return DEFAULT_MAX_QUBITS
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{MAX_QUBITS_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{MAX_QUBITS_ENV} must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class SpinSectorLayout:
    """Sector bookkeeping for N qubits.

    Sectors are labelled by ``two_j`` (2j as an integer, avoiding
    half-integer arithmetic), running from ``N mod 2`` up to ``N`` in
    steps of 2.
    """

    n_qubits: int
    two_j_values: tuple[int, ...]

    @property
    def num_sectors(self) -> int:
        return len(self.two_j_values)

    @property
    def compressed_dim(self) -> int:
        """Total block dimension sum_j (2j+1) = floor((N+2)^2 / 4)."""
        return sum(t + 1 for t in self.two_j_values)

    def block_dim(self, two_j: int) -> int:
        self._check_sector(two_j)
        return two_j + 1

    def multiplicity(self, two_j: int) -> int:
        """Dimension of the permutation commutant K_j (exact integer).

        multiplicity(j) = C(N, N/2-j) - C(N, N/2-j-1), with the second
        binomial zero when its lower index is negative (j = N/2).
        """
        self._check_sector(two_j)
        n = self.n_qubits
        half_down = (n - two_j) // 2  # number of lowered "slots", N/2 - j
        first = math.comb(n, half_down)
        second = math.comb(n, half_down - 1) if half_down >= 1 else 0
        return first - second

    def _check_sector(self, two_j: int) -> None:
        if two_j not in self._sector_set():
            raise KeyError(f"two_j={two_j} is not a sector for N={self.n_qubits}")

    def _sector_set(self) -> frozenset:
        return frozenset(self.two_j_values)


def sector_layout(n_qubits: int, max_qubits: int | None = None) -> SpinSectorLayout:
    """Build the sector layout for ``n_qubits``.

    Parameters
    ----------
    n_qubits : int
        Number of qubits, 1 <= N <= the configured cap.
    max_qubits : int, optional
        Explicit cap; defaults to PITOMO_MAX_QUBITS or 30.
    """
    cap = configured_max_qubits() if max_qubits is None else max_qubits
    if not isinstance(n_qubits, (int, np.integer)):
        raise TypeError(f"n_qubits must be an integer, got {type(n_qubits).__name__}")
    n = int(n_qubits)
    if n < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n}")
    if n > cap:
        raise ValueError(f"n_qubits={n} exceeds the configured maximum {cap}")
    two_j_min = n % 2
    values = tuple(range(two_j_min, n + 1, 2))
    return SpinSectorLayout(n_qubits=n, two_j_values=values)


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SpinEnsemble:
    """A PI state: one Hermitian block per sector, carrying its sector weight.

    ``blocks[two_j]`` is the (2j+1) x (2j+1) matrix p_j * rho_j, so the
    block traces are the sector probabilities and the total trace is 1.
    Stored arrays are read-only; treat instances as immutable.
    """

    layout: SpinSectorLayout
    blocks: dict[int, np.ndarray]

    def __post_init__(self):
        fixed = {}
        total = negative = 0.0
        for two_j in self.layout.two_j_values:
            if two_j not in self.blocks:
                raise ValueError(f"missing block for two_j={two_j}")
            mat = np.asarray(self.blocks[two_j], dtype=complex)
            dim = two_j + 1
            if mat.shape != (dim, dim):
                raise ValueError(
                    f"block two_j={two_j} has shape {mat.shape}, expected {(dim, dim)}"
                )
            herm_dev = np.max(np.abs(mat - mat.conj().T)) if dim else 0.0
            if herm_dev > HERMITICITY_TOL:
                raise ValueError(
                    f"block two_j={two_j} not Hermitian (deviation {herm_dev:.3e})"
                )
            eigs = np.linalg.eigvalsh(mat)
            negative += float(-eigs[eigs < 0.0].sum())
            total += float(np.trace(mat).real)
            fixed[two_j] = _as_readonly(mat)
        if negative > PSD_TOL:
            raise ValueError(
                f"state not PSD: negative block eigenvalues sum to {-negative:.3e}"
            )
        extra = set(self.blocks) - set(self.layout.two_j_values)
        if extra:
            raise ValueError(f"unexpected sector keys {sorted(extra)}")
        if abs(total - 1.0) > TRACE_TOL:
            raise ValueError(f"total trace {total!r} deviates from 1 beyond {TRACE_TOL}")
        object.__setattr__(self, "blocks", fixed)

    def sector_probability(self, two_j: int) -> float:
        return float(np.trace(self.blocks[two_j]).real)

    def to_json_dict(self) -> dict:
        return {
            "n_qubits": self.layout.n_qubits,
            "blocks": [
                {
                    "two_j": two_j,
                    "matrix": [
                        [[float(z.real), float(z.imag)] for z in row]
                        for row in self.blocks[two_j]
                    ],
                }
                for two_j in self.layout.two_j_values
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SpinEnsemble":
        layout = sector_layout(data["n_qubits"])
        blocks = {}
        for entry in data["blocks"]:
            two_j = int(entry["two_j"])
            rows = entry["matrix"]
            blocks[two_j] = np.array(
                [[complex(re, im) for re, im in row] for row in rows], dtype=complex
            )
        return cls(layout=layout, blocks=blocks)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SpinEnsemble":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class SpinOperators:
    """Collective spin matrices s_x, s_y, s_z and the lowering operator."""

    two_j: int
    s_x: np.ndarray
    s_y: np.ndarray
    s_z: np.ndarray
    j_minus: np.ndarray


@lru_cache(maxsize=128)
def spin_operators(two_j: int) -> SpinOperators:
    """Spin matrices for a single sector, basis ordered m = j ... -j.

    Built from the ladder operator:  j_minus |j,m> = c(j,m) |j,m-1> with
    c = sqrt(j(j+1) - m(m-1)); s_x = (j_+ + j_-)/2, s_y = (j_+ - j_-)/(2i).
    For two_j = 1 these are the Pauli matrices over 2.
    """
    if two_j < 0:
        raise ValueError(f"two_j must be >= 0, got {two_j}")
    dim = two_j + 1
    j = two_j / 2.0
    m = j - np.arange(dim)  # m value at each basis index
    s_z = np.diag(m).astype(complex)
    lower = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        # from index i (value m[i]) down to index i+1 (value m[i]-1)
        lower[i + 1, i] = math.sqrt(j * (j + 1) - m[i] * (m[i] - 1))
    raise_ = lower.conj().T
    s_x = (raise_ + lower) / 2.0
    s_y = (raise_ - lower) / 2.0j
    for arr in (s_x, s_y, s_z, lower):
        arr.setflags(write=False)
    return SpinOperators(two_j=two_j, s_x=s_x, s_y=s_y, s_z=s_z, j_minus=lower)


def hermitian_expm(generator: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(-i * scale * H) for Hermitian H, via eigendecomposition.

    Raises ValueError if ``generator`` deviates from Hermiticity by more
    than 1e-10 in max-abs norm.
    """
    H = np.asarray(generator, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"generator must be square, got shape {H.shape}")
    dev = np.max(np.abs(H - H.conj().T)) if H.size else 0.0
    if dev > 1e-10:
        raise ValueError(f"generator not Hermitian (deviation {dev:.3e})")
    w, v = np.linalg.eigh(H)
    phases = np.exp(-1j * scale * w)
    return (v * phases) @ v.conj().T


def maximally_mixed_ensemble(layout: SpinSectorLayout) -> SpinEnsemble:
    """The PI reduction of the 2^N-dimensional maximally mixed state.

    Sector weight p_j = (2j+1) * multiplicity(j) / 2^N, block rho_j = 1/(2j+1),
    so each stored block is multiplicity(j)/2^N times the identity.
    """
    n = layout.n_qubits
    blocks = {}
    for two_j in layout.two_j_values:
        scale = layout.multiplicity(two_j) / (2**n)
        blocks[two_j] = scale * np.eye(two_j + 1, dtype=complex)
    return SpinEnsemble(layout=layout, blocks=blocks)


def _zero_blocks(layout: SpinSectorLayout) -> dict[int, np.ndarray]:
    return {t: np.zeros((t + 1, t + 1), dtype=complex) for t in layout.two_j_values}


def dicke_ensemble(n_qubits: int, k: int) -> SpinEnsemble:
    """Symmetric Dicke state with k excitations (k qubits flipped to |1>).

    Lives entirely in the j = N/2 sector at m = N/2 - k, i.e. basis index k.
    """
    layout = sector_layout(n_qubits)
    if not 0 <= k <= n_qubits:
        raise ValueError(f"excitation number k={k} outside 0..{n_qubits}")
    blocks = _zero_blocks(layout)
    top = np.zeros((n_qubits + 1, n_qubits + 1), dtype=complex)
    top[k, k] = 1.0
    blocks[n_qubits] = top
    return SpinEnsemble(layout=layout, blocks=blocks)


def ghz_ensemble(n_qubits: int) -> SpinEnsemble:
    """GHZ state (|0...0> + |1...1>)/sqrt(2): equal superposition of the
    extremal m = +/- N/2 states of the j = N/2 sector."""
    layout = sector_layout(n_qubits)
    blocks = _zero_blocks(layout)
    psi = np.zeros(n_qubits + 1, dtype=complex)
    psi[0] = psi[-1] = 1.0 / math.sqrt(2.0)
    blocks[n_qubits] = np.outer(psi, psi.conj())
    return SpinEnsemble(layout=layout, blocks=blocks)


def trace_distance(a: SpinEnsemble, b: SpinEnsemble) -> float:
    """Full-space trace distance between two PI states.

    Equals (1/2) sum_j ||a_j - b_j||_1 over stored blocks: the sector
    multiplicities cancel (see module docstring).
    """
    if a.layout != b.layout:
        raise ValueError("ensembles have different layouts")
    total = 0.0
    for two_j in a.layout.two_j_values:
        diff = a.blocks[two_j] - b.blocks[two_j]
        total += float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
    return 0.5 * total


# ---------------------------------------------------------------------------
# Full 2^N-space expansion (oracle scale, N <= EXPAND_MAX_QUBITS).
#
# Basis construction per sector j:
#   seed |j, j, 1> = |0>^{(x)2j} (x) |singlet>^{(x)(N-2j)/2},
# further multiplicity copies are Gram-Schmidt completions over qubit
# rearrangements of the seed (which up-qubits, which singlet pairing),
# and lower m levels follow by applying J_- = sum_n sigma_-;n with the
# standard ladder normalization.  Qubit 0 is the most significant bit.
# ---------------------------------------------------------------------------


def _matchings(rest: tuple):
    """All perfect matchings of an even-size index tuple, deterministically."""
    if not rest:
        yield ()
        return
    first = rest[0]
    for i in range(1, len(rest)):
        partner = rest[i]
        remainder = rest[1:i] + rest[i + 1 :]
        for sub in _matchings(remainder):
            yield ((first, partner),) + sub


def _pairing_vector(n: int, pairs: tuple) -> np.ndarray:
    """State with |0> on unpaired qubits and a singlet on each pair."""
    v = np.zeros(1 << n)
    amp = (1.0 / math.sqrt(2.0)) ** len(pairs)
    for choice in product((0, 1), repeat=len(pairs)):
        idx = 0
        sign = 1.0
        for (qa, qb), c in zip(pairs, choice):
            if c == 0:  # |0_a 1_b> term
                idx |= 1 << (n - 1 - qb)
            else:  # -|1_a 0_b> term
                idx |= 1 << (n - 1 - qa)
                sign = -sign
        v[idx] = sign * amp
    return v


def _apply_lowering(v: np.ndarray, n: int) -> np.ndarray:
    """Apply J_- = sum_q sigma_-;q (flips one |0> to |1> per term)."""
    out = np.zeros_like(v)
    idx = np.arange(v.size)
    for q in range(n):
        bit = 1 << (n - 1 - q)
        src = idx[(idx & bit) == 0]
        out[src | bit] += v[src]
    return out


@lru_cache(maxsize=4)
def _sector_isometries(n_qubits: int):
    """Per sector: list over multiplicity copies of (2^N, 2j+1) isometries.

    Column i of each isometry is |j, m = j - i, alpha>.
    """
    layout = sector_layout(n_qubits, max_qubits=EXPAND_MAX_QUBITS)
    n = n_qubits
    result = {}
    for two_j in layout.two_j_values:
        target = layout.multiplicity(two_j)
        j = two_j / 2.0
        # Top-level (m = j) orthonormal vectors by Gram-Schmidt over
        # deterministic qubit arrangements of the seed pattern.
        tops: list[np.ndarray] = []
        for ups in combinations(range(n), two_j):
            rest = tuple(q for q in range(n) if q not in ups)
            for pairs in _matchings(rest):
                if len(tops) == target:
                    break
                cand = _pairing_vector(n, pairs)
                for t in tops:
                    cand = cand - t @ cand * t
                norm = np.linalg.norm(cand)
                if norm > 1e-8:
                    tops.append(cand / norm)
            if len(tops) == target:
                break
        if len(tops) != target:
            raise RuntimeError(
                f"found {len(tops)} of {target} multiplicity copies for "
                f"two_j={two_j}, N={n}"
            )
        isoms = []
        for top in tops:
            cols = [top]
            m = j
            while m > -j:
                nxt = _apply_lowering(cols[-1], n)
                nxt /= math.sqrt(j * (j + 1) - m * (m - 1))
                cols.append(nxt)
                m -= 1.0
            Q = np.column_stack(cols)
            Q.setflags(write=False)
            isoms.append(Q)
        result[two_j] = isoms
    return result


def expand_full(ensemble: SpinEnsemble) -> np.ndarray:
    """Expand a PI state to its full 2^N x 2^N density matrix (small N only)."""
    n = ensemble.layout.n_qubits
    if n > EXPAND_MAX_QUBITS:
        raise ValueError(
            f"expand_full supports N <= {EXPAND_MAX_QUBITS}, got N={n}"
        )
    isoms = _sector_isometries(n)
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    for two_j in ensemble.layout.two_j_values:
        mult = ensemble.layout.multiplicity(two_j)
        share = ensemble.blocks[two_j] / mult
        for Q in isoms[two_j]:
            rho += Q @ share @ Q.conj().T
    return rho


def compress_full(matrix: np.ndarray, layout: SpinSectorLayout) -> SpinEnsemble:
    """Project a full-space density matrix onto its PI part.

    Block j of the result is the partial trace over the multiplicity
    space of the sector projection; for a PI input this inverts
    :func:`expand_full` exactly.
    """
    n = layout.n_qubits
    if n > EXPAND_MAX_QUBITS:
        raise ValueError(f"compress_full supports N <= {EXPAND_MAX_QUBITS}, got N={n}")
    mat = np.asarray(matrix, dtype=complex)
    if mat.shape != (1 << n, 1 << n):
        raise ValueError(f"matrix shape {mat.shape} does not match N={n}")
    isoms = _sector_isometries(n)
    blocks = {}
    for two_j in layout.two_j_values:
        acc = np.zeros((two_j + 1, two_j + 1), dtype=complex)
        for Q in isoms[two_j]:
            acc += Q.conj().T @ mat @ Q
        # guard against roundoff drifting off the Hermitian manifold
        blocks[two_j] = 0.5 * (acc + acc.conj().T)
    return SpinEnsemble(layout=layout, blocks=blocks)
