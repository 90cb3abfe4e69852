"""Simulated tomography experiments on permutationally invariant states.

Provides random PI state generation (Dirichlet sector weights with
Haar-pure or Hilbert-Schmidt-mixed blocks), exact and multinomially
sampled count datasets with JSON persistence, and a noisy rotated
Dicke-mixture preparation used as a realistic benchmark target.

All randomness flows through ``numpy.random.default_rng``: every
function takes a ``seed`` that may be an int (reproducible) or an
already-constructed ``Generator`` (for chaining draws).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .povm import Setting, probabilities, stacked_blocks
from .povm import rotated_blocks  # unused here; kept so the benchmark tracer's hook resolves
from .spin_blocks import (
    SpinEnsemble,
    SpinSectorLayout,
    hermitian_expm,
    sector_layout,
    spin_operators,
)

__all__ = [
    "Dataset",
    "DatasetRecord",
    "PURITY_MODES",
    "random_pi_state",
    "exact_dataset",
    "sample_dataset",
    "dicke_mixture_state",
    "collective_y_rotation",
    "save_dataset",
    "load_dataset",
]

PURITY_MODES = ("haar-pure", "hs-mixed")

# Relative slack allowed between sum(counts) and repetitions; exact
# datasets store real-valued probabilities as counts with repetitions 1.
COUNT_SUM_TOL = 1e-6


@dataclass(frozen=True)
class DatasetRecord:
    """One measurement setting with its observed outcome counts."""

    setting: Setting
    counts: np.ndarray
    repetitions: float

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=float)
        if counts.ndim != 1:
            raise ValueError("counts must be a flat vector")
        if not np.all(np.isfinite(counts)) or np.any(counts < 0):
            raise ValueError("counts must be finite and non-negative")
        reps = float(self.repetitions)
        if reps <= 0:
            raise ValueError("repetitions must be positive")
        total = float(counts.sum())
        if abs(total - reps) > COUNT_SUM_TOL * max(1.0, reps):
            raise ValueError(
                f"counts sum to {total}, inconsistent with repetitions {reps}"
            )
        counts = counts.copy()
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "repetitions", reps)

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.repetitions


@dataclass(frozen=True)
class Dataset:
    """A tomography dataset: counts for each measured setting.

    ``exact`` marks datasets whose "counts" are exact outcome
    probabilities (repetitions is then only a nominal scale).
    """

    n_qubits: int
    records: tuple[DatasetRecord, ...]
    exact: bool = False

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        records = tuple(self.records)
        if not records:
            raise ValueError("dataset needs at least one record")
        for rec in records:
            if rec.counts.size != self.n_qubits + 1:
                raise ValueError(
                    f"record has {rec.counts.size} counts, expected "
                    f"{self.n_qubits + 1}"
                )
        object.__setattr__(self, "records", records)

    @property
    def settings(self) -> list[Setting]:
        return [rec.setting for rec in self.records]


def random_pi_state(layout: SpinSectorLayout, purity_mode: str = "haar-pure",
                    dirichlet_alpha: float = 0.5, seed=None) -> SpinEnsemble:
    """Random PI state: Dirichlet(alpha) sector weights, random blocks.

    ``haar-pure`` draws each normalized block as a Haar-random pure
    state (outer product of a normalized complex Gaussian vector);
    ``hs-mixed`` draws Hilbert-Schmidt distributed mixed blocks
    (Ginibre G G^dagger, trace-normalized).
    """
    if purity_mode not in PURITY_MODES:
        raise ValueError(f"purity_mode must be one of {PURITY_MODES}")
    if not dirichlet_alpha > 0:
        raise ValueError("dirichlet_alpha must be positive")
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet([dirichlet_alpha] * layout.num_sectors)
    blocks = {}
    for w, two_j in zip(weights, layout.two_j_values):
        dim = two_j + 1
        if purity_mode == "haar-pure":
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            v /= np.linalg.norm(v)
            normalized = np.outer(v, v.conj())
        else:
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            wishart = g @ g.conj().T
            normalized = wishart / np.trace(wishart).real
        blocks[two_j] = w * normalized
    return SpinEnsemble(layout=layout, blocks=blocks)


def _setting_probabilities(state: SpinEnsemble, settings: list) -> np.ndarray:
    """(S, N+1) outcome distributions, one row per setting, from one
    batched rotation build and one contraction."""
    n = state.layout.n_qubits
    p = probabilities(state, stacked_blocks(n, settings))
    return p.reshape(len(settings), n + 1)


def exact_dataset(state: SpinEnsemble, settings) -> Dataset:
    """Dataset whose frequencies equal the exact outcome distributions."""
    settings = list(settings)
    records = tuple(
        DatasetRecord(setting=s, counts=p, repetitions=1.0)
        for s, p in zip(settings, _setting_probabilities(state, settings))
    )
    return Dataset(n_qubits=state.layout.n_qubits, records=records, exact=True)


def sample_dataset(state: SpinEnsemble, settings, repetitions: int,
                   seed=None) -> Dataset:
    """Multinomial count simulation: one draw of size ``repetitions``
    per setting, in settings order from a single seeded generator."""
    reps = int(repetitions)
    if reps < 1 or reps != repetitions:
        raise ValueError("repetitions must be a positive integer")
    rng = np.random.default_rng(seed)
    settings = list(settings)
    records = []
    for s, p in zip(settings, _setting_probabilities(state, settings)):
        counts = rng.multinomial(reps, p / p.sum())
        records.append(DatasetRecord(setting=s, counts=counts, repetitions=reps))
    return Dataset(n_qubits=state.layout.n_qubits, records=tuple(records), exact=False)


def collective_y_rotation(state: SpinEnsemble, theta: float) -> SpinEnsemble:
    """Rotate every block by exp(-i theta s_y) at its spin.

    This is the block form of the collective single-qubit rotation
    U^(x N) with U = exp(-i theta sigma_y / 2); block traces (sector
    weights) are invariant.
    """
    blocks = {}
    for two_j in state.layout.two_j_values:
        w = hermitian_expm(spin_operators(two_j).s_y, theta)
        blocks[two_j] = w @ state.blocks[two_j] @ w.conj().T
    return SpinEnsemble(layout=state.layout, blocks=blocks)


def dicke_mixture_state(n_qubits: int, p_asym: float = 0.6, theta: float = 0.2,
                        noise_weight: float = 0.4, seed=None) -> SpinEnsemble:
    """Collectively rotated binomial Dicke mixture with PI admixture.

    The core state sum_k C(N,k) p^k (1-p)^(N-k) |D_k><D_k| lives in the
    j = N/2 sector (|D_k> = Dicke state with k excitations), is rotated
    by ``collective_y_rotation(theta)``, and then mixed with weight
    ``noise_weight`` against a random Hilbert-Schmidt PI state drawn
    first from the seeded generator.
    """
    if not 0.0 <= p_asym <= 1.0:
        raise ValueError("p_asym must lie in [0, 1]")
    if not 0.0 <= noise_weight <= 1.0:
        raise ValueError("noise_weight must lie in [0, 1]")
    layout = sector_layout(n_qubits)
    rng = np.random.default_rng(seed)

    # |D_k> (k excitations) sits at basis index k: m = N/2 - k, m-descending.
    top = np.zeros((n_qubits + 1, n_qubits + 1), dtype=complex)
    for k in range(n_qubits + 1):
        weight = math.comb(n_qubits, k) * p_asym**k * (1.0 - p_asym) ** (n_qubits - k)
        top[k, k] = weight
    blocks = {t: np.zeros((t + 1, t + 1), dtype=complex) for t in layout.two_j_values}
    blocks[n_qubits] = top
    core = collective_y_rotation(SpinEnsemble(layout=layout, blocks=blocks), theta)

    if noise_weight == 0.0:
        return core
    noise = random_pi_state(layout, "hs-mixed", seed=rng)
    mixed = {
        t: (1.0 - noise_weight) * core.blocks[t] + noise_weight * noise.blocks[t]
        for t in layout.two_j_values
    }
    return SpinEnsemble(layout=layout, blocks=mixed)


def save_dataset(dataset: Dataset, path) -> None:
    data = {
        "n_qubits": dataset.n_qubits,
        "exact": dataset.exact,
        "records": [
            {
                "setting": [float(c) for c in rec.setting.axis],
                "counts": [float(c) for c in rec.counts],
                "repetitions": rec.repetitions,
            }
            for rec in dataset.records
        ],
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def load_dataset(path) -> Dataset:
    """Read a dataset JSON file; validates structure and count sums."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"dataset file {path} must hold a JSON object")
    try:
        n = int(data["n_qubits"])
        raw_records = data["records"]
    except KeyError as exc:
        raise ValueError(f"dataset file {path} misses key {exc}") from None
    if not isinstance(raw_records, list) or not raw_records:
        raise ValueError(f"dataset file {path} must hold a non-empty record list")
    records = []
    for entry in raw_records:
        try:
            setting = Setting.from_vector(entry["setting"])
            counts = np.asarray(entry["counts"], dtype=float)
            reps = float(entry["repetitions"])
        except KeyError as exc:
            raise ValueError(f"dataset record misses key {exc}") from None
        records.append(DatasetRecord(setting=setting, counts=counts, repetitions=reps))
    return Dataset(
        n_qubits=n, records=tuple(records), exact=bool(data.get("exact", False))
    )
