"""Fidelity witness for deciding whether the PI description fits.

A witness Z = sum_{a,k} z_k^a M_k^a built from a few settings and
satisfying Z <= P_sym (the symmetric-subspace projector) certifies

    F_PI(rho_true) >= [tr(rho_true Z)]^2

so a large measured expectation value justifies running the full
compressed tomography.  P_sym is block-diagonal with identity on the
top spin sector and zero elsewhere, so the operator inequality splits
into one LMI per sector:

    sum z_k^a M_{k, top}^a <= 1,    sum z_k^a M_{k, j}^a <= 0  (lower j).

``optimize_witness`` maximizes tr(rho_tar Z) over z subject to those
LMIs plus a box |z| <= coefficient_bound, reusing the reconstruction
module's log-det barrier Newton engine on the slack blocks (z_k^a
enters each sector as the rank-one direction -M_{k,j}^a = -u u^dagger,
and the 2 S (N+1) box slacks B -/+ z enter as one diagonal block, whose
barrier is -sum log of the slacks).  The box costs nothing at the optimum -
solutions sit at coefficients of order one - while making the feasible
set compact: without it, outcomes the target never produces (common for
Dicke targets) would let coefficients drift to -infinity along the
barrier path and inflate the sensitivity constant.

With finite statistics the sample mean Zbar = sum z_k^a n_k^a / N_R
obeys a Hoeffding bound: F_PI >= sign(Zbar - eps) (Zbar - eps)^2 with
confidence 1 - exp(-2 N_R eps^2 / C_z^2), where C_z^2 sums the squared
per-setting coefficient ranges.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .povm import E1, E2, E3, Setting, probabilities, rotated_blocks, stacked_blocks
from .reconstruct import (
    AffineBlockMap,
    LinearFit,
    NonConvergenceError,
    RankOneBlocks,
    SolverConfig,
    _barrier_path,
    newton_stage,
    t_schedule,
)
from .sim import Dataset
from .spin_blocks import SpinEnsemble, sector_layout

__all__ = [
    "PretestWitness",
    "StatisticalBound",
    "optimize_witness",
    "witness_expectation",
    "fidelity_bound",
    "statistical_bound",
    "save_witness",
    "load_witness",
]

FEASIBILITY_TOL = 1e-8
DEFAULT_COEFFICIENT_BOUND = 3.0


def _slack_blocks(n_qubits: int, block_sets, coefficients: np.ndarray):
    """Slack operators (1 - sum z M_top, -sum z M_j, ...) in layout order."""
    sums = [bs.weighted_sum(row) for row, bs in zip(coefficients, block_sets)]
    return [
        (np.eye(two_j + 1) if two_j == n_qubits else 0.0) - sum(s[two_j] for s in sums)
        for two_j in sector_layout(n_qubits).two_j_values
    ]


@dataclass(frozen=True)
class PretestWitness:
    """Feasible witness: settings, coefficient table, and its extremes.

    ``coefficients[a, k]`` is the weight of outcome k under setting a.
    Construction re-checks the defining operator inequalities, so any
    witness instance (freshly optimized or loaded from disk) is feasible
    to within ``FEASIBILITY_TOL``.
    """

    n_qubits: int
    settings: tuple[Setting, ...]
    coefficients: np.ndarray
    objective: float | None = field(default=None, compare=False)

    def __post_init__(self):
        if not self.settings:
            raise ValueError("witness needs at least one setting")
        coeff = np.array(self.coefficients, dtype=float)
        expected = (len(self.settings), self.n_qubits + 1)
        if coeff.shape != expected:
            raise ValueError(
                f"coefficients must have shape {expected}, got {coeff.shape}"
            )
        if not np.all(np.isfinite(coeff)):
            raise ValueError("coefficients must be finite")
        coeff.setflags(write=False)
        object.__setattr__(self, "coefficients", coeff)
        object.__setattr__(self, "settings", tuple(self.settings))
        block_sets = [rotated_blocks(self.n_qubits, s) for s in self.settings]
        worst = min(
            float(np.linalg.eigvalsh(s).min())
            for s in _slack_blocks(self.n_qubits, block_sets, coeff)
        )
        if worst < -FEASIBILITY_TOL:
            raise ValueError(
                f"coefficients violate the witness operator inequalities "
                f"(slack eigenvalue {worst:.3e})"
            )

    @property
    def setting_maxima(self) -> np.ndarray:
        return self.coefficients.max(axis=1)

    @property
    def setting_minima(self) -> np.ndarray:
        return self.coefficients.min(axis=1)

    @property
    def c_z_squared(self) -> float:
        """Squared sensitivity: sum over settings of (max - min)^2."""
        ranges = self.setting_maxima - self.setting_minima
        return float(np.sum(ranges**2))


def optimize_witness(
    target: SpinEnsemble,
    settings=None,
    config: SolverConfig | None = None,
    coefficient_bound: float = DEFAULT_COEFFICIENT_BOUND,
) -> PretestWitness:
    """Maximize tr(rho_tar Z) over feasible witnesses built from ``settings``.

    Runs the interior-point loop on the slack-block barrier starting from
    the strictly feasible z = -1 (slack 1 + |T| on the top sector, |T|
    elsewhere) on ``reconstruct``'s path: stages before the last two are
    centred approximately, every stage but the first and the last starts
    with a central-path tangent step from the factor the one before
    ended with, and the final stage takes plain Newton steps.  For this
    linear objective the tangent at a centre points along the next
    stage's Newton direction, so the tangent saves no steps here.  On
    solver failure, or with ``config.strict`` on a stage that stops
    unconverged, the raised ``NonConvergenceError`` carries the last
    strictly feasible coefficients as ``last_z``.
    """
    if settings is None:
        settings = (E1, E2, E3)
    settings = tuple(settings)
    if not settings:
        raise ValueError("witness needs at least one setting")
    if coefficient_bound <= 1.0:
        raise ValueError("coefficient_bound must exceed 1 (the start is z = -1)")
    cfg = config or SolverConfig()
    n = target.layout.n_qubits
    n_out = n + 1
    dim = len(settings) * n_out
    stack = stacked_blocks(n, settings)
    two_js = target.layout.two_j_values
    # direction of z[a, k] is -M_{k,j}^a = -u u^dagger, u the column of U_j
    # at the setting-major outcome slot a (N+1) + k, as z is laid out
    directions = RankOneBlocks(
        [stack.rotations[two_j] for two_j in two_js],
        [-np.ones(stack.outcome_slots(two_j).size) for two_j in two_js],
        [stack.outcome_slots(two_j) for two_j in two_js],
        dim,
    )
    constants = [np.eye(two_j + 1) * (two_j == n) for two_j in two_js]
    # box slacks B - z_i >= 0, then B + z_i >= 0, as one diagonal block
    box = (np.full(2 * dim, float(coefficient_bound)), np.hstack([-np.eye(dim), np.eye(dim)]),
           np.arange(dim))
    affine = AffineBlockMap(constants, directions, [box], dim)

    expectations = probabilities(target, stack)
    fit = LinearFit(-expectations)

    x = np.full(dim, -1.0)
    # newton_stage as looked up in this module, so instrumentation of
    # this module's name tells the witness's stages from reconstruction's
    try:
        for t, stage in _barrier_path(fit, affine, t_schedule(cfg), x, cfg, newton_stage):
            x = stage.x
            if cfg.strict and not stage.converged:
                raise NonConvergenceError(
                    f"witness stage t={t:g} stopped at gradient norm {stage.grad_norm:.3e}"
                )
    except NonConvergenceError as err:
        err.last_z = x.copy()
        raise
    objective = float(expectations @ x)
    if objective > 1.0 + FEASIBILITY_TOL:
        raise NonConvergenceError(
            f"witness objective {objective} exceeds the symmetric-projector "
            f"ceiling; the barrier left the feasible set"
        )
    return PretestWitness(
        n_qubits=n,
        settings=settings,
        coefficients=x.reshape(len(settings), n_out),
        objective=objective,
    )


def _frequency_table(witness: PretestWitness, source) -> np.ndarray:
    """Per-setting outcome frequencies, rows aligned with witness.settings.

    A dataset record measured along -a serves witness setting a with its
    frequencies reversed (outcome k along -a is outcome N - k along a).
    """
    n_out = witness.n_qubits + 1
    if isinstance(source, SpinEnsemble):
        if source.layout.n_qubits != witness.n_qubits:
            raise ValueError("state size does not match the witness")
        return np.array([
            probabilities(source, rotated_blocks(witness.n_qubits, s))
            for s in witness.settings
        ])
    if isinstance(source, Dataset):
        if source.n_qubits != witness.n_qubits:
            raise ValueError("dataset size does not match the witness")
        rows = []
        for s in witness.settings:
            matches = []
            for rec in source.records:
                if np.allclose(rec.setting.axis, s.axis, atol=1e-9):
                    matches.append(rec.frequencies)
                elif np.allclose(rec.setting.axis, -s.axis, atol=1e-9):
                    matches.append(rec.frequencies[::-1])
            if len(matches) != 1:
                raise ValueError(
                    f"dataset must contain exactly one record for setting "
                    f"{s.axis} or its antipode, found {len(matches)}"
                )
            rows.append(matches[0])
        return np.array(rows)
    table = np.array(source, dtype=float)
    if table.shape != (len(witness.settings), n_out):
        raise ValueError(
            f"frequency table must have shape "
            f"{(len(witness.settings), n_out)}, got {table.shape}"
        )
    return table


def witness_expectation(witness: PretestWitness, source) -> float:
    """<Z> from a state, a dataset, or a per-setting frequency table."""
    table = _frequency_table(witness, source)
    return float(np.sum(witness.coefficients * table))


def fidelity_bound(witness: PretestWitness, source) -> float:
    """Lower bound [<Z>]^2 on the fidelity to the PI state set.

    Negative expectations carry no information here (the squared bound
    needs <Z> >= 0), so they yield the vacuous bound 0.
    """
    expectation = witness_expectation(witness, source)
    return max(expectation, 0.0) ** 2


class StatisticalBound(NamedTuple):
    bound: float
    confidence: float


def statistical_bound(
    witness: PretestWitness, counts, repetitions=None, epsilon: float = 0.01
) -> StatisticalBound:
    """Finite-statistics fidelity bound at a Hoeffding confidence level.

    ``counts`` is a (settings, outcomes) table of observed counts, or a
    sampled Dataset covering the witness settings; every setting must
    use the same number of repetitions.  Returns
    sign(Zbar - eps)(Zbar - eps)^2 (floored at the vacuous -1) together
    with the confidence 1 - exp(-2 N_R eps^2 / C_z^2).
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    n_out = witness.n_qubits + 1
    if isinstance(counts, Dataset):
        if counts.exact:
            raise ValueError(
                "statistical_bound needs sampled counts, not exact data"
            )
        reps = {rec.repetitions for rec in counts.records}
        if len(reps) != 1:
            raise ValueError("all settings must share one repetition count")
        dataset_reps = reps.pop()
        if repetitions is None:
            repetitions = dataset_reps
        elif not math.isclose(repetitions, dataset_reps):
            raise ValueError(
                f"repetitions {repetitions} disagree with the dataset "
                f"({dataset_reps})"
            )
        table = _frequency_table(witness, counts) * dataset_reps
    else:
        if repetitions is None:
            raise ValueError("repetitions are required with a raw count table")
        table = np.array(counts, dtype=float)
        if table.shape != (len(witness.settings), n_out):
            raise ValueError(
                f"count table must have shape "
                f"{(len(witness.settings), n_out)}, got {table.shape}"
            )
        if np.any(table < 0):
            raise ValueError("counts must be non-negative")
        sums = table.sum(axis=1)
        if not np.allclose(sums, repetitions, rtol=1e-6, atol=1e-6):
            raise ValueError(
                f"per-setting counts must sum to repetitions={repetitions}, "
                f"got {sums}"
            )
    repetitions = float(repetitions)
    if repetitions <= 0:
        raise ValueError("repetitions must be positive")
    sample_mean = float(np.sum(witness.coefficients * table) / repetitions)
    shifted = sample_mean - epsilon
    bound = max(math.copysign(shifted * shifted, shifted), -1.0)
    c_sq = witness.c_z_squared
    if c_sq == 0.0:
        confidence = 1.0
    else:
        confidence = 1.0 - math.exp(-2.0 * repetitions * epsilon**2 / c_sq)
    return StatisticalBound(bound=bound, confidence=confidence)


def save_witness(witness: PretestWitness, path) -> None:
    payload = {
        "n_qubits": witness.n_qubits,
        "settings": [list(map(float, s.axis)) for s in witness.settings],
        "coefficients": witness.coefficients.tolist(),
        "c_z_squared": witness.c_z_squared,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_witness(path) -> PretestWitness:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("witness file must hold a JSON object")
    for key in ("n_qubits", "settings", "coefficients", "c_z_squared"):
        if key not in payload:
            raise ValueError(f"witness file misses key {key!r}")
    witness = PretestWitness(
        n_qubits=int(payload["n_qubits"]),
        settings=tuple(
            Setting(axis=np.array(ax, dtype=float)) for ax in payload["settings"]
        ),
        coefficients=np.array(payload["coefficients"], dtype=float),
    )
    stored = float(payload["c_z_squared"])
    if not math.isclose(stored, witness.c_z_squared, rel_tol=1e-9, abs_tol=1e-9):
        raise ValueError(
            f"stored sensitivity {stored} disagrees with the coefficients "
            f"({witness.c_z_squared})"
        )
    return witness
