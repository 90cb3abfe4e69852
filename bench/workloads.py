"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload is a closed loop: one process makes one pitomo call at a
time, in a fixed order.  ``build`` makes every input from the seed
(pitomo receives only these), ``run_pass`` makes the timed calls through
the module attributes, so that a ``Tracer`` sees them, and ``check_op``
verifies each result outside the timed region.

Why these three:

* ``recon-n16``: ML then LS on one N=16 dataset; dense per-step linear
  algebra on a 2601 x 968 overlap table dominates.
* ``loop-n8``: the whole simulate / reconstruct (all four principles,
  sampled and exact data) / pretest loop at N=8, where a solver call
  takes milliseconds and per-call overhead and step counts dominate.
* ``design-pretest-n12``: design figure of merit over fixed candidate
  designs plus three witness optimizations; no FitModel, many small
  eigendecompositions and many 1 x 1 barrier blocks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

ML_RESIDUAL_TOL = 1e-6
EXACT_FIT_TOL = 1e-4
WITNESS_CEILING = 1.0 + 1e-8
# Final barrier weight of the solver at the seed commit: a fit's
# gap_bound may not exceed it times the compressed dimension (beta times
# it for the hedged fit), and the witness's dual certificate uses it.
T_MIN = 1e-10
# Largest accepted gap between a witness's objective and the upper bound
# its dual certificate gives (about 1e-3 at the seed commit).
WITNESS_GAP_TOL = 1e-2

HEDGE_BETA = 0.01
# optimize_settings blends each axis with a random one by this weight.
P_MIX = 0.9
WITNESS_SHOTS = 1000


@dataclass
class Op:
    """One timed pitomo call and what its check needs."""

    kind: str
    phase: str
    result: object = None
    error: str | None = None
    seconds: float = 0.0
    context: dict = field(default_factory=dict)


class Clock:
    """Times calls into pitomo and keeps each as an ``Op``."""

    def __init__(self):
        self.ops: list[Op] = []

    @property
    def phase_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for op in self.ops:
            out[op.phase] = out.get(op.phase, 0.0) + op.seconds
        return out

    def call(self, kind, phase, fn, *args, context=None, **kwargs):
        op = Op(kind=kind, phase=phase, context=context or {})
        self.ops.append(op)
        start = time.perf_counter()
        try:
            op.result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            op.error = f"{type(exc).__name__}: {exc}"
        finally:
            op.seconds = time.perf_counter() - start
        return op.result


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed])


def _fit(api, clock, dataset, spec, truth, label):
    return clock.call(
        "fit", "reconstruct", api["reconstruct"].reconstruct, dataset, spec,
        context={"dataset": dataset, "truth": truth, "label": label},
    )


def _witness_and_bound(api, clock, target, settings, data):
    pretest = api["pretest"]
    witness = clock.call(
        "witness", "pretest", pretest.optimize_witness, target, settings,
        context={"target": target},
    )
    if witness is not None:
        clock.call("bound", "pretest", pretest.statistical_bound, witness, data)


@dataclass(frozen=True)
class ReconN16:
    """ML then LS on one sampled dataset of a noisy rotated Dicke mixture."""

    n_qubits: int = 16
    shots: int = 1000

    def build(self, api, seed):
        sim, design = api["sim"], api["design"]
        truth = sim.dicke_mixture_state(self.n_qubits, seed=seed)
        rng = _rng(seed, 1)
        settings = design.random_settings(
            design.determined_setting_count(self.n_qubits), seed=rng
        )
        dataset = sim.sample_dataset(truth, settings, self.shots, seed=rng)
        return {"truth": truth, "dataset": dataset}

    def run_pass(self, api, inputs, clock):
        FitSpec = api["reconstruct"].FitSpec
        for label, spec in (("ml", FitSpec.max_lik()), ("ls", FitSpec.least_squares())):
            _fit(api, clock, inputs["dataset"], spec, inputs["truth"], label)


@dataclass(frozen=True)
class LoopN8:
    """Simulate, reconstruct by every principle, and pretest, per truth."""

    n_qubits: int = 8
    truths: int = 8
    shots: int = 1000

    def build(self, api, seed):
        sim, design, spin_blocks = api["sim"], api["design"], api["spin_blocks"]
        layout = spin_blocks.sector_layout(self.n_qubits)
        rng = _rng(seed, 2)
        count = design.determined_setting_count(self.n_qubits)
        cases = []
        for i in range(self.truths):
            mode = sim.PURITY_MODES[i % 2]
            cases.append({
                "truth": sim.random_pi_state(layout, mode, seed=rng),
                "settings": design.random_settings(count, seed=rng),
                "sample_seed": int(rng.integers(2**32)),
                "witness_seed": int(rng.integers(2**32)),
            })
        return {"cases": cases}

    def run_pass(self, api, inputs, clock):
        sim, povm = api["sim"], api["povm"]
        FitSpec = api["reconstruct"].FitSpec
        axes = (povm.E1, povm.E2, povm.E3)
        for case in inputs["cases"]:
            truth = case["truth"]
            sampled = clock.call(
                "dataset", "sim", sim.sample_dataset, truth, case["settings"],
                self.shots, seed=case["sample_seed"],
            )
            exact = clock.call(
                "dataset", "sim", sim.exact_dataset, truth, case["settings"]
            )
            witness_data = clock.call(
                "dataset", "sim", sim.sample_dataset, truth, axes, self.shots,
                seed=case["witness_seed"],
            )
            if exact is not None:
                _fit(api, clock, exact, FitSpec.max_lik(), truth, "ml_exact")
            if sampled is not None:
                for label, spec in (
                    ("ml", FitSpec.max_lik()),
                    ("ls", FitSpec.least_squares()),
                    ("freels", FitSpec.free_least_squares()),
                    ("hedged", FitSpec.hedged(HEDGE_BETA)),
                ):
                    _fit(api, clock, sampled, spec, truth, label)
            if witness_data is not None:
                _witness_and_bound(api, clock, truth, axes, witness_data)


@dataclass(frozen=True)
class DesignPretestN12:
    """total_error over fixed candidate designs, then three witnesses."""

    n_qubits: int = 12
    candidates: int = 40
    random_axes: int = 6

    def build(self, api, seed):
        sim, design, povm, sb = (
            api["sim"], api["design"], api["povm"], api["spin_blocks"]
        )
        n = self.n_qubits
        rng = _rng(seed, 3)

        def determining(draw):
            # total_error is +inf, by definition, for a design that does
            # not determine the state, and optimize_settings rejects it;
            # redrawing keeps every timed call a full evaluation.
            settings = draw()
            while design.first_deficient_weight(settings, n) is not None:
                settings = draw()
            return settings

        def propose():
            # as optimize_settings proposes, always from the start, so the
            # work does not depend on which proposals would be accepted
            out = []
            for s in start:
                r = rng.normal(size=3)
                r /= np.linalg.norm(r)
                blended = P_MIX * s.axis + (1.0 - P_MIX) * r
                out.append(povm.Setting(axis=blended / np.linalg.norm(blended)))
            return out

        start = determining(lambda: design.random_settings(
            design.determined_setting_count(n), seed=rng
        ))
        problem = design.DesignProblem(
            n_qubits=n,
            target=sb.maximally_mixed_ensemble(sb.sector_layout(n)),
            settings=start,
        )
        candidates = [start]
        while len(candidates) < self.candidates:
            candidates.append(determining(propose))

        axes = (povm.E1, povm.E2, povm.E3)
        dicke = sb.dicke_ensemble(n, n // 2)
        jobs = []
        for target, settings in (
            (dicke, axes),
            (dicke, tuple(design.random_settings(self.random_axes, seed=rng))),
            (sb.ghz_ensemble(n), axes),
        ):
            data = sim.sample_dataset(target, settings, WITNESS_SHOTS, seed=rng)
            jobs.append((target, settings, data))
        return {"problem": problem, "candidates": candidates, "jobs": jobs}

    def run_pass(self, api, inputs, clock):
        design = api["design"]
        for settings in inputs["candidates"]:
            clock.call(
                "design", "design", design.total_error, inputs["problem"], settings
            )
        for target, settings, data in inputs["jobs"]:
            _witness_and_bound(api, clock, target, settings, data)


WORKLOADS = {
    "recon-n16": ReconN16(),
    "loop-n8": LoopN8(),
    "design-pretest-n12": DesignPretestN12(),
}

# Sizes small enough for the self-test to run every code path in seconds.
TINY_WORKLOADS = {
    "recon-n16": ReconN16(n_qubits=4, shots=200),
    "loop-n8": LoopN8(n_qubits=3, truths=2, shots=200),
    "design-pretest-n12": DesignPretestN12(n_qubits=4, candidates=2, random_axes=4),
}


def witness_dual_gap(api, target, witness) -> float:
    """Dual upper bound on the witness problem's optimum less the
    witness's objective, both computed here from the target and the
    coefficients.

    Weak duality: for any Hermitian L_j >= 0 on each spin sector j, with
    e_i = tr(rho_tar M_i) and residual r_i = e_i - sum_j tr(L_j M_ij),
    every feasible z in the box |z_i| <= B has
    e.z <= tr(L_top) + B |r|_1.  The point the barrier path converges to
    is L_j = T_MIN S_j^-1, S_j being the witness's slack blocks; their
    eigenvalues are floored at roundoff, which keeps L_j >= 0.
    """
    povm = api["povm"]
    n = witness.n_qubits
    n_out = n + 1
    z = witness.coefficients.ravel()
    block_sets = [povm.rotated_blocks(n, s) for s in witness.settings]
    residual = np.concatenate([povm.probabilities(target, bs) for bs in block_sets])
    objective = float(residual @ z)
    upper = 0.0
    for two_j in target.layout.two_j_values:
        d = two_j + 1
        terms = [
            (a * n_out + bs.k_offset(two_j), bs.sector_stacks[two_j])
            for a, bs in enumerate(block_sets)
        ]
        slack = np.eye(d, dtype=complex) if two_j == n else np.zeros((d, d), complex)
        for start, stack in terms:
            slack -= np.tensordot(z[start:start + d], stack, axes=(0, 0))
        lam, vecs = np.linalg.eigh(slack)
        dual = (vecs * (T_MIN / np.maximum(lam, 1e-14))) @ vecs.conj().T
        if two_j == n:
            upper += float(np.trace(dual).real)
        for start, stack in terms:
            residual[start:start + d] -= np.einsum("ij,rji->r", dual, stack).real
    bound = api["pretest"].DEFAULT_COEFFICIENT_BOUND
    return upper + bound * float(np.abs(residual).sum()) - objective


def check_op(api, op: Op) -> list[str]:
    """Reasons the operation failed; empty when it passed its check.

    A dataset is checked by its own constructor (finite, non-negative
    counts summing to the repetitions), so only raising fails it.
    """
    if op.error is not None:
        return [op.error]
    result, ctx = op.result, op.context
    bad = []
    if op.kind == "fit":
        label = ctx["label"]
        if not result.converged:
            bad.append(f"{label} fit did not converge")
        dim = api["spin_blocks"].sector_layout(ctx["dataset"].n_qubits).compressed_dim
        floor = HEDGE_BETA if label == "hedged" else T_MIN
        if not result.gap_bound <= floor * dim:
            bad.append(f"{label} gap bound {result.gap_bound:.3e} above {floor * dim:.3e}")
        if label in ("ml", "ml_exact"):
            residual = api["reconstruct"].likelihood_residual(
                ctx["dataset"], result.estimate
            )
            if not residual <= ML_RESIDUAL_TOL:
                bad.append(f"{label} likelihood residual {residual:.3e}")
        if label == "ml_exact":
            n = ctx["dataset"].n_qubits
            gap = max(
                float(np.max(np.abs(
                    api["povm"].probabilities(
                        result.estimate, api["povm"].rotated_blocks(n, rec.setting)
                    ) - rec.frequencies
                )))
                for rec in ctx["dataset"].records
            )
            if not gap <= EXACT_FIT_TOL:
                bad.append(f"exact-data fit misses the data by {gap:.3e}")
    elif op.kind == "witness":
        try:  # the constructor re-checks the operator inequalities
            api["pretest"].PretestWitness(
                n_qubits=result.n_qubits,
                settings=result.settings,
                coefficients=result.coefficients,
            )
        except ValueError as exc:
            bad.append(str(exc))
        if not result.objective <= WITNESS_CEILING:
            bad.append(f"witness objective {result.objective!r} above 1")
        gap = witness_dual_gap(api, ctx["target"], result)
        if not gap <= WITNESS_GAP_TOL:
            bad.append(f"witness objective {gap:.3e} below its dual bound")
    elif op.kind == "bound":
        # the bound is floored at -1; sampling noise may lift it above 1
        if not (result.bound >= -1.0 and math.isfinite(result.bound)
                and 0.0 <= result.confidence <= 1.0):
            bad.append(f"statistical bound out of range: {result}")
    elif op.kind == "design":
        if not (math.isfinite(result) and result > 0.0):
            bad.append(f"total_error {result!r} not finite and positive")
    return bad


def pass_summary(api, clock: Clock) -> dict:
    """Outcome figures of one pass (accuracy guards and count signature)."""
    distances, objectives, signature = [], [], []
    for op in clock.ops:
        if op.result is None:
            signature.append(None)
        elif op.kind == "fit":
            signature.append(op.result.total_iterations)
            if not op.context["dataset"].exact:
                distances.append(api["spin_blocks"].trace_distance(
                    op.result.estimate, op.context["truth"]
                ))
        elif op.kind == "witness":
            objectives.append(op.result.objective)
    return {
        "trace_distance": float(np.mean(distances)) if distances else None,
        "witness_objective": float(np.mean(objectives)) if objectives else None,
        "signature": signature,
    }
