"""Batch command-line front-end.

Subcommands wrap the library end to end:

    simulate           draw or evaluate datasets for a chosen state
    reconstruct        fit a state to a dataset (convex or fixed-point)
    pretest            optimize and evaluate the fidelity witness
    optimize-settings  random-walk measurement-design optimization
    benchmark          wall-clock table over qubit numbers and principles

Structured artifacts are JSON (schemas owned by the library modules);
iteration traces are plain CSV so they can be plotted directly.  Every
command is deterministic given its inputs and --seed.  Exit codes:
0 success, 1 solver non-convergence, 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .design import (
    DesignProblem,
    determined_setting_count,
    first_deficient_weight,
    optimize_settings,
    random_settings,
    total_error,
)
from .povm import E1, E2, E3, load_settings, save_settings
from .pretest import (
    fidelity_bound,
    optimize_witness,
    save_witness,
    statistical_bound,
    witness_expectation,
)
from .reconstruct import (
    FitSpec,
    NonConvergenceError,
    SolverConfig,
    fixed_point_reconstruct,
    likelihood_residual,
    reconstruct,
)
from .sim import (
    dicke_mixture_state,
    exact_dataset,
    load_dataset,
    random_pi_state,
    sample_dataset,
    save_dataset,
)
from .spin_blocks import (
    SpinEnsemble,
    dicke_ensemble,
    ghz_ensemble,
    maximally_mixed_ensemble,
    sector_layout,
    trace_distance,
)

__all__ = ["JobConfig", "main", "EXIT_OK", "EXIT_SOLVER", "EXIT_INPUT"]

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_INPUT = 2

STATE_KINDS = ("ghz", "dicke", "mm", "pure", "mixed", "dicke-mixture")


class CliInputError(ValueError):
    """Invalid command parameters or malformed input files."""


@dataclass(frozen=True)
class JobConfig:
    """One validated job: the subcommand plus its parameter record."""

    command: str
    params: dict
    seed: int | None = None
    output: str | None = None
    verbose: bool = False

    @classmethod
    def from_namespace(cls, namespace) -> "JobConfig":
        params = dict(vars(namespace))
        return cls(
            command=params.pop("command"),
            seed=params.pop("seed", None),
            output=params.pop("output", None),
            verbose=params.pop("verbose", False),
            params=params,
        )


def _say(config: JobConfig, message: str) -> None:
    if config.verbose:
        print(message)


def _build_state(kind: str, n_qubits: int, excitations, seed) -> SpinEnsemble:
    layout = sector_layout(n_qubits)
    if kind == "ghz":
        return ghz_ensemble(n_qubits)
    if kind == "dicke":
        k = n_qubits // 2 if excitations is None else excitations
        return dicke_ensemble(n_qubits, k)
    if kind == "mm":
        return maximally_mixed_ensemble(layout)
    if kind == "pure":
        return random_pi_state(layout, "haar-pure", seed=seed)
    if kind == "mixed":
        return random_pi_state(layout, "hs-mixed", seed=seed)
    if kind == "dicke-mixture":
        return dicke_mixture_state(n_qubits, seed=seed)
    raise CliInputError(f"unknown state kind {kind!r}")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(config: JobConfig) -> int:
    p = config.params
    n = p["n"]
    if n is None:
        raise CliInputError("--n is required")
    if p["settings"] is None:
        raise CliInputError("--settings is required")
    if config.output is None:
        raise CliInputError("--output is required")
    settings = load_settings(p["settings"])
    state = _build_state(p["state"], n, p["excitations"], config.seed)
    if p["exact"]:
        dataset = exact_dataset(state, settings)
    else:
        if p["shots"] is None:
            raise CliInputError("--shots is required unless --exact is given")
        dataset = sample_dataset(
            state, settings, repetitions=p["shots"], seed=config.seed
        )
    save_dataset(dataset, config.output)
    detail = "exact" if dataset.exact else f"{p['shots']} shots"
    _say(
        config,
        f"wrote {len(dataset.records)} records for N={n} ({detail}) "
        f"to {config.output}",
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------


def _solver_config(p: dict) -> SolverConfig:
    base = SolverConfig()
    return SolverConfig(
        t0=base.t0 if p["t0"] is None else p["t0"],
        t_min=base.t_min if p["t_min"] is None else p["t_min"],
        grad_tol=base.grad_tol if p["grad_tol"] is None else p["grad_tol"],
        max_newton_iters=(
            base.max_newton_iters
            if p["max_newton_iters"] is None
            else p["max_newton_iters"]
        ),
        strict=p["strict"],
    )


def _fit_spec(p: dict) -> FitSpec:
    principle = p["principle"]
    if principle == "hedged":
        if p["beta"] is None:
            raise CliInputError("--principle hedged requires --beta")
        return FitSpec.hedged(p["beta"])
    if p["beta"] is not None:
        raise CliInputError("--beta only applies to the hedged principle")
    return FitSpec(principle=principle)


def cmd_reconstruct(config: JobConfig) -> int:
    p = config.params
    dataset = load_dataset(p["dataset"])
    truth = SpinEnsemble.load(p["truth"]) if p["truth"] else None
    if truth is not None and truth.layout.n_qubits != dataset.n_qubits:
        raise CliInputError(
            f"truth is for N={truth.layout.n_qubits}, dataset for "
            f"N={dataset.n_qubits}"
        )

    if p["algorithm"] == "fixed-point":
        result = fixed_point_reconstruct(dataset, iterations=p["iters"])
        residual = likelihood_residual(dataset, result.estimate)
        payload = {
            "algorithm": "fixed-point",
            "n_qubits": dataset.n_qubits,
            "iterations": result.iterations,
            "fit_value": float(result.fit_trace[-1]),
            "likelihood_residual": residual,
            "estimate": result.estimate.to_json_dict(),
        }
        header = ["iteration", "fit_value"]
        rows = [[i, repr(float(v))] for i, v in enumerate(result.fit_trace)]
        summary = (
            f"fixed-point: {result.iterations} iterations, "
            f"fit {result.fit_trace[-1]:.9g}, residual {residual:.3e}"
        )
        if truth is not None:
            distance = trace_distance(result.estimate, truth)
            payload["truth_distance"] = distance
            summary += f", distance to truth {distance:.3e}"
    else:
        spec = _fit_spec(p)
        try:
            result = reconstruct(dataset, spec, _solver_config(p))
        except NonConvergenceError as err:
            print(f"error: solver did not converge: {err}", file=sys.stderr)
            return EXIT_SOLVER
        payload = {
            "algorithm": "convex",
            "principle": spec.principle,
            "n_qubits": dataset.n_qubits,
            "fit_value": result.fit_value,
            "gap_bound": result.gap_bound,
            "converged": result.converged,
            "total_iterations": result.total_iterations,
            "estimate": result.estimate.to_json_dict(),
            "trace": [
                {
                    "t": stage.t,
                    "iterations": stage.iterations,
                    "fit_value": stage.fit_value,
                    "grad_norm": stage.grad_norm,
                    # NaN (no Newton direction formed) is not JSON
                    "decrement": None if math.isnan(stage.decrement) else stage.decrement,
                }
                for stage in result.trace
            ],
        }
        header = ["t", "iterations", "fit_value", "grad_norm", "decrement"]
        rows = [
            [f"{s.t!r}", s.iterations, f"{s.fit_value!r}", f"{s.grad_norm!r}", f"{s.decrement!r}"]
            for s in result.trace
        ]
        if truth is not None:
            header.append("trace_distance")
            for row, stage in zip(rows, result.trace):
                d = trace_distance(stage.estimate, truth)
                row.append(f"{d!r}")
            payload["truth_distance"] = trace_distance(result.estimate, truth)
            for entry, row in zip(payload["trace"], rows):
                entry["trace_distance"] = float(row[-1])
        summary = (
            f"{spec.principle}: fit {result.fit_value:.9g}, gap bound "
            f"{result.gap_bound:.3e}, {result.total_iterations} Newton steps"
        )
        if truth is not None:
            summary += f", distance to truth {payload['truth_distance']:.3e}"
        if not result.converged:
            summary += " (NOT fully converged)"

    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    if p["trace"]:
        _write_csv(p["trace"], header, rows)
    print(summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# pretest
# ---------------------------------------------------------------------------


def cmd_pretest(config: JobConfig) -> int:
    p = config.params
    target = SpinEnsemble.load(p["target"])
    settings = (
        tuple(load_settings(p["settings"])) if p["settings"] else (E1, E2, E3)
    )
    witness = optimize_witness(target, settings)
    print(f"witness objective at target: {witness.objective:.9f}")
    print(f"sensitivity C_z^2: {witness.c_z_squared:.6f}")
    for setting, hi, lo in zip(
        witness.settings, witness.setting_maxima, witness.setting_minima
    ):
        ax = np.array2string(setting.axis, precision=6, suppress_small=True)
        print(f"  setting {ax}: coefficients in [{lo:.6f}, {hi:.6f}]")

    payload = {
        "objective": witness.objective,
        "c_z_squared": witness.c_z_squared,
        "setting_maxima": witness.setting_maxima.tolist(),
        "setting_minima": witness.setting_minima.tolist(),
    }
    if p["dataset"]:
        dataset = load_dataset(p["dataset"])
        expectation = witness_expectation(witness, dataset)
        bound = fidelity_bound(witness, dataset)
        payload["expectation"] = expectation
        payload["fidelity_bound"] = bound
        print(f"measured expectation: {expectation:.6f}")
        print(f"fidelity bound: {bound:.6f}")
        if not dataset.exact:
            stat = statistical_bound(witness, dataset, epsilon=p["epsilon"])
            payload["statistical_bound"] = stat.bound
            payload["confidence"] = stat.confidence
            print(
                f"statistical bound at epsilon={p['epsilon']}: "
                f"{stat.bound:.6f} (confidence {stat.confidence:.6f})"
            )
    if p["witness_out"]:
        save_witness(witness, p["witness_out"])
        _say(config, f"witness saved to {p['witness_out']}")
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# optimize-settings
# ---------------------------------------------------------------------------


def cmd_optimize_settings(config: JobConfig) -> int:
    p = config.params
    n = p["n"]
    if n is None:
        raise CliInputError("--n is required")
    if config.output is None:
        raise CliInputError("--output is required")
    layout = sector_layout(n)
    target = SpinEnsemble.load(p["target"]) if p["target"] else (
        maximally_mixed_ensemble(layout)
    )
    if p["initial"]:
        initial = load_settings(p["initial"])
    else:
        count = p["count"] or determined_setting_count(n)
        initial = random_settings(count, seed=config.seed)
    problem = DesignProblem(
        n_qubits=n,
        target=target,
        settings=tuple(initial),
        noise_constant=p["noise_constant"],
    )
    if math.isinf(total_error(problem, problem.settings)):
        weight = first_deficient_weight(problem.settings, n)
        raise CliInputError(
            f"initial settings cannot determine every element: the "
            f"weight-{weight} coefficient system is rank deficient"
        )
    result = optimize_settings(
        problem, seed=config.seed, p_mix=p["p_mix"], max_stall=p["max_stall"]
    )
    save_settings(list(result.settings), config.output)
    if p["trace"]:
        _write_csv(
            p["trace"],
            ["iteration", "total_error"],
            [[i, repr(float(e))] for i, e in enumerate(result.error_trace)],
        )
    print(
        f"total error {result.error_trace[0]:.6g} -> {result.final_error:.6g} "
        f"over {result.proposals} proposals ({len(result.error_trace) - 1} "
        f"accepted)"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------


def cmd_benchmark(config: JobConfig) -> int:
    p = config.params
    sizes = [int(tok) for tok in p["sizes"].split(",") if tok]
    principles = [tok.strip() for tok in p["principles"].split(",") if tok]
    if not sizes:
        raise CliInputError("--sizes must name at least one qubit number")
    for principle in principles:
        if principle not in ("ml", "ls", "freels"):
            raise CliInputError(f"unsupported benchmark principle {principle!r}")
    seed = 0 if config.seed is None else config.seed

    rows = []
    for n in sizes:
        layout = sector_layout(n)
        truth = random_pi_state(layout, "haar-pure", seed=seed)
        count = p["settings_count"] or determined_setting_count(n)
        settings = random_settings(count, seed=seed + 1)
        datasets = [
            ("exact", exact_dataset(truth, settings)),
            (
                "sampled",
                sample_dataset(
                    truth, settings, repetitions=p["shots"], seed=seed + 2
                ),
            ),
        ]
        for principle in principles:
            for mode, dataset in datasets:
                start = time.perf_counter()
                result = reconstruct(dataset, FitSpec(principle=principle))
                seconds = time.perf_counter() - start
                distance = trace_distance(result.estimate, truth)
                rows.append(
                    [
                        n,
                        principle,
                        mode,
                        f"{seconds:.3f}",
                        result.total_iterations,
                        f"{result.fit_value!r}",
                        f"{distance:.3e}",
                    ]
                )
                _say(
                    config,
                    f"N={n} {principle} {mode}: {seconds:.2f}s, "
                    f"{result.total_iterations} iterations, "
                    f"distance {distance:.2e}",
                )

    header = [
        "n",
        "principle",
        "mode",
        "seconds",
        "iterations",
        "fit_value",
        "trace_distance",
    ]
    if config.output:
        _write_csv(config.output, header, rows)
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(str(cell) for cell in row))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pitomo",
        description="Permutationally invariant qubit-state tomography toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--verbose", "-v", action="store_true")

    sp = sub.add_parser("simulate", help="generate a measurement dataset")
    sp.add_argument("--n", type=int, default=None, help="number of qubits")
    sp.add_argument("--state", choices=STATE_KINDS, default="ghz")
    sp.add_argument(
        "--excitations", type=int, default=None,
        help="Dicke excitation number (default N/2)",
    )
    sp.add_argument("--settings", default=None, help="settings JSON file")
    sp.add_argument("--shots", type=int, default=None)
    sp.add_argument("--exact", action="store_true",
                    help="store exact outcome probabilities instead of counts")
    sp.add_argument("--output", "-o", default=None)
    common(sp)

    sp = sub.add_parser("reconstruct", help="fit a state to a dataset")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--principle", choices=("ml", "ls", "freels", "hedged"),
                    default="ml")
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--algorithm", choices=("convex", "fixed-point"),
                    default="convex")
    sp.add_argument("--iters", type=int, default=3000,
                    help="fixed-point iteration count")
    sp.add_argument("--truth", default=None,
                    help="ensemble JSON to compare against")
    sp.add_argument("--trace", default=None, help="per-stage trace CSV path")
    sp.add_argument("--t0", type=float, default=None)
    sp.add_argument("--t-min", dest="t_min", type=float, default=None)
    sp.add_argument("--grad-tol", dest="grad_tol", type=float, default=None)
    sp.add_argument("--max-newton-iters", dest="max_newton_iters", type=int,
                    default=None)
    sp.add_argument("--strict", action="store_true")
    sp.add_argument("--output", "-o", default=None, help="result JSON path")
    common(sp)

    sp = sub.add_parser("pretest", help="optimize and evaluate the witness")
    sp.add_argument("--target", required=True, help="target ensemble JSON")
    sp.add_argument("--settings", default=None,
                    help="settings JSON (default: the three coordinate axes)")
    sp.add_argument("--dataset", default=None)
    sp.add_argument("--epsilon", type=float, default=0.05)
    sp.add_argument("--witness-out", dest="witness_out", default=None)
    sp.add_argument("--output", "-o", default=None, help="report JSON path")
    common(sp)

    sp = sub.add_parser("optimize-settings",
                        help="random-walk design optimization")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--target", default=None,
                    help="target ensemble JSON (default: maximally mixed)")
    sp.add_argument("--count", type=int, default=None,
                    help="random initial setting count")
    sp.add_argument("--initial", default=None, help="initial settings JSON")
    sp.add_argument("--noise-constant", dest="noise_constant", type=float,
                    default=1.0)
    sp.add_argument("--p-mix", dest="p_mix", type=float, default=0.9)
    sp.add_argument("--max-stall", dest="max_stall", type=int, default=500)
    sp.add_argument("--trace", default=None, help="error trace CSV path")
    sp.add_argument("--output", "-o", default=None, help="settings JSON path")
    common(sp)

    sp = sub.add_parser("benchmark", help="timing table over qubit numbers")
    sp.add_argument("--sizes", default="8,12", help="comma-separated N list")
    sp.add_argument("--principles", default="ml,ls")
    sp.add_argument("--shots", type=int, default=1000)
    sp.add_argument("--settings-count", dest="settings_count", type=int,
                    default=None)
    sp.add_argument("--output", "-o", default=None, help="CSV path")
    common(sp)

    return parser


_HANDLERS = {
    "simulate": cmd_simulate,
    "reconstruct": cmd_reconstruct,
    "pretest": cmd_pretest,
    "optimize-settings": cmd_optimize_settings,
    "benchmark": cmd_benchmark,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    config = JobConfig.from_namespace(namespace)
    try:
        return _HANDLERS[config.command](config)
    except NonConvergenceError as err:
        print(f"error: solver did not converge: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError, KeyError, TypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
