"""Batch command-line front-end.

Subcommands wrap the library end to end:

    simulate           draw or evaluate datasets for a chosen state
    reconstruct        fit a state to a dataset (convex or fixed-point)
    pretest            optimize and evaluate the fidelity witness
    optimize-settings  random-walk measurement-design optimization

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
    PRINCIPLES,
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

__all__ = ["main", "EXIT_OK", "EXIT_SOLVER", "EXIT_INPUT"]

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_INPUT = 2

STATE_KINDS = ("ghz", "dicke", "mm", "pure", "mixed", "dicke-mixture")


class CliInputError(ValueError):
    """Invalid command parameters or malformed input files."""


def _say(args: argparse.Namespace, message: str) -> None:
    if args.verbose:
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


def cmd_simulate(args: argparse.Namespace) -> int:
    n = args.n
    if n is None:
        raise CliInputError("--n is required")
    if args.settings is None:
        raise CliInputError("--settings is required")
    if args.output is None:
        raise CliInputError("--output is required")
    settings = load_settings(args.settings)
    state = _build_state(args.state, n, args.excitations, args.seed)
    if args.exact:
        dataset = exact_dataset(state, settings)
    else:
        if args.shots is None:
            raise CliInputError("--shots is required unless --exact is given")
        dataset = sample_dataset(
            state, settings, repetitions=args.shots, seed=args.seed
        )
    save_dataset(dataset, args.output)
    detail = "exact" if dataset.exact else f"{args.shots} shots"
    _say(
        args,
        f"wrote {len(dataset.records)} records for N={n} ({detail}) "
        f"to {args.output}",
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    base = SolverConfig()
    return SolverConfig(
        t0=base.t0 if args.t0 is None else args.t0,
        t_min=base.t_min if args.t_min is None else args.t_min,
        grad_tol=base.grad_tol if args.grad_tol is None else args.grad_tol,
        max_newton_iters=(
            base.max_newton_iters
            if args.max_newton_iters is None
            else args.max_newton_iters
        ),
        strict=args.strict,
    )


def _fit_spec(args: argparse.Namespace) -> FitSpec:
    principle = args.principle
    if principle == "hedged":
        if args.beta is None:
            raise CliInputError("--principle hedged requires --beta")
        return FitSpec.hedged(args.beta)
    if args.beta is not None:
        raise CliInputError("--beta only applies to the hedged principle")
    return FitSpec(principle=principle)


def cmd_reconstruct(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    truth = SpinEnsemble.load(args.truth) if args.truth else None
    if truth is not None and truth.layout.n_qubits != dataset.n_qubits:
        raise CliInputError(
            f"truth is for N={truth.layout.n_qubits}, dataset for "
            f"N={dataset.n_qubits}"
        )

    if args.algorithm == "fixed-point":
        result = fixed_point_reconstruct(dataset, iterations=args.iters)
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
        spec = _fit_spec(args)
        try:
            result = reconstruct(dataset, spec, _solver_config(args))
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
            "total_hessians": result.total_hessians,
            "total_hessian_rows": result.total_hessian_rows,
            "estimate": result.estimate.to_json_dict(),
            "trace": [
                {
                    "t": stage.t,
                    "iterations": stage.iterations,
                    "fit_value": stage.fit_value,
                    "grad_norm": stage.grad_norm,
                    # NaN (no Newton direction formed) is not JSON
                    "decrement": None if math.isnan(stage.decrement) else stage.decrement,
                    "hessians": stage.hessians,
                    "hessian_rows": stage.hessian_rows,
                }
                for stage in result.trace
            ],
        }
        header = ["t", "iterations", "fit_value", "grad_norm", "decrement", "hessians",
                  "hessian_rows"]
        rows = [
            [f"{s.t!r}", s.iterations, f"{s.fit_value!r}", f"{s.grad_norm!r}", f"{s.decrement!r}",
             s.hessians, s.hessian_rows]
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
            f"{result.gap_bound:.3e}, {result.total_iterations} Newton steps, "
            f"{result.total_hessians} fit Hessians over {result.total_hessian_rows} rows"
        )
        if truth is not None:
            summary += f", distance to truth {payload['truth_distance']:.3e}"
        if not result.converged:
            summary += " (NOT fully converged)"

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    if args.trace:
        _write_csv(args.trace, header, rows)
    print(summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# pretest
# ---------------------------------------------------------------------------


def cmd_pretest(args: argparse.Namespace) -> int:
    target = SpinEnsemble.load(args.target)
    settings = (
        tuple(load_settings(args.settings)) if args.settings else (E1, E2, E3)
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
    if args.dataset:
        dataset = load_dataset(args.dataset)
        expectation = witness_expectation(witness, dataset)
        bound = fidelity_bound(witness, dataset)
        payload["expectation"] = expectation
        payload["fidelity_bound"] = bound
        print(f"measured expectation: {expectation:.6f}")
        print(f"fidelity bound: {bound:.6f}")
        if not dataset.exact:
            stat = statistical_bound(witness, dataset, epsilon=args.epsilon)
            payload["statistical_bound"] = stat.bound
            payload["confidence"] = stat.confidence
            print(
                f"statistical bound at epsilon={args.epsilon}: "
                f"{stat.bound:.6f} (confidence {stat.confidence:.6f})"
            )
    if args.witness_out:
        save_witness(witness, args.witness_out)
        _say(args, f"witness saved to {args.witness_out}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# optimize-settings
# ---------------------------------------------------------------------------


def cmd_optimize_settings(args: argparse.Namespace) -> int:
    n = args.n
    if n is None:
        raise CliInputError("--n is required")
    if args.output is None:
        raise CliInputError("--output is required")
    layout = sector_layout(n)
    target = SpinEnsemble.load(args.target) if args.target else (
        maximally_mixed_ensemble(layout)
    )
    if args.initial:
        initial = load_settings(args.initial)
    else:
        count = determined_setting_count(n) if args.count is None else args.count
        initial = random_settings(count, seed=args.seed)
    problem = DesignProblem(
        n_qubits=n,
        target=target,
        settings=tuple(initial),
        noise_constant=args.noise_constant,
    )
    if not math.isfinite(total_error(problem, problem.settings)):
        weight = first_deficient_weight(problem.settings, n)
        if weight is None:
            raise CliInputError(
                "the initial total error is not finite: lower --noise-constant"
            )
        raise CliInputError(
            f"initial settings cannot determine every element: the "
            f"weight-{weight} coefficient system is rank deficient"
        )
    result = optimize_settings(
        problem, seed=args.seed, p_mix=args.p_mix, max_stall=args.max_stall
    )
    save_settings(list(result.settings), args.output)
    if args.trace:
        _write_csv(
            args.trace,
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
    sp.add_argument("--principle", choices=PRINCIPLES, default="ml")
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

    return parser


_HANDLERS = {
    "simulate": cmd_simulate,
    "reconstruct": cmd_reconstruct,
    "pretest": cmd_pretest,
    "optimize-settings": cmd_optimize_settings,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return _HANDLERS[namespace.command](namespace)
    except NonConvergenceError as err:
        print(f"error: solver did not converge: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError, KeyError, TypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
