"""Compare two source trees' results on the benchmark's inputs.

    python3 tools/parity.py OLD_ROOT NEW_ROOT

For each tree, one subprocess with one BLAS thread imports ``pitomo``
from ROOT/src and the workloads from ROOT/bench/workloads.py (read
only), builds their inputs and runs the same passes: recon-n16 seeds
1-5, loop-n8 seeds 5 and 1205, design-pretest-n12 seed 5.  The passes'
results, op by op, are then compared, and the report prints

* each fit label's largest trace distance between the two trees;
* each fit whose Newton steps or ``converged`` differ;
* the largest witness coefficient and objective difference;
* the largest relative ``total_error`` difference.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

PASSES = (("recon-n16", (1, 2, 3, 4, 5)), ("loop-n8", (5, 1205)), ("design-pretest-n12", (5,)))
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def collect(root: Path) -> dict:
    """The results of every pass on the tree ``root``, as plain data:
    {(workload, seed): [one record per op, in order]}.  A fit's record
    holds its label, estimate blocks, Newton steps and ``converged``; a
    witness's its coefficients and objective; a design's its
    ``total_error``.  A failed op records its error."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from tracing import pitomo_modules
    from workloads import WORKLOADS, Clock

    api = pitomo_modules()
    results = {}
    for name, seeds in PASSES:
        workload = WORKLOADS[name]
        for seed in seeds:
            clock = Clock()
            workload.run_pass(api, workload.build(api, seed), clock)
            results[name, seed] = [_record(op) for op in clock.ops]
    return results


def _record(op) -> dict:
    record = {"kind": op.kind, "error": op.error}
    result = op.result
    if result is None:
        return record
    if op.kind == "fit":
        record.update(label=op.context["label"], blocks=dict(result.estimate.blocks),
                      steps=result.total_iterations, converged=result.converged)
    elif op.kind == "witness":
        record.update(coefficients=np.asarray(result.coefficients),
                      objective=result.objective)
    elif op.kind == "design":
        record.update(total_error=float(result))
    return record


def run_tree(root: Path) -> dict:
    """``collect`` on ``root`` in a fresh subprocess with one BLAS thread."""
    env = dict(os.environ, **{name: "1" for name in THREADS}, PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "results.pickle"
        subprocess.run([sys.executable, __file__, "--collect", str(root), str(out)],
                       check=True, env=env)
        with out.open("rb") as handle:  # written by the subprocess above
            return pickle.load(handle)


def trace_distance(a: dict, b: dict) -> float:
    """(1/2) sum_j ||a_j - b_j||_1 of two block dictionaries."""
    return 0.5 * sum(float(np.abs(np.linalg.eigvalsh(a[j] - b[j])).sum()) for j in a)


def compare(old: dict, new: dict) -> dict:
    """The differences between two ``collect`` results on the same passes:
    ``distance`` {workload label: largest trace distance}, ``changed``
    [(pass, op index, label, old (steps, converged), new ...)], the
    largest absolute ``coefficients`` and ``objective`` differences of
    the witnesses, the largest relative ``total_error`` difference, and
    ``errors`` [(pass, op index)] where either tree failed an op."""
    if old.keys() != new.keys():
        raise ValueError("the two result sets cover different passes")
    summary = {"distance": {}, "changed": [], "coefficients": 0.0, "objective": 0.0,
               "total_error": 0.0, "errors": []}
    for key in old:
        if [r["kind"] for r in old[key]] != [r["kind"] for r in new[key]]:
            raise ValueError(f"pass {key} ran different ops in the two trees")
        for index, (a, b) in enumerate(zip(old[key], new[key])):
            if a["error"] is not None or b["error"] is not None:
                summary["errors"].append((key, index))
            elif a["kind"] == "fit":
                label = f"{key[0]} {a['label']}"
                distance = trace_distance(a["blocks"], b["blocks"])
                summary["distance"][label] = max(summary["distance"].get(label, 0.0), distance)
                before, after = (a["steps"], a["converged"]), (b["steps"], b["converged"])
                if before != after:
                    summary["changed"].append((key, index, a["label"], before, after))
            elif a["kind"] == "witness":
                difference = np.abs(a["coefficients"] - b["coefficients"]).max()
                summary["coefficients"] = max(summary["coefficients"], float(difference))
                summary["objective"] = max(summary["objective"],
                                           abs(a["objective"] - b["objective"]))
            elif a["kind"] == "design":
                relative = abs(b["total_error"] / a["total_error"] - 1.0)
                summary["total_error"] = max(summary["total_error"], relative)
    return summary


def report(summary: dict) -> list[str]:
    """The readable lines of a ``compare`` summary."""
    lines = [f"trace distance  {label:28s} {value:.3e}"
             for label, value in sorted(summary["distance"].items())]
    lines += [f"steps changed   {key[0]} seed {key[1]} op {index} {label}: "
              f"(steps, converged) {before} -> {after}"
              for key, index, label, before, after in summary["changed"]]
    lines.append(f"fits with changed steps or convergence: {len(summary['changed'])}")
    lines.append(f"witness coefficients  largest difference {summary['coefficients']:.3e}")
    lines.append(f"witness objective     largest difference {summary['objective']:.3e}")
    lines.append(f"design total_error    largest relative difference {summary['total_error']:.3e}")
    lines += [f"failed op       {key[0]} seed {key[1]} op {index}"
              for key, index in summary["errors"]]
    return lines


def main(argv: list[str]) -> None:
    if len(argv) == 4 and argv[1] == "--collect":
        results = collect(Path(argv[2]).resolve())
        with open(argv[3], "wb") as handle:
            pickle.dump(results, handle)
        return
    if len(argv) != 3:
        raise SystemExit(__doc__)
    old, new = (run_tree(Path(root).resolve()) for root in argv[1:])
    print("\n".join(report(compare(old, new))))


if __name__ == "__main__":
    main(sys.argv)
