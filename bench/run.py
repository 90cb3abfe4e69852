"""Benchmark runner for pitomo: one workload, one seed, one JSON line.

    python3 bench/run.py --workload recon-n16 --seed 1 --seconds 35 --trace 0

Run from the repository root.  The package is imported from ``src/``
next to this directory; BLAS and OpenMP are pinned to one thread before
numpy loads.  Set-up (import plus building every input from the seed)
is repeated and its median reported as ``setup_s``.  Then whole passes
of the workload run back to back until the next one would end after
``--seconds``; every pass uses the same inputs, and times are medians
over passes.  Each result is checked after its pass, outside the timed
region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, at least one of each, and reports the
per-layer metrics of ``tracing.PER_LAYER_METRICS``; the spans of the
first traced pass are written to ``bench/out/``.  The last line of
standard output is the JSON result; the lines before it are a readable
report.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from tracing import (  # noqa: E402
    PER_LAYER_METRICS,
    Tracer,
    per_layer_metrics,
    pitomo_modules,
    write_spans,
)
from workloads import WORKLOADS, Clock, check_op, pass_summary  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 3

# (name, unit, workloads it applies to or None for all).  Only GATED,
# defined and non-zero on every workload, go into the JSON line of an
# untraced run; the rest are printed and written to the report.
END_TO_END = [
    ("setup_s", "s", None),
    ("total_s", "s", None),
    ("peak_rss_mb", "MB", None),
    ("reconstruct_s", "s", ("recon-n16", "loop-n8")),
    ("pretest_s", "s", ("loop-n8", "design-pretest-n12")),
    ("design_s", "s", ("design-pretest-n12",)),
    ("trace_distance", "1", ("recon-n16", "loop-n8")),
    ("witness_objective", "1", ("loop-n8", "design-pretest-n12")),
    ("fail_rate", "1", None),
]
GATED = ("setup_s", "total_s", "peak_rss_mb")

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import pitomo\n"
    "print(time.perf_counter() - start)\n"
)


def _import_seconds() -> float:
    """Wall time of ``import pitomo`` (numpy and scipy included) in a
    fresh interpreter with this process's environment."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas": blas.get("openblas configuration", blas.get("name")),
        "threads": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"
        )},
        "note": "shared VM without CPU pinning; load average recorded per run",
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _one_pass(api, workload, inputs, tracer=None):
    clock = Clock()
    if tracer is not None:
        tracer.clear()
        tracer.active = True
    start = time.perf_counter()
    try:
        workload.run_pass(api, inputs, clock)
    finally:
        total = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
    failures = []
    for op in clock.ops:
        reasons = check_op(api, op)
        if reasons:
            failures.append(f"{op.kind}: {'; '.join(reasons)}")
    return {
        "total_s": total,
        "phase_s": clock.phase_s,
        "attempted": len(clock.ops),
        "failed": len(failures),
        "failures": failures,
        **pass_summary(api, clock),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        workloads=None, out_dir: Path = OUT_DIR) -> dict:
    """Run one workload and return its report; ``report["result"]`` is
    the object printed last."""
    import pitomo  # from SRC, which the caller puts on sys.path

    if not Path(pitomo.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"pitomo imported from {pitomo.__file__}, not {SRC}")
    workload = (workloads or WORKLOADS)[workload_name]
    api = pitomo_modules()
    env = _environment()
    load_before = os.getloadavg()

    import_s = [_import_seconds() for _ in range(SETUP_REPEATS)]
    build_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.build(api, seed)
        build_s.append(time.perf_counter() - start)
    setup_s = statistics.median(import_s) + statistics.median(build_s)

    t_run = time.perf_counter()

    def another_fits(t_pass: float) -> bool:
        elapsed = time.perf_counter() - t_run
        return elapsed + (time.perf_counter() - t_pass) <= seconds

    # A traced run alternates untraced and traced passes, so that the
    # untraced ones, its reference, see the same machine state.
    passes, traced, spans = [], [], None
    tracer = Tracer() if trace else None
    while True:
        t_pass = time.perf_counter()
        passes.append(_one_pass(api, workload, inputs))
        if trace:
            tracer.install(api)
            try:
                record = _one_pass(api, workload, inputs, tracer)
            finally:
                tracer.uninstall()
            record["layers"] = per_layer_metrics(tracer.spans)
            if spans is None:
                spans = tracer.spans
            traced.append(record)
        if not another_fits(t_pass):
            break
    load_after = os.getloadavg()

    everything = passes + traced
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    signatures = {json.dumps(p["signature"]) for p in everything}
    counts_repeat = len(signatures) == 1

    def median_of(key, records=passes):
        values = [r[key] for r in records if r[key] is not None]
        return statistics.median(values) if values else None

    phase = {
        name: statistics.median(p["phase_s"].get(name, 0.0) for p in passes)
        for name in ("reconstruct", "pretest", "design")
    }
    e2e = {
        "setup_s": setup_s,
        "total_s": median_of("total_s"),
        "peak_rss_mb": _peak_rss_mb(),
        "reconstruct_s": phase["reconstruct"],
        "pretest_s": phase["pretest"],
        "design_s": phase["design"],
        "trace_distance": median_of("trace_distance"),
        "witness_objective": median_of("witness_objective"),
        "fail_rate": failed / attempted,
    }

    units = {name: unit for name, unit, _ in END_TO_END}
    if trace:
        layer_values = {}
        for name, unit, _ in PER_LAYER_METRICS:
            if name == "trace_overhead_s":
                continue
            values = [t["layers"][name] for t in traced]
            if unit == "count" and len(set(values)) > 1:
                counts_repeat = False
            layer_values[name] = (
                statistics.median(values) if unit == "s" else values[0]
            )
        layer_values["trace_overhead_s"] = (
            median_of("total_s", traced) - median_of("total_s")
        )
        metrics = {
            name: {"value": layer_values[name], "unit": unit}
            for name, unit, _ in PER_LAYER_METRICS
        }
    else:
        metrics = {name: {"value": e2e[name], "unit": units[name]} for name in GATED}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "load_average_before": load_before,
        "load_average_after": load_after,
        "setup": {"import_s": import_s, "build_s": build_s},
        "passes": passes,
        "traced_passes": traced,
        "end_to_end": {
            name: {"value": e2e[name], "unit": unit}
            for name, unit, applies in END_TO_END
            if applies is None or workload_name in applies
        },
        "counts_repeat": counts_repeat,
        "result": result,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}"
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
        fh.write("\n")
    if spans is not None:
        write_spans(out_dir / f"{stem}-spans.json", spans)
    return report


def _print_report(report: dict) -> None:
    env = report["environment"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {int(report['trace'])}  passes {len(report['passes'])}"
          f"+{len(report['traced_passes'])} traced")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, nproc {env['nproc']}, affinity "
          f"{env['cpu_affinity']}, {env['blas']}, threads {env['threads']}")
    print(f"load average before {report['load_average_before']} "
          f"after {report['load_average_after']} ({env['note']})")
    for name, item in report["end_to_end"].items():
        print(f"  {name:<20} {item['value']!r} {item['unit']}")
    if report["trace"]:
        for name, item in report["result"]["metrics"].items():
            print(f"  {name:<36} {item['value']!r} {item['unit']}")
    if not report["counts_repeat"]:
        print("warning: step or call counts differ between passes")
    for record in report["passes"] + report["traced_passes"]:
        for failure in record["failures"]:
            print(f"failed: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pitomo" / "__init__.py").is_file():
        print(f"error: no pitomo package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_report(report)
    print(json.dumps(report["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
