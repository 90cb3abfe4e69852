"""Self-test of the benchmark: every workload's code path at tiny N.

    python3 bench/selftest.py

Runs each workload once untraced and once traced at the sizes of
``workloads.TINY_WORKLOADS``, and asserts that the metric names and
units agree with ``BENCHMARK.json``, that every operation passes its
check, and that the count metrics of two traced passes agree.  Then a
fit is made to raise under tracing, which must still give every
per-layer metric.  Exits 0 on success.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402
from tracing import (  # noqa: E402
    COUNT_METRICS,
    PER_LAYER_METRICS,
    Tracer,
    per_layer_metrics,
    pitomo_modules,
)
from workloads import TINY_WORKLOADS, Clock, check_op  # noqa: E402


def check_raising_fit_is_traced() -> None:
    """A fit whose Newton system cannot be solved raises inside
    newton_stage; the traced pass still gives every per-layer metric and
    the operation counts as failed."""
    api = pitomo_modules()
    rec = api["reconstruct"]
    inputs = TINY_WORKLOADS["recon-n16"].build(api, 7)

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    original, rec.cho_factor = rec.cho_factor, singular
    tracer, clock = Tracer(), Clock()
    tracer.install(api)
    tracer.active = True
    try:
        clock.call(
            "fit", "reconstruct", rec.reconstruct, inputs["dataset"],
            rec.FitSpec.max_lik(), context={"label": "ml"},
        )
    finally:
        tracer.active = False
        tracer.uninstall()
        rec.cho_factor = original
    assert check_op(api, clock.ops[0]), "a raising fit must fail its check"
    layers = per_layer_metrics(tracer.spans)
    assert set(layers) == {n for n, _, _ in PER_LAYER_METRICS} - {"trace_overhead_s"}
    assert layers["reconstruct.ml_calls"] == 1
    assert layers["reconstruct.stages"] == 1
    assert layers["reconstruct.newton_steps"] == 0
    assert layers["reconstruct.G_mb"] > 0


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(TINY_WORKLOADS)
    assert layer_units == {name: unit for name, unit, _ in PER_LAYER_METRICS}
    assert set(e2e_units) == set(run.GATED)

    out_dir = run.OUT_DIR / "selftest"
    for name in TINY_WORKLOADS:
        for trace, units in ((False, e2e_units), (True, layer_units)):
            # seconds=0 gives one pass, or one untraced and one traced pass
            report = run.run(name, 7, 0.0, trace, TINY_WORKLOADS, out_dir)
            result = report["result"]
            assert result["correct"] and result["failed"] == 0, report["passes"]
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == units, (name, trace, got)
            for item in result["metrics"].values():
                assert isinstance(item["value"], (int, float)), item
            assert report["counts_repeat"], name
            applies = [n for n, _, w in run.END_TO_END if w is None or name in w]
            assert list(report["end_to_end"]) == applies
        traced = report["traced_passes"]
        assert traced and set(COUNT_METRICS) <= set(traced[0]["layers"])
        again = run.run(name, 7, 0.0, True, TINY_WORKLOADS, out_dir)
        for metric in COUNT_METRICS:
            first = traced[0]["layers"][metric]
            assert again["traced_passes"][0]["layers"][metric] == first, metric
        print(f"ok {name}")
    check_raising_fit_is_traced()
    print("ok raising fit under tracing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
