"""Fast guard for the benchmark harness in ``bench/``.

The harness wraps pitomo callables by name and checks witnesses through
the public block-set API; a rename in the package breaks it silently
until the benchmark runs.  This loads ``bench/tracing.py`` and
``bench/workloads.py`` by path and exercises both at tiny size.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from pitomo.pretest import optimize_witness
from pitomo.reconstruct import SolverConfig, t_schedule
from pitomo.spin_blocks import dicke_ensemble

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load_bench_module("tracing")


@pytest.fixture(scope="module")
def workloads():
    return load_bench_module("workloads")


def test_tracer_installs_and_restores(tracing):
    api = tracing.pitomo_modules()
    reconstruct = api["reconstruct"]
    hooked = [(api[caller], attr) for caller, attr, _, _ in tracing.FUNCTION_HOOKS]
    hooked += [
        (getattr(reconstruct, cls), attr) for cls, attr, _, _ in tracing.METHOD_HOOKS
    ]
    originals = [getattr(owner, attr) for owner, attr in hooked]
    tracer = tracing.Tracer()
    tracer.install(api)
    try:
        wrapped = [getattr(owner, attr) for owner, attr in hooked]
    finally:
        tracer.uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    restored = [getattr(owner, attr) for owner, attr in hooked]
    assert all(r is o for r, o in zip(restored, originals))


def test_witness_dual_gap(tracing, workloads):
    api = tracing.pitomo_modules()
    target = dicke_ensemble(3, 1)
    witness = optimize_witness(target)
    assert workloads.witness_dual_gap(api, target, witness) <= workloads.WITNESS_GAP_TOL


def test_tracer_sees_witness_barrier_work(tracing):
    # newton_stage evaluates the barrier derivatives once per accepted
    # step plus once in each stage's last iteration; barrier work moved
    # off the hooked AffineBlockMap methods would vanish from these figures
    api = tracing.pitomo_modules()
    tracer = tracing.Tracer()
    tracer.install(api)
    try:
        tracer.active = True
        api["pretest"].optimize_witness(dicke_ensemble(3, 1))
    finally:
        tracer.active = False
        tracer.uninstall()
    metrics = tracing.per_layer_metrics(tracer.spans)
    stages = len(t_schedule(SolverConfig()))
    assert metrics["pretest.newton_steps"] > 0
    assert metrics["reconstruct.barrier_derivs_calls"] == (
        metrics["pretest.newton_steps"] + stages
    )
    assert metrics["reconstruct.line_search_calls"] > 0
