"""Call-boundary tracing of the pitomo modules, from outside the package.

A ``Tracer`` replaces each traced callable by a timing wrapper at the
place where its caller looks it up: ``rotated_blocks`` is imported by
name into ``pitomo.design``, ``pitomo.sim``, ``pitomo.pretest`` and
``pitomo.reconstruct``, so each of those module attributes is wrapped
separately; methods are wrapped on their class.  Spans (name, parent,
start, end, caller module, info) are kept in memory while the tracer is
active and written out by the runner at the end.  ``per_layer_metrics``
turns one traced pass into the per-layer figures named in
``PER_LAYER_METRICS``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

LAYERS = ("spin_blocks", "povm", "sim", "reconstruct", "pretest", "design")
PRINCIPLE_LABELS = ("ml", "ml_exact", "ls", "freels", "hedged")

# (name, unit, better) of every metric a traced run reports.
PER_LAYER_METRICS = [
    ("spin_blocks.hermitian_expm_calls", "count", "lower"),
    ("spin_blocks.hermitian_expm_s", "s", "lower"),
    ("povm.rotated_blocks_calls", "count", "lower"),
    ("povm.rotated_blocks_s", "s", "lower"),
    ("povm.probabilities_calls", "count", "lower"),
    ("povm.probabilities_s", "s", "lower"),
    ("sim.sample_dataset_calls", "count", "lower"),
    ("sim.sample_dataset_s", "s", "lower"),
    ("sim.exact_dataset_calls", "count", "lower"),
    ("sim.exact_dataset_s", "s", "lower"),
    ("reconstruct.build_fit_model_calls", "count", "lower"),
    ("reconstruct.build_fit_model_s", "s", "lower"),
    *[
        (f"reconstruct.{label}_{kind}", unit, "lower")
        for label in PRINCIPLE_LABELS
        for kind, unit in (("calls", "count"), ("s", "s"))
    ],
    ("reconstruct.stages", "count", "lower"),
    ("reconstruct.newton_steps", "count", "lower"),
    ("reconstruct.step_s", "s", "lower"),
    ("reconstruct.fit_derivs_calls", "count", "lower"),
    ("reconstruct.fit_derivs_s", "s", "lower"),
    ("reconstruct.barrier_derivs_calls", "count", "lower"),
    ("reconstruct.barrier_derivs_s", "s", "lower"),
    ("reconstruct.factor_calls", "count", "lower"),
    ("reconstruct.factor_s", "s", "lower"),
    ("reconstruct.line_search_calls", "count", "lower"),
    ("reconstruct.line_search_s", "s", "lower"),
    ("reconstruct.ls_trials", "count", "lower"),
    ("reconstruct.infeasible_trials", "count", "lower"),
    ("reconstruct.step_accept_ratio", "1", "higher"),
    ("reconstruct.endgame_evals", "count", "lower"),
    ("reconstruct.G_mb", "MB", "lower"),
    ("pretest.optimize_witness_calls", "count", "lower"),
    ("pretest.optimize_witness_s", "s", "lower"),
    ("pretest.newton_steps", "count", "lower"),
    ("pretest.statistical_bound_calls", "count", "lower"),
    ("pretest.statistical_bound_s", "s", "lower"),
    ("design.total_error_calls", "count", "lower"),
    ("design.total_error_s", "s", "lower"),
    ("design.eval_s", "s", "lower"),
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    ("trace_overhead_s", "s", "lower"),
]

# Metrics that must repeat exactly for a fixed seed.
COUNT_METRICS = [
    name for name, unit, _ in PER_LAYER_METRICS if unit == "count"
] + ["reconstruct.G_mb", "reconstruct.step_accept_ratio"]

# Per-layer metric prefix -> spans whose calls and seconds it sums.
SUMMED_SPANS = {
    "spin_blocks.hermitian_expm": ("spin_blocks.hermitian_expm",),
    "povm.rotated_blocks": ("povm.rotated_blocks",),
    "povm.probabilities": ("povm.probabilities",),
    "sim.sample_dataset": ("sim.sample_dataset",),
    "sim.exact_dataset": ("sim.exact_dataset",),
    "reconstruct.build_fit_model": ("reconstruct.build_fit_model",),
    **{
        f"reconstruct.{label}": (f"reconstruct.reconstruct.{label}",)
        for label in PRINCIPLE_LABELS
    },
    "reconstruct.fit_derivs": ("reconstruct.FitModel.gradient_hessian",),
    "reconstruct.barrier_derivs": ("reconstruct.AffineBlockMap.barrier_grad_hess",),
    "reconstruct.factor": ("reconstruct.cho_factor", "reconstruct.cho_solve"),
    "pretest.optimize_witness": ("pretest.optimize_witness",),
    "pretest.statistical_bound": ("pretest.statistical_bound",),
    "design.total_error": ("design.total_error",),
}

# Spans of these methods, called directly by newton_stage, are the
# line search: trial points, their feasibility and their objective.
LINE_SEARCH_SPANS = frozenset({
    "reconstruct.AffineBlockMap.blocks",
    "reconstruct.AffineBlockMap.cholesky_list",
    "reconstruct.AffineBlockMap.barrier_value",
    "reconstruct.FitModel.value",
    "reconstruct.LinearFit.value",
})


def _fit_span_name(args, kwargs):
    dataset, spec = args[0], args[1] if len(args) > 1 else kwargs["spec"]
    label = "ml_exact" if spec.principle == "ml" and dataset.exact else spec.principle
    return f"reconstruct.reconstruct.{label}"


def _g_megabytes(args, kwargs, result):
    rows, cols = result.G.shape
    return rows * cols * 8 / 1e6


# (module where the callable is looked up, attribute, span name, info).
# A span name may be a function of the call's arguments; info is a
# function of the arguments and the result, recorded when the call
# returns (a call that raises keeps info None).
FUNCTION_HOOKS = [
    ("povm", "hermitian_expm", "spin_blocks.hermitian_expm", None),
    ("sim", "hermitian_expm", "spin_blocks.hermitian_expm", None),
    *[
        (caller, "rotated_blocks", "povm.rotated_blocks", None)
        for caller in ("design", "sim", "pretest", "reconstruct")
    ],
    *[
        (caller, "probabilities", "povm.probabilities", None)
        for caller in ("design", "sim", "pretest")
    ],
    ("sim", "sample_dataset", "sim.sample_dataset", None),
    ("sim", "exact_dataset", "sim.exact_dataset", None),
    ("reconstruct", "reconstruct", _fit_span_name, None),
    ("reconstruct", "build_fit_model", "reconstruct.build_fit_model", _g_megabytes),
    ("reconstruct", "newton_stage", "reconstruct.newton_stage",
     lambda a, k, r: r.iterations),
    ("pretest", "newton_stage", "reconstruct.newton_stage",
     lambda a, k, r: r.iterations),
    ("reconstruct", "cho_factor", "reconstruct.cho_factor", None),
    ("reconstruct", "cho_solve", "reconstruct.cho_solve", None),
    ("pretest", "optimize_witness", "pretest.optimize_witness", None),
    ("pretest", "statistical_bound", "pretest.statistical_bound", None),
    ("design", "total_error", "design.total_error", None),
]

# (class, method, span name, info); classes live in pitomo.reconstruct.
METHOD_HOOKS = [
    ("FitModel", "gradient_hessian", "reconstruct.FitModel.gradient_hessian", None),
    ("FitModel", "value", "reconstruct.FitModel.value", None),
    ("LinearFit", "value", "reconstruct.LinearFit.value", None),
    ("AffineBlockMap", "barrier_grad_hess",
     "reconstruct.AffineBlockMap.barrier_grad_hess", None),
    ("AffineBlockMap", "barrier_grad", "reconstruct.AffineBlockMap.barrier_grad", None),
    ("AffineBlockMap", "blocks", "reconstruct.AffineBlockMap.blocks", None),
    ("AffineBlockMap", "cholesky_list", "reconstruct.AffineBlockMap.cholesky_list",
     lambda a, k, r: r is None),
    ("AffineBlockMap", "barrier_value", "reconstruct.AffineBlockMap.barrier_value", None),
]


def pitomo_modules() -> dict:
    """The pitomo submodules by short name.

    ``importlib`` is needed for ``pitomo.reconstruct``: the package
    attribute of that name is the function ``reconstruct``.
    """
    return {
        name: importlib.import_module(f"pitomo.{name}")
        for name in LAYERS
    }


class Tracer:
    """Timing wrappers around the traced callables, spans kept in memory.

    A span is [name, parent, start, end, caller, info]; ``parent`` is the
    index of the enclosing span or -1 for a call made by the benchmark.
    Wrappers stay installed until ``uninstall`` but record only while
    ``active`` is set, so checks run between passes are not traced.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, fn, name, caller, info):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            label = name(args, kwargs) if callable(name) else name
            span = [label, parent, 0.0, 0.0, caller, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        for caller, attr, name, info in FUNCTION_HOOKS:
            mod = modules[caller]
            original = getattr(mod, attr)
            self._restore.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name, caller, info))
        for cls_name, attr, name, info in METHOD_HOOKS:
            cls = getattr(modules["reconstruct"], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            if isinstance(original, staticmethod):
                wrapped = staticmethod(
                    self._wrap(original.__func__, name, "reconstruct", info)
                )
            else:
                wrapped = self._wrap(original, name, "reconstruct", info)
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def clear(self) -> None:
        self.spans = []


def write_spans(path, spans) -> None:
    fields = ("name", "parent", "start", "end", "caller", "info")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": fields, "spans": spans}, fh)
        fh.write("\n")


def per_layer_metrics(spans) -> dict:
    """Per-layer values (no overhead entry) from the spans of one pass."""
    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    child_s = [0.0] * len(spans)
    for name, parent, start, end, _, _ in spans:
        calls[name] = calls.get(name, 0) + 1
        seconds[name] = seconds.get(name, 0.0) + (end - start)
        if parent >= 0:
            child_s[parent] += end - start

    self_s = {layer: 0.0 for layer in LAYERS}
    for (name, _, start, end, _, _), inner in zip(spans, child_s):
        self_s[name.split(".")[0]] += (end - start) - inner

    def total(*names):
        return (sum(calls.get(n, 0) for n in names),
                sum(seconds.get(n, 0.0) for n in names))

    out = {}
    for key, names in SUMMED_SPANS.items():
        out[f"{key}_calls"], out[f"{key}_s"] = total(*names)
    stages = {"reconstruct": 0, "pretest": 0}
    steps = {"reconstruct": 0, "pretest": 0}
    stage_s = ls_s = 0.0
    ls_calls = chol_in_stage = infeasible = g_mb = 0
    for name, parent, start, end, caller, info in spans:
        # a call that raised has no info: its time counts, its result not
        if name == "reconstruct.newton_stage":
            stages[caller] += 1
            steps[caller] += info or 0
            if caller == "reconstruct":
                stage_s += end - start
        elif name == "reconstruct.build_fit_model" and info is not None:
            g_mb = max(g_mb, info)
        if (name in LINE_SEARCH_SPANS and parent >= 0
                and spans[parent][0] == "reconstruct.newton_stage"):
            ls_calls += 1
            ls_s += end - start
            if name == "reconstruct.AffineBlockMap.cholesky_list":
                chol_in_stage += 1
                infeasible += bool(info)

    # the first factorization of each stage is its start, not a trial
    trials = chol_in_stage - sum(stages.values())
    out["reconstruct.stages"] = stages["reconstruct"]
    out["reconstruct.newton_steps"] = steps["reconstruct"]
    out["reconstruct.step_s"] = (
        stage_s / steps["reconstruct"] if steps["reconstruct"] else 0.0
    )
    out["reconstruct.line_search_calls"] = ls_calls
    out["reconstruct.line_search_s"] = ls_s
    out["reconstruct.ls_trials"] = trials
    out["reconstruct.infeasible_trials"] = infeasible
    out["reconstruct.step_accept_ratio"] = (
        (steps["reconstruct"] + steps["pretest"]) / trials if trials else 0.0
    )
    out["reconstruct.endgame_evals"] = calls.get(
        "reconstruct.AffineBlockMap.barrier_grad", 0
    )
    out["reconstruct.G_mb"] = g_mb
    out["pretest.newton_steps"] = steps["pretest"]
    n_eval = out["design.total_error_calls"]
    out["design.eval_s"] = out["design.total_error_s"] / n_eval if n_eval else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    return out
