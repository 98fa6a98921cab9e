"""In-process tracing of fednb from outside the package.

``Tracer.instrument()`` replaces public functions with timing wrappers at the
module attribute where their callers look them up, so nothing under src/
changes. Each call becomes a span (name, start, end, parent, info) kept in
memory; ``restore()`` (or leaving the ``with`` block) puts every original
attribute back. Self time of a span is its duration minus the durations of
its direct children, so the self times of all spans under one root add up to
the root's duration exactly.
"""

from __future__ import annotations

import functools
import json
import time
from importlib import import_module

# (module, attribute, span name). The span name's first component is its layer.
# cli imports the emitters by name, so they are wrapped there; stack_scores is
# wrapped in mog too, to count the stacks made for scoring as well as for the
# optimizer. experiment.verify re-runs a cell, so cells appear under both
# run_grid and verify; cli._refit_ensemble stays inside cli.main's self time.
WRAPS = (
    ("fednb.cli", "main", "cli.main"),
    ("fednb.cli", "load_config", "config.load"),
    ("fednb.cli", "run_grid", "experiment.run_grid"),
    ("fednb.cli", "verify", "experiment.verify"),
    ("fednb.cli", "materialize_dataset", "data.materialize"),
    ("fednb.cli", "emit_results_csv", "experiment.emit_csv"),
    ("fednb.cli", "emit_plot_data", "experiment.emit_plots"),
    ("fednb.experiment", "run_cell", "experiment.cell"),
    ("fednb.experiment", "materialize_dataset", "data.materialize"),
    ("fednb.experiment", "stratified_split", "partition.split"),
    ("fednb.experiment", "dirichlet_partition", "partition.dirichlet"),
    ("fednb.experiment", "degrade_copy", "data.degrade"),
    ("fednb.experiment", "fit_hybrid", "local_model.fit"),
    ("fednb.experiment", "learn_weights_icc", "weights.learn"),
    ("fednb.experiment", "mog_log_scores_batch", "mog.log_scores"),
    ("fednb.experiment", "anll", "mog.anll"),
    ("fednb.experiment", "f1_macro", "evaluation.f1"),
    ("fednb.experiment", "mcnemar_yates", "evaluation.mcnemar"),
    ("fednb.weights", "stack_scores", "mog.stack"),
    ("fednb.weights", "nelder_mead", "weights.nelder_mead"),
    ("fednb.weights", "anll_from_stacked", "mog.anll_stacked"),
    ("fednb.mog", "stack_scores", "mog.stack"),
    ("fednb.mog", "joint_log_scores_batch", "local_model.score"),
    ("fednb.mog", "mix_scores", "mog.mix"),
)

LAYERS = (
    "cli", "config", "data", "partition", "local_model", "mog", "weights",
    "evaluation", "experiment",
)


def _info(span_name, args, result):
    """Counts read from a call's arguments or result, at the layer boundary."""
    if span_name == "local_model.score":
        return args[1].n_rows
    if span_name == "weights.learn":
        return [s.evaluations for s in result[1].starts]
    return None


class Tracer:
    """Collects spans from wrapped fednb functions; one instance per run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, info]
        self._stack = []
        self._patched = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def wrap(self, module, attr, span_name):
        original = getattr(module, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[4] = _info(span_name, args, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def instrument(self):
        for mod_name, attr, span_name in WRAPS:
            self.wrap(import_module(mod_name), attr, span_name)

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path, extra=None):
        """Write the spans (times in seconds from the first span) as JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, s - t0, e - t0, p, i] for n, s, e, p, i in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, **(extra or {})}, fh)


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    out = [e - s for _, s, e, _, _ in spans]
    for _, s, e, parent, _ in spans:
        if parent >= 0:
            out[parent] -= e - s
    return out


def layer_self_ms(spans):
    """Self time summed per layer, in ms, for every layer in LAYERS."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for span, st in zip(spans, self_times(spans)):
        totals[span[0].split(".", 1)[0]] += st * 1000.0
    return totals


def _quantile(values, q):
    """Linear-interpolation quantile (numpy's default); 0.0 for no values."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def evals_per_start(spans) -> list[int]:
    """Evaluations of every optimizer start, from the returned OptimizationTraces."""
    return [ev for sp in spans if sp[0] == "weights.learn" for ev in sp[4]]


def objective_calls(spans) -> list:
    """The anll_from_stacked spans made by Nelder-Mead: one per objective evaluation."""
    nm_ids = {i for i, sp in enumerate(spans) if sp[0] == "weights.nelder_mead"}
    return [sp for sp in spans if sp[0] == "mog.anll_stacked" and sp[3] in nm_ids]


def layer_metrics(spans) -> dict:
    """The per-layer metrics, as {name: (value, unit)}."""
    self_t = self_times(spans)
    dur = {}
    calls = {}
    for name, s, e, _, _ in spans:
        dur[name] = dur.get(name, 0.0) + (e - s) * 1000.0
        calls[name] = calls.get(name, 0) + 1

    def ms(name):
        return dur.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    grid_cells = [
        (e - s) * 1000.0
        for name, s, e, parent, _ in spans
        if name == "experiment.cell" and parent >= 0 and spans[parent][0] == "experiment.run_grid"
    ]
    per_start = evals_per_start(spans)
    obj = objective_calls(spans)
    obj_ms = sum(e - s for _, s, e, _, _ in obj) * 1000.0

    return {
        "config.load_ms": (ms("config.load"), "ms"),
        "data.materialize_ms": (ms("data.materialize"), "ms"),
        "data.materialize_calls": (n("data.materialize"), "count"),
        "data.degrade_ms": (ms("data.degrade"), "ms"),
        "partition.split_ms": (ms("partition.split"), "ms"),
        "partition.dirichlet_ms": (ms("partition.dirichlet"), "ms"),
        "partition.dirichlet_calls": (n("partition.dirichlet"), "count"),
        "local_model.fit_ms": (ms("local_model.fit"), "ms"),
        "local_model.fit_calls": (n("local_model.fit"), "count"),
        "local_model.score_ms": (ms("local_model.score"), "ms"),
        "local_model.rows_scored": (
            sum(sp[4] for sp in spans if sp[0] == "local_model.score"), "count"),
        "mog.stack_calls": (n("mog.stack"), "count"),
        "mog.mix_ms": (ms("mog.mix"), "ms"),
        "mog.mix_calls": (n("mog.mix"), "count"),
        "weights.learn_ms": (ms("weights.learn"), "ms"),
        "weights.obj_evals": (sum(per_start), "count"),
        "weights.obj_eval_us": (obj_ms * 1000.0 / len(obj) if obj else 0.0, "us"),
        "weights.nm_self_ms": (ms("weights.nelder_mead") - obj_ms, "ms"),
        "weights.evals_per_start_p50": (_quantile(per_start, 0.5), "count"),
        "weights.evals_per_start_max": (max(per_start, default=0), "count"),
        "evaluation.metrics_ms": (ms("evaluation.f1") + ms("evaluation.mcnemar"), "ms"),
        "experiment.cell_ms_p50": (_quantile(grid_cells, 0.5), "ms"),
        "experiment.cell_ms_p70": (_quantile(grid_cells, 0.7), "ms"),
        "experiment.cell_self_ms": (
            sum(t for sp, t in zip(spans, self_t) if sp[0] == "experiment.cell") * 1000.0,
            "ms"),
        "experiment.verify_ms": (ms("experiment.verify"), "ms"),
        "experiment.emit_ms": (ms("experiment.emit_csv") + ms("experiment.emit_plots"), "ms"),
        "cli.self_ms": (
            sum(t for sp, t in zip(spans, self_t) if sp[0] == "cli.main") * 1000.0, "ms"),
    }


def command_walls_ms(spans) -> list[tuple[float, float]]:
    """(wall ms, sum of layer self times ms) for each root span, in order."""
    root = []
    for i, (_, _, _, parent, _) in enumerate(spans):
        root.append(i if parent < 0 else root[parent])
    totals = {}
    for r, st in zip(root, self_times(spans)):
        totals[r] = totals.get(r, 0.0) + st * 1000.0
    return [((spans[r][2] - spans[r][1]) * 1000.0, t) for r, t in totals.items()]


def consistency_errors(spans) -> list[str]:
    """Problems that would make the layer numbers untrustworthy."""
    errors = []
    if any(sp[0] != "cli.main" for sp in spans if sp[3] < 0):
        errors.append("a span outside cli.main")
    for wall, total in command_walls_ms(spans):
        if abs(total - wall) > 1e-6 * max(wall, 1.0):
            errors.append(f"layer self times sum to {total:.6f} ms, command took {wall:.6f} ms")
    counted = len(objective_calls(spans))
    from_traces = sum(evals_per_start(spans))
    if counted != from_traces:
        errors.append(f"{counted} objective calls seen, optimizer traces report {from_traces}")
    return errors
