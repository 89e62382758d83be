"""Span recorder for the traced run.

Wraps darsa's public functions from outside the package, by replacing the
module attributes their callers look them up through, and records one span
per call: name, start, end and parent span. Spans stay in memory and are
written out when the run ends. A layer's self time is its span time minus
the time covered by its direct child spans.

``darsa.ot.sinkhorn`` is called with ``return_info=True`` so that each
solve's iteration count, residual and convergence are recorded as well.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from pathlib import Path

# (module, attribute, span name). A name is wrapped in every module that
# looks it up: ``cli`` imports the two task generators by name.
WRAPPED = (
    ("darsa.ot", "sinkhorn", "ot.sinkhorn"),
    ("darsa.ot", "euclidean_cost_matrix", "ot.cost_matrix"),
    ("darsa.ot", "w1_empirical", "ot.w1_empirical"),
    ("darsa.ot", "mw1_gmm", "ot.mw1_gmm"),
    ("darsa.ot", "ot_exact_discrete", "ot.ot_exact_discrete"),
    ("darsa.ot", "sample_gmm", "ot.sample_gmm"),
    ("darsa.bounds", "bound_report", "bounds.bound_report"),
    ("darsa.bounds", "delta_c", "bounds.delta_c"),
    ("darsa.bounds", "split_by_class", "bounds.split_by_class"),
    ("darsa.nn", "forward", "nn.forward"),
    ("darsa.nn", "backward", "nn.backward"),
    ("darsa.nn", "loss_discrepancy_weighted", "nn.loss_discrepancy_weighted"),
    ("darsa.nn", "loss_intra", "nn.loss_intra"),
    ("darsa.nn", "loss_inter", "nn.loss_inter"),
    ("darsa.nn", "loss_classification_weighted", "nn.loss_classification_weighted"),
    ("darsa.nn", "sgd_momentum_step", "nn.sgd_momentum_step"),
    ("darsa.training", "pretrain", "training.pretrain"),
    ("darsa.training", "compute_step_gradients", "training.compute_step_gradients"),
    ("darsa.training", "estimate_target_weights", "training.estimate_target_weights"),
    ("darsa.training", "fit", "training.fit"),
    ("darsa.synthdata", "make_shifted_gmm", "synthdata.make_shifted_gmm"),
    ("darsa.cli", "make_shifted_gmm", "synthdata.make_shifted_gmm"),
    ("darsa.synthdata", "make_figure1_task", "synthdata.make_figure1_task"),
    ("darsa.cli", "make_figure1_task", "synthdata.make_figure1_task"),
    ("darsa.cli", "main", "cli.main"),
)

# Per-layer metrics read from span times: (metric, span name, statistic).
SPAN_METRICS = (
    ("ot.sinkhorn.calls", "ot.sinkhorn", "calls"),
    ("ot.sinkhorn.self_s", "ot.sinkhorn", "self"),
    ("ot.cost_matrix.self_s", "ot.cost_matrix", "self"),
    ("ot.w1_empirical.calls", "ot.w1_empirical", "calls"),
    ("ot.w1_empirical.self_s", "ot.w1_empirical", "self"),
    ("ot.mw1_gmm.total_s", "ot.mw1_gmm", "total"),
    ("ot.ot_exact_discrete.self_s", "ot.ot_exact_discrete", "self"),
    ("ot.sample_gmm.self_s", "ot.sample_gmm", "self"),
    ("bounds.bound_report.calls", "bounds.bound_report", "calls"),
    ("bounds.bound_report.total_s", "bounds.bound_report", "total"),
    ("bounds.bound_report.self_s", "bounds.bound_report", "self"),
    ("bounds.delta_c.self_s", "bounds.delta_c", "self"),
    ("bounds.split_by_class.self_s", "bounds.split_by_class", "self"),
    ("nn.forward.calls", "nn.forward", "calls"),
    ("nn.forward.self_s", "nn.forward", "self"),
    ("nn.backward.self_s", "nn.backward", "self"),
    ("nn.loss_discrepancy_weighted.total_s", "nn.loss_discrepancy_weighted", "total"),
    ("nn.loss_discrepancy_weighted.self_s", "nn.loss_discrepancy_weighted", "self"),
    ("nn.loss_intra.self_s", "nn.loss_intra", "self"),
    ("nn.loss_inter.self_s", "nn.loss_inter", "self"),
    ("nn.loss_classification_weighted.self_s", "nn.loss_classification_weighted", "self"),
    ("nn.sgd_momentum_step.self_s", "nn.sgd_momentum_step", "self"),
    ("training.pretrain.total_s", "training.pretrain", "total"),
    ("training.compute_step_gradients.calls", "training.compute_step_gradients", "calls"),
    ("training.compute_step_gradients.total_s", "training.compute_step_gradients", "total"),
    ("training.compute_step_gradients.self_s", "training.compute_step_gradients", "self"),
    ("training.estimate_target_weights.self_s", "training.estimate_target_weights", "self"),
    ("training.fit.total_s", "training.fit", "total"),
    ("synthdata.make_shifted_gmm.total_s", "synthdata.make_shifted_gmm", "total"),
    ("synthdata.make_figure1_task.total_s", "synthdata.make_figure1_task", "total"),
    ("cli.main.total_s", "cli.main", "total"),
    ("cli.main.self_s", "cli.main", "self"),
)

UNITS = {"calls": "count", "self": "s", "total": "s"}

# Every per-layer metric with its unit, in the order they are printed.
PER_LAYER_METRICS = {
    **{name: UNITS[stat] for name, _, stat in SPAN_METRICS},
    "ot.sinkhorn.iters": "count",
    "ot.sinkhorn.iters_p50": "count",
    "ot.sinkhorn.iters_max": "count",
    "ot.sinkhorn.cells": "count",
    "ot.sinkhorn.ns_per_cell": "ns",
    "ot.sinkhorn.unconverged": "count",
    "ot.sinkhorn.max_residual": "l1",
    "ot.cost_matrix.bytes": "B",
    "cli.output_bytes": "B",
    "trace.spans": "count",
    "trace.op_s": "s",
}


class Phase:
    """Spans, solves and counters recorded between two ``Recorder.take`` calls."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.solves = []  # (iterations, n, m, residual, converged)
        self.counters = {}

    def span_stats(self) -> dict:
        """Per span name: number of calls, total time and self time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            calls, total, self_time = stats.get(name, (0, 0.0, 0.0))
            stats[name] = (calls + 1, total + (end - start), self_time + (end - start - covered))
        return stats


class Recorder:
    """Collects spans while ``active``; wrappers call straight through otherwise."""

    def __init__(self):
        self.active = False
        self.phase = Phase()
        self._stack = []

    def open(self, name: str) -> int:
        spans = self.phase.spans
        spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(len(spans) - 1)
        return len(spans) - 1

    def close(self, index: int) -> None:
        self.phase.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value) -> None:
        self.phase.counters[name] = self.phase.counters.get(name, 0) + value

    def take(self) -> Phase:
        """Return what was recorded since the last call and start afresh."""
        if self._stack:
            raise RuntimeError("a phase cannot end inside a span")
        phase, self.phase = self.phase, Phase()
        return phase


def _span_wrapper(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        index = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(index)

    return wrapper


def _cost_matrix_wrapper(rec: Recorder, name: str, fn):
    inner = _span_wrapper(rec, name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cost = inner(*args, **kwargs)
        if rec.active:
            rec.count("ot.cost_matrix.bytes", cost.nbytes)
        return cost

    return wrapper


def _sinkhorn_wrapper(rec: Recorder, name: str, fn, divergence_error):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        wanted = bound.arguments["return_info"]
        bound.arguments["return_info"] = True
        n, m = getattr(bound.arguments["cost_matrix"], "shape", (0, 0))
        index = rec.open(name)
        try:
            plan, info = fn(*bound.args, **bound.kwargs)
        except divergence_error as exc:
            rec.phase.solves.append((exc.iterations, n, m, exc.residual, False))
            raise
        finally:
            rec.close(index)
        rec.phase.solves.append((info.iterations, n, m, info.residual, info.converged))
        return (plan, info) if wanted else plan

    return wrapper


def install(rec: Recorder) -> None:
    """Replace every name in ``WRAPPED`` with a recording wrapper."""
    import importlib

    originals = {}
    for module_name, attr, span in WRAPPED:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        key = (fn.__module__, fn.__qualname__)
        if key not in originals:
            if span == "ot.sinkhorn":
                divergence = importlib.import_module("darsa.ot").SinkhornDivergenceError
                originals[key] = _sinkhorn_wrapper(rec, span, fn, divergence)
            elif span == "ot.cost_matrix":
                originals[key] = _cost_matrix_wrapper(rec, span, fn)
            else:
                originals[key] = _span_wrapper(rec, span, fn)
        setattr(module, attr, originals[key])


def per_layer_metrics(setup: Phase, timed: Phase, n_ops: int, op_times) -> dict:
    """Per-layer values for the set-up plus one timed operation.

    Additive values are the set-up's total plus the timed operations' total
    divided by their count; the iteration percentiles and the residual run
    over every solve of both phases.
    """
    setup_stats, timed_stats = setup.span_stats(), timed.span_stats()

    def per_op(setup_value, timed_value):
        return setup_value + timed_value / n_ops

    values = {}
    column = {"calls": 0, "total": 1, "self": 2}
    for metric, span, stat in SPAN_METRICS:
        col = column[stat]
        values[metric] = per_op(
            setup_stats.get(span, (0, 0.0, 0.0))[col], timed_stats.get(span, (0, 0.0, 0.0))[col]
        )

    def solve_sum(phase, fn):
        return sum(fn(*solve) for solve in phase.solves)

    def solve_total(fn):
        return per_op(solve_sum(setup, fn), solve_sum(timed, fn))

    solves = setup.solves + timed.solves
    iterations = [s[0] for s in solves]
    values["ot.sinkhorn.iters"] = solve_total(lambda it, n, m, r, c: it)
    values["ot.sinkhorn.iters_p50"] = statistics.median(iterations) if iterations else 0
    values["ot.sinkhorn.iters_max"] = max(iterations, default=0)
    values["ot.sinkhorn.cells"] = solve_total(lambda it, n, m, r, c: it * n * m)
    values["ot.sinkhorn.unconverged"] = solve_total(lambda it, n, m, r, c: int(not c))
    values["ot.sinkhorn.max_residual"] = max((s[3] for s in solves), default=0.0)
    cells = values["ot.sinkhorn.cells"]
    values["ot.sinkhorn.ns_per_cell"] = (
        values["ot.sinkhorn.self_s"] * 1e9 / cells if cells else 0.0
    )
    for name in ("ot.cost_matrix.bytes", "cli.output_bytes"):
        values[name] = per_op(setup.counters.get(name, 0), timed.counters.get(name, 0))
    values["trace.spans"] = per_op(len(setup.spans), len(timed.spans))
    values["trace.op_s"] = statistics.median(op_times)
    return {name: values[name] for name in PER_LAYER_METRICS}


def write_spans(path: Path, phases: dict) -> None:
    """Write every span as one JSON line, tagged with its phase."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for phase_name, phase in phases.items():
            for index, (name, start, end, parent) in enumerate(phase.spans):
                fh.write(json.dumps({
                    "phase": phase_name, "id": index, "name": name,
                    "start": start, "end": end, "parent": parent,
                }) + "\n")
