"""Per-layer tracing of a sweep from outside the package.

For the length of one traced sweep, the public functions and methods named
in TARGETS are swapped, in every paretoebm module that binds them, for a
wrapper that times and counts each call; afterwards the originals are put
back. src/ is never edited. Spans nest, so each span also records its self
time: its duration minus the time covered by the spans it called.

A layer metric whose wrap target no longer exists, or was never called, is
reported as missing with the name of that target on run.py's `missing`
line, not passed off as a measured zero. Later
refactors (say, a batched kernel that stops calling `solve_min_norm` once
per step) show up that way instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _observe_min_norm(counts, args, result):
    counts["moo.min_norm_iters"] += result.iterations
    counts["moo.min_norm_unconverged"] += not result.converged


def _observe_pareto_filter(counts, args, result):
    counts["moo.pareto_filter_points"] += len(args[0])


def _observe_population(counts, args, result):
    counts["samplers.chains"] += len(args[1])
    counts["samplers.chain_failures"] += sum(type(r).__name__ == "ChainFailure" for r in result)
    counts["samplers.early_stops"] += sum(bool(getattr(r, "terminated_early", False)) for r in result)


# span -> (wrap targets as "module:qualname", observer of (counts, args, result) or None)
TARGETS: dict[str, tuple[tuple[str, ...], Callable | None]] = {
    "core.objects": (
        (
            "paretoebm.core:DesignPoint.__post_init__",
            "paretoebm.core:ObjectiveVector.__post_init__",
            "paretoebm.core:SimplexWeights.__post_init__",
        ),
        None,
    ),
    "energy.eval": (("paretoebm.energy:ObjectiveSet.eval_raw",), None),
    "moo.min_norm": (("paretoebm.moo:solve_min_norm",), _observe_min_norm),
    "moo.pareto_filter": (("paretoebm.moo:pareto_filter",), _observe_pareto_filter),
    "samplers.population": (("paretoebm.samplers:run_population",), _observe_population),
    "samplers.csv_write": (("paretoebm.samplers:write_trajectories",), None),
    "metrics.hv": (("paretoebm.metrics:hypervolume_exact",), None),
    "metrics.edist": (("paretoebm.metrics:edit_distance",), None),
    "problems.load": (("paretoebm.problems:get_problem",), None),
    "harness.sweep": (("paretoebm.harness:run_sweep",), None),
    "harness.emit_front": (("paretoebm.harness:emit_front",), None),
}


class Tracer:
    """Span totals and counts of one traced sweep."""

    def __init__(self):
        self.open: list[float] = []  # child time of each open span, innermost last
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: dict[str, str] = {}  # span -> why its metrics are missing

    def wrap(self, span: str, fn: Callable, observe: Callable | None) -> Callable:
        open_spans, seconds, self_seconds, calls = self.open, self.seconds, self.self_seconds, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                seconds[span] += duration
                self_seconds[span] += duration - child
                calls[span] += 1
            if observe is not None and span not in self.missing:
                try:
                    observe(self.counts, args, result)
                except (AttributeError, IndexError, TypeError) as exc:
                    self.missing[span] = f"{TARGETS[span][0][0]} returned an unexpected value ({exc})"
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every wrap target for its traced wrapper until the block exits."""
        restore = []
        try:
            for span, (targets, observe) in TARGETS.items():
                for target in targets:
                    try:
                        owner, attr = _resolve(target)
                        original = getattr(owner, attr)
                    except (ImportError, AttributeError):
                        self.missing[span] = f"wrap target {target} not found"
                        continue
                    wrapper = self.wrap(span, original, observe)
                    for holder, name in _bindings(owner, attr, original):
                        restore.append((holder, name, original))
                        setattr(holder, name, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(restore):
                setattr(holder, attr, original)
        for span, (targets, _) in TARGETS.items():
            if span not in self.missing and not self.calls[span]:
                self.missing[span] = f"wrap target {' / '.join(targets)} never called"


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _bindings(owner, attr: str, original) -> list[tuple[object, str]]:
    """Where a target is bound: the class for a method; for a function, every
    name in every paretoebm module that is bound to it."""
    if isinstance(owner, type):
        return [(owner, attr)]
    return [
        (module, name)
        for module_name, module in sorted(sys.modules.items())
        if module_name == "paretoebm" or module_name.startswith("paretoebm.")
        for name, value in vars(module).items()
        if value is original
    ]


@dataclass(frozen=True)
class Missing:
    """A layer metric that could not be measured, and why."""

    reason: str


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric: how it is read from a traced sweep, which
    end-to-end metrics the layer's work should move, and on which workloads
    the layer does that work today. `work` is false for diagnostics that are
    legitimately zero (failures, solver iterations of the closed form)."""

    name: str
    unit: str
    better: str
    span: str | None  # traced span it reads; None for counts read from the bundle
    read: Callable  # (Tracer, BundleCheck) -> number
    moves: tuple[str, ...]
    on: tuple[str, ...]
    work: bool = True

    def value(self, tracer: Tracer, check) -> float | int | Missing:
        if self.span in tracer.missing:
            return Missing(tracer.missing[self.span])
        return self.read(tracer, check)


def _calls(span):
    return lambda t, b: t.calls[span]


def _seconds(span):
    return lambda t, b: t.seconds[span]


def _self_seconds(span):
    return lambda t, b: t.self_seconds[span]


def _count(key):
    return lambda t, b: t.counts[key]


_STEPS = ("chain_steps_per_s",)
_WALL = ("wall_s",)
_AGG = ("wall_s", "peak_rss_mb")
_STEP_LOOP_ON = ("ff-sweep", "seq-sweep")
_PER_CHAIN_ON = ("ff-sweep", "grid-aggregate")
_CSV_ON = ("seq-sweep", "grid-aggregate")

LAYER_METRICS = (
    LayerMetric("moo.min_norm_calls", "count", "lower", "moo.min_norm", _calls("moo.min_norm"), _STEPS, _STEP_LOOP_ON),
    LayerMetric("moo.min_norm_s", "s", "lower", "moo.min_norm", _seconds("moo.min_norm"), _STEPS, _STEP_LOOP_ON),
    LayerMetric(
        "moo.min_norm_iters_mean", "count", "lower", "moo.min_norm",
        lambda t, b: t.counts["moo.min_norm_iters"] / t.calls["moo.min_norm"], _STEPS, _STEP_LOOP_ON, work=False,
    ),
    LayerMetric(
        "moo.min_norm_unconverged", "count", "lower", "moo.min_norm",
        _count("moo.min_norm_unconverged"), _STEPS, _STEP_LOOP_ON, work=False,
    ),
    LayerMetric("energy.eval_calls", "count", "lower", "energy.eval", _calls("energy.eval"), _STEPS, _STEP_LOOP_ON),
    LayerMetric("energy.eval_s", "s", "lower", "energy.eval", _seconds("energy.eval"), _STEPS, _STEP_LOOP_ON),
    LayerMetric(
        "samplers.chains", "count", "higher", "samplers.population",
        _count("samplers.chains"), _STEPS, _PER_CHAIN_ON,
    ),
    LayerMetric(
        "samplers.population_s", "s", "lower", "samplers.population",
        _seconds("samplers.population"), _STEPS, _PER_CHAIN_ON,
    ),
    LayerMetric(
        "samplers.self_s", "s", "lower", "samplers.population",
        _self_seconds("samplers.population"), _STEPS, _PER_CHAIN_ON,
    ),
    LayerMetric(
        "samplers.chain_failures", "count", "lower", "samplers.population",
        _count("samplers.chain_failures"), _STEPS, _PER_CHAIN_ON, work=False,
    ),
    LayerMetric(
        "samplers.early_stops", "count", "lower", "samplers.population",
        _count("samplers.early_stops"), _STEPS, _PER_CHAIN_ON, work=False,
    ),
    LayerMetric("core.objects_built", "count", "lower", "core.objects", _calls("core.objects"), _STEPS, _PER_CHAIN_ON),
    LayerMetric("core.objects_s", "s", "lower", "core.objects", _seconds("core.objects"), _STEPS, _PER_CHAIN_ON),
    LayerMetric(
        "samplers.csv_write_s", "s", "lower", "samplers.csv_write",
        _seconds("samplers.csv_write"), _WALL, _CSV_ON,
    ),
    LayerMetric("harness.bytes_written", "B", "lower", None, lambda t, b: b.bytes_written, _WALL, _CSV_ON),
    LayerMetric(
        "moo.pareto_filter_points", "count", "lower", "moo.pareto_filter",
        _count("moo.pareto_filter_points"), _AGG, ("grid-aggregate",),
    ),
    LayerMetric(
        "moo.pareto_filter_s", "s", "lower", "moo.pareto_filter",
        _seconds("moo.pareto_filter"), _AGG, ("grid-aggregate",),
    ),
    LayerMetric("metrics.hv_calls", "count", "lower", "metrics.hv", _calls("metrics.hv"), _AGG, ("grid-aggregate",)),
    LayerMetric("metrics.hv_s", "s", "lower", "metrics.hv", _seconds("metrics.hv"), _AGG, ("grid-aggregate",)),
    LayerMetric(
        "harness.emit_front_s", "s", "lower", "harness.emit_front",
        _seconds("harness.emit_front"), _AGG, ("grid-aggregate",),
    ),
    LayerMetric("metrics.edist_pairs", "count", "lower", "metrics.edist", _calls("metrics.edist"), _WALL, ("seq-sweep",)),
    LayerMetric("metrics.edist_s", "s", "lower", "metrics.edist", _seconds("metrics.edist"), _WALL, ("seq-sweep",)),
    LayerMetric("harness.sweep_s", "s", "lower", "harness.sweep", _seconds("harness.sweep"), _WALL, ("grid-aggregate",)),
    LayerMetric(
        "harness.self_s", "s", "lower", "harness.sweep",
        _self_seconds("harness.sweep"), _WALL, ("grid-aggregate",),
    ),
    LayerMetric(
        "harness.cell_failures", "count", "lower", None,
        lambda t, b: b.failed_cells, _WALL, ("grid-aggregate",), work=False,
    ),
    LayerMetric("problems.load_s", "s", "lower", "problems.load", _seconds("problems.load"), _WALL, ("grid-aggregate",)),
)
