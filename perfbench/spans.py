"""Span tracer that times the program's layers from outside.

The benchmark never edits the program.  Instead :func:`instrument` replaces
the public functions and methods each layer exposes, at the import sites the
program calls them through, with wrappers that open a span on entry and close
it on exit.  Spans carry a name, start, end and parent; they are kept in
memory and summarised (or written out) when the run ends.  A layer's self
time is the time its spans cover minus the time their child spans cover, so
the layers add up to the traced region, and whatever no layer claims is
reported as ``unattributed``.

Counts are taken at the same boundaries (calls, cycles simulated, cache hits,
programs built), so ratios are measured where the work happens.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class Tracer:
    """In-memory span store with per-name counters."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1), in start order.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.unique: Dict[str, set] = defaultdict(set)
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack.pop()

    def span(self, name: str, fn: Callable, on_exit: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``on_exit(args, kwargs, result)`` counts."""
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            tracer.counts[name] += 1
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- summaries ----------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per-span duration minus the duration of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for name, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost occurrences
        only, so recursion is not double counted) and self seconds."""
        own = self.self_times()
        names = [span[0] for span in self.spans]
        table: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own[index]
            ancestor = parent
            while ancestor >= 0 and names[ancestor] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                row["total_s"] += end - start
        return table

    def durations(self, name: str) -> List[float]:
        return [end - start for span_name, start, end, _ in self.spans if span_name == name]

    def per_span_cost(self, samples: int = 20_000) -> float:
        """Host seconds one span adds, measured on a throwaway tracer."""
        probe = Tracer()
        wrapped = probe.span("probe", lambda: None)
        start = _clock()
        for _ in range(samples):
            wrapped()
        traced = _clock() - start
        bare = lambda: None  # noqa: E731
        start = _clock()
        for _ in range(samples):
            bare()
        return max(0.0, (traced - (_clock() - start)) / samples)

    def export(self) -> List[Tuple[str, float, float, int]]:
        return [tuple(span) for span in self.spans]


def _replace_everywhere(original: Callable, replacement: Callable) -> int:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` — the import sites the program calls through."""
    replaced = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
                replaced += 1
    return replaced


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer boundary; returns a function that undoes it."""
    import repro.experiments.common as common
    import repro.scenarios.runner as scenario_runner
    import repro.workloads.generator as generator
    from repro.core.inference import HardwareInferenceEngine
    from repro.core.poise import PoiseController
    from repro.core.training import TrainedModel, TrainingPipeline
    from repro.gpu.eventcore import EventStreamingMultiprocessor
    from repro.gpu.fastcore import FastStreamingMultiprocessor
    from repro.gpu.gpu import GPU
    from repro.gpu.sm import StreamingMultiprocessor
    from repro.profiling.profiler import KernelProfiler
    from repro.runtime.cache import DiskCache
    from repro.runtime.executor import SweepExecutor
    from repro.scenarios.runner import SweepRunner
    from repro.trace.adapter import TraceKernelSpec
    import repro.runtime.bench  # noqa: F401  (an import site of the generator)
    import repro.trace.families  # noqa: F401

    counts = tracer.counts
    unique = tracer.unique
    undo: List[Callable[[], None]] = []

    def patch_function(original: Callable, name: str, on_exit=None) -> None:
        wrapped = tracer.span(name, original, on_exit)
        _replace_everywhere(original, wrapped)
        undo.append(lambda: _replace_everywhere(wrapped, original))

    def patch_method(cls, method: str, name: str, on_exit=None) -> None:
        original = cls.__dict__[method]
        setattr(cls, method, tracer.span(name, original, on_exit))
        undo.append(lambda: setattr(cls, method, original))

    # -- workloads: program generation ------------------------------------------
    original_generate = generator.generate_kernel_programs

    def generate(spec):
        built = counts["workloads.programs_built"]
        index = tracer.open("workloads.generate")
        try:
            return original_generate(spec)
        finally:
            tracer.close(index)
            counts["workloads.generate"] += 1
            unique["workloads.generate"].add(spec)
            if not hasattr(spec, "materialise_programs"):  # those bypass the cache
                hit = counts["workloads.programs_built"] == built
                counts["workloads.cache_hits" if hit else "workloads.cache_misses"] += 1

    _replace_everywhere(original_generate, generate)
    undo.append(lambda: _replace_everywhere(generate, original_generate))

    original_warp = generator.generate_warp_program

    def generate_warp(spec, warp_id):
        program = original_warp(spec, warp_id)
        counts["workloads.programs_built"] += 1
        counts["workloads.instructions_built"] += len(program)
        return program

    generator.generate_warp_program = generate_warp
    undo.append(lambda: setattr(generator, "generate_warp_program", original_warp))

    # -- trace: trace-native family materialisation -----------------------------
    def materialise_exit(args, kwargs, result):
        unique["trace.materialise"].add(args[0])

    patch_method(TraceKernelSpec, "materialise_programs", "trace.materialise", materialise_exit)

    # -- gpu: kernel runs, SM construction, graph runs and the cycle loop -------
    patch_method(GPU, "run_kernel", "gpu.run_kernel")
    patch_method(GPU, "build_sm", "gpu.build_sm")
    patch_method(GPU, "run_graph", "gpu.run_graph")
    def patch_cycle_loop(core, method: str) -> None:
        """Wrap an SM core's cycle loop, counting the SM-cycles and
        instructions it simulates."""
        original = core.__dict__[method]

        def simulate(sm, *args, **kwargs):
            cycle, instructions = sm.cycle, sm.counters.instructions
            index = tracer.open("gpu.sim")
            try:
                return original(sm, *args, **kwargs)
            finally:
                tracer.close(index)
                counts["gpu.sim_cycles"] += sm.cycle - cycle
                counts["gpu.sim_instructions"] += sm.counters.instructions - instructions

        setattr(core, method, simulate)
        undo.append(lambda: setattr(core, method, original))

    for core in (FastStreamingMultiprocessor, EventStreamingMultiprocessor, StreamingMultiprocessor):
        for method in ("run_cycles", "run_to_completion"):
            if method in core.__dict__:
                patch_cycle_loop(core, method)

    # -- profiling ---------------------------------------------------------------
    patch_method(KernelProfiler, "profile", "profiling.profile")
    patch_method(KernelProfiler, "measure_point", "profiling.measure_point")

    # -- core: training, fitting and the Poise controller ------------------------
    def train_exit(args, kwargs, result):
        counts["core.train_examples"] += len(result[1])

    def execute_exit(args, kwargs, result):
        counts["core.poise_epochs"] += int((result or {}).get("epochs", 0))

    patch_method(TrainingPipeline, "train", "core.train", train_exit)
    patch_method(TrainingPipeline, "fit", "core.fit")
    patch_method(PoiseController, "execute", "core.poise_execute", execute_exit)
    patch_method(HardwareInferenceEngine, "local_search", "core.local_search")
    patch_method(TrainedModel, "predict", "core.predict")

    # -- experiments: memoised scheme runs and profiles --------------------------
    original_run = common.run_scheme_on_kernel

    def run_scheme_on_kernel(*args, **kwargs):
        simulated = counts["gpu.run_kernel"]
        index = tracer.open("experiments.run")
        try:
            return original_run(*args, **kwargs)
        finally:
            tracer.close(index)
            counts["experiments.run"] += 1
            if counts["gpu.run_kernel"] > simulated:
                counts["experiments.runs_simulated"] += 1

    _replace_everywhere(original_run, run_scheme_on_kernel)
    undo.append(lambda: _replace_everywhere(run_scheme_on_kernel, original_run))
    patch_function(common.get_profile, "experiments.get_profile")

    # -- runtime: result cache and process fan-out -------------------------------
    def load_exit(args, kwargs, result):
        counts["runtime.cache_hits" if result is not None else "runtime.cache_misses"] += 1

    patch_method(DiskCache, "load", "runtime.cache_load", load_exit)
    patch_method(DiskCache, "store", "runtime.cache_store")
    patch_method(SweepExecutor, "map_with_report", "runtime.executor_map")
    patch_method(SweepExecutor, "run_one", "runtime.executor_run")

    # -- scenarios: sweep points and their artifacts -----------------------------
    def run_report_exit(args, kwargs, result):
        counts["scenarios.points_computed"] += result.computed
        counts["scenarios.points_skipped"] += result.skipped

    patch_function(scenario_runner.evaluate_point, "scenarios.evaluate_point")
    patch_method(SweepRunner, "load_point", "scenarios.load_point")
    patch_method(SweepRunner, "run_report", "scenarios.run", run_report_exit)

    def restore() -> None:
        for step in reversed(undo):
            step()

    return restore

