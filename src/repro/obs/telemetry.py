"""Run-telemetry counters: per-phase wall-clock + cache-behaviour rollups.

The telemetry layer makes the invisible parts of a run visible without
touching any content-stable artifact:

* :func:`phase` — a context manager accumulating *inclusive* wall-clock
  per named phase (``profile`` / ``train`` / ``simulate`` / ``generate``),
  wrapped around the execution seams in :mod:`repro.experiments.common`,
  :mod:`repro.runtime.bench` and (program generation on a cache miss)
  :mod:`repro.workloads.generator`.  Nested phases each accumulate their own
  inclusive time (a training pass that profiles kernels counts the
  profiling wall-clock under both ``train`` and ``profile``).
* :func:`telemetry_snapshot` / :func:`telemetry_delta` — combine the phase
  totals with the :class:`repro.runtime.cache.CacheStats` counters and the
  program-cache counters (hits, misses, evictions, resident instructions
  of :mod:`repro.workloads.generator`) into one plain-dict payload, so
  callers bracket a region of work and emit exactly what happened inside
  it.  None of it ever enters a content-stable artifact.

All counters are **per process**: parallel sweep workers accumulate their
own totals, which never reach the parent through this module.  The
executor closes that gap at its own layer — every pool job ships its
cache-counter delta home in a worker envelope, surfaced as
:attr:`~repro.runtime.executor.JobReport.worker_cache` and merged into
``run_telemetry.json`` — so a ``--jobs N`` sweep now reports both the
parent's share (``cache``) and the workers' (``cache_workers``).

The ``repro serve`` daemon additionally accumulates service counters here
(:func:`record_serve` / :func:`record_serve_gauge`): jobs submitted,
deduplicated, completed and requeued, worker restarts, dispatch latency
and peak queue depth.  They ride the same snapshot/delta machinery, so
health endpoints and drain summaries report exactly what happened inside
a bracketed window.

This module must not import anything above :mod:`repro.runtime` — the
bench layer imports it, so a heavier import here would be circular.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Optional

#: Accumulated per-phase totals of this process: name -> {seconds, calls}.
_PHASES: Dict[str, Dict[str, float]] = {}

#: Accumulated serve-daemon counters of this process (see record_serve).
_SERVE: Dict[str, float] = {}

#: Serve metrics that are high-water gauges, not monotone counters: a
#: delta reports their *current* value rather than a subtraction.
SERVE_GAUGES = frozenset({"queue_depth_peak"})

#: Program-cache metrics that are levels, not monotone counters.
PROGRAM_GAUGES = frozenset({"resident_instructions"})

TELEMETRY_FORMAT_VERSION = 1


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Accumulate the inclusive wall-clock of the ``with`` body under ``name``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        bucket = _PHASES.setdefault(name, {"seconds": 0.0, "calls": 0})
        bucket["seconds"] += elapsed
        bucket["calls"] += 1


def phase_totals() -> Dict[str, Dict[str, float]]:
    """A sorted copy of this process's accumulated phase totals."""
    return {name: dict(bucket) for name, bucket in sorted(_PHASES.items())}


def reset_phases() -> None:
    """Drop all accumulated phase totals (tests and fresh measurements)."""
    _PHASES.clear()


def phases_delta(
    before: Mapping[str, Mapping[str, float]],
    after: Optional[Mapping[str, Mapping[str, float]]] = None,
) -> Dict[str, Dict[str, float]]:
    """Phase totals accumulated between two :func:`phase_totals` snapshots.

    Phases that saw no calls in the window are omitted, so a delta over an
    idle region is ``{}``.
    """
    after = phase_totals() if after is None else after
    delta: Dict[str, Dict[str, float]] = {}
    for name, bucket in after.items():
        base = before.get(name, {})
        seconds = float(bucket.get("seconds", 0.0)) - float(base.get("seconds", 0.0))
        calls = int(bucket.get("calls", 0)) - int(base.get("calls", 0))
        if calls > 0 or seconds > 0.0:
            delta[name] = {"seconds": seconds, "calls": calls}
    return delta


def record_serve(name: str, value: float = 1.0) -> None:
    """Add ``value`` to the process-wide serve counter ``name``."""
    _SERVE[name] = _SERVE.get(name, 0.0) + value


def record_serve_gauge(name: str, value: float) -> None:
    """Raise the high-water gauge ``name`` to ``value`` if it is higher."""
    if value > _SERVE.get(name, 0.0):
        _SERVE[name] = value


def serve_totals() -> Dict[str, float]:
    """A sorted copy of this process's accumulated serve metrics."""
    return {name: _SERVE[name] for name in sorted(_SERVE)}


def reset_serve() -> None:
    """Drop all accumulated serve metrics (tests and fresh measurements)."""
    _SERVE.clear()


def telemetry_snapshot() -> Dict[str, Dict]:
    """The current phase totals + cache + serve + program-cache counters of
    this process."""
    from repro.runtime.cache import cache_stats
    from repro.workloads.generator import program_cache_stats

    return {
        "phases": phase_totals(),
        "cache": cache_stats().to_dict(),
        "serve": serve_totals(),
        "programs": program_cache_stats(),
    }


def telemetry_delta(before: Mapping[str, Mapping]) -> Dict[str, Dict]:
    """What accumulated since ``before`` (a :func:`telemetry_snapshot`)."""
    after = telemetry_snapshot()
    cache_before = before.get("cache", {})
    serve_before = before.get("serve", {})
    serve: Dict[str, float] = {}
    for name, value in after["serve"].items():
        if name in SERVE_GAUGES:
            serve[name] = float(value)  # high-water mark: report the level
        else:
            delta = float(value) - float(serve_before.get(name, 0.0))
            if delta:
                serve[name] = delta
    return {
        "phases": phases_delta(before.get("phases", {}), after["phases"]),
        "cache": {
            key: int(value) - int(cache_before.get(key, 0))
            for key, value in after["cache"].items()
        },
        "serve": serve,
        "programs": {
            # Resident instructions is a level; the rest are counters.
            key: int(value) if key in PROGRAM_GAUGES
            else int(value) - int(before.get("programs", {}).get(key, 0))
            for key, value in after["programs"].items()
        },
    }


def plural(count: int, singular: str, plural_form: Optional[str] = None) -> str:
    word = singular if count == 1 else (plural_form or singular + "s")
    return f"{count} {word}"


def describe_cache(cache: Mapping[str, int]) -> str:
    """One human line for a cache-counter dict, e.g.
    ``5 hits, 3 misses (1 corrupt fallback), 3 stores``."""
    hits = int(cache.get("hits", 0))
    misses = int(cache.get("misses", 0))
    corrupt = int(cache.get("corrupt", 0))
    stores = int(cache.get("stores", 0))
    store_failures = int(cache.get("store_failures", 0))
    text = f"{plural(hits, 'hit')}, {plural(misses, 'miss', 'misses')}"
    if corrupt:
        text += f" ({plural(corrupt, 'corrupt fallback')})"
    text += f", {plural(stores, 'store')}"
    if store_failures:
        text += f" ({plural(store_failures, 'failed store')})"
    return text


def describe_programs(programs: Mapping[str, int]) -> str:
    """One human line for a program-cache dict, e.g.
    ``26 misses, 70 hits, 0 evictions, 3,480,000 instructions resident``."""
    misses = int(programs.get("misses", 0))
    return (
        f"{plural(misses, 'miss', 'misses')}, {plural(int(programs.get('hits', 0)), 'hit')}, "
        f"{plural(int(programs.get('evictions', 0)), 'eviction')}, "
        f"{int(programs.get('resident_instructions', 0)):,} instructions resident"
    )


def describe_phases(phases: Mapping[str, Mapping[str, float]]) -> str:
    """One human line for a phase-totals dict, e.g.
    ``profile 1.24s/3, simulate 0.41s/12`` (seconds / call count)."""
    parts = [
        f"{name} {float(bucket.get('seconds', 0.0)):.2f}s/{int(bucket.get('calls', 0))}"
        for name, bucket in sorted(phases.items())
    ]
    return ", ".join(parts) if parts else "none"
