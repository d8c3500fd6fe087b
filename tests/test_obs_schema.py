"""Tests for the versioned bench record schema and its tolerant loader.

The committed ``BENCH_throughput.json`` is the living fixture: it contains
all historical shape generations (the seed's flat v0 entry, the
engine-matrix v1 entries), and every one of them must load, classify and
yield samples without an exception — that is the ISSUE's acceptance
criterion for shape drift.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.schema import (
    BENCH_SCHEMA_VERSION,
    GEN_UNKNOWN,
    GEN_V0,
    GEN_V1,
    GEN_V2,
    GENERATE_SCHEME,
    HOT_LOOP_SCHEME,
    BenchSchemaError,
    classify_entry,
    load_bench_history,
    validate_bench_entry,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
COMMITTED_HISTORY = REPO_ROOT / "BENCH_throughput.json"


def make_row(kernel: str, engine: str, cps: float = 1_000_000.0) -> dict:
    return {
        "kernel": kernel,
        "engine": engine,
        "cycles": 100_000,
        "instructions": 50_000,
        "wall_seconds": 0.1,
        "cycles_per_second": cps,
        "instructions_per_second": cps / 2.0,
        "python_version": "3.11.0",
        "cpu_count": 4,
    }


def make_v2_entry() -> dict:
    """A minimal entry of the shape ``repro bench`` appends today."""
    return {
        "timestamp": "2026-08-08T00:00:00+00:00",
        "version": "0.5.0",
        "bench_schema": BENCH_SCHEMA_VERSION,
        "jobs_env": 1,
        "environment": {"python_version": "3.11.0", "cpu_count": 4},
        "telemetry": {
            "cache": {"hits": 0, "misses": 0, "corrupt": 0, "stores": 0,
                      "store_failures": 0},
            "phases": {"simulate": {"seconds": 0.5, "calls": 9}},
            "stages": {"throughput": 0.6},
        },
        "throughput": {
            "legacy": {
                "bench_memory_divergent": make_row(
                    "bench_memory_divergent", "legacy", 900_000.0),
                "bench_compute_intensive": make_row(
                    "bench_compute_intensive", "legacy", 640_000.0),
            },
            "fast": {
                "bench_memory_divergent": make_row(
                    "bench_memory_divergent", "fast", 3_200_000.0),
            },
            "trace_replay": make_row("bench_trace_replay", "fast", 1_100_000.0),
        },
        "generate": {
            "kernel": "fig07_fast_kernels", "specs": 26, "instructions": 3_480_000,
            "wall_seconds": 0.7, "instructions_per_second": 3_480_000 / 0.7,
        },
        "matrix": [
            dict(make_row("bench_memory_divergent", "fast", 3_100_000.0),
                 scheme="gto", kind="synthetic"),
        ],
        "sweep": {},
    }


# ---------------------------------------------------------------------------
# The committed history: every historical shape loads and classifies
# ---------------------------------------------------------------------------


def test_committed_history_loads_every_generation():
    history = load_bench_history(COMMITTED_HISTORY)
    assert len(history.entries) >= 3
    generations = [entry.generation for entry in history.entries]
    # Entry #1 predates the environment block; later entries are engine-aware.
    assert generations[0] == GEN_V0
    assert GEN_V1 in generations[1:]
    assert GEN_UNKNOWN not in generations
    assert not history.warnings
    assert all(entry.samples for entry in history.entries)


def test_retired_event_engine_rows_still_load():
    """The folded ``event`` engine's historical rows stay in the history as
    their own brackets, which simply end before the latest entry."""
    history = load_bench_history(COMMITTED_HISTORY)
    event = [sample for sample in history.samples if sample.engine == "event"]
    assert event
    assert max(sample.entry_index for sample in event) < len(history.entries) - 1
    latest = history.entries[-1]
    engines = {s.engine for s in latest.samples if s.scheme != GENERATE_SCHEME}
    assert latest.samples and engines <= {"fast", "legacy"}


def test_v0_entry_is_attributed_to_legacy_not_mixed():
    history = load_bench_history(COMMITTED_HISTORY)
    v0 = history.entries[0]
    hot = [s for s in v0.samples if s.scheme == HOT_LOOP_SCHEME]
    assert hot and all(sample.engine == "legacy" for sample in hot)
    assert all(sample.generation == GEN_V0 for sample in v0.samples)


def test_loader_tolerates_garbage_entries(tmp_path):
    path = tmp_path / "history.json"
    path.write_text(json.dumps([
        {"throughput": {"k": {"cycles_per_second": 10.0}}},
        "not an entry",
        {"no_throughput": True},
        42,
    ]))
    history = load_bench_history(path)
    assert [e.generation for e in history.entries] == [
        GEN_V0, GEN_UNKNOWN, GEN_UNKNOWN, GEN_UNKNOWN]
    assert len(history.warnings) == 3
    assert history.entries[0].samples  # the valid entry still contributes


def test_loader_warns_on_malformed_rows_without_crashing(tmp_path):
    path = tmp_path / "history.json"
    path.write_text(json.dumps([{
        "environment": {"python_version": "3.11.0", "cpu_count": 4},
        "throughput": {
            "fast": {"good": {"cycles_per_second": 5.0}, "bad": {"cycles": 1}},
            "broken": "nope",
        },
        "matrix": [{"kernel": "k"}, "junk"],
    }]))
    history = load_bench_history(path)
    (entry,) = history.entries
    assert entry.generation == GEN_V1
    assert [sample.kernel for sample in entry.samples] == ["good"]
    assert len(entry.warnings) == 4


# ---------------------------------------------------------------------------
# Generation classification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("entry, expected", [
    ({"throughput": {"k": {"cycles_per_second": 1.0}}}, GEN_V0),
    ({"throughput": {}, "environment": {}}, GEN_V1),
    ({"throughput": {}, "bench_schema": 2}, GEN_V2),
    ({"throughput": {}, "telemetry": {}}, GEN_V2),
    ({}, GEN_UNKNOWN),
    (None, GEN_UNKNOWN),
    ({"throughput": []}, GEN_UNKNOWN),
])
def test_classify_entry(entry, expected):
    assert classify_entry(entry) == expected


# ---------------------------------------------------------------------------
# Append-time validation (the schema gate `repro bench` runs)
# ---------------------------------------------------------------------------


def test_validate_accepts_a_fresh_entry():
    validate_bench_entry(make_v2_entry())  # must not raise


@pytest.mark.parametrize("mutate, fragment", [
    (lambda e: e.pop("environment"), "environment"),
    (lambda e: e.pop("telemetry"), "telemetry"),
    (lambda e: e.pop("bench_schema"), "bench_schema"),
    (lambda e: e.update(bench_schema=1), "bench_schema"),
    (lambda e: e.update(timestamp=""), "timestamp"),
    (lambda e: e["environment"].pop("cpu_count"), "cpu_count"),
    (lambda e: e["telemetry"].pop("stages"), "stages"),
    (lambda e: e["throughput"]["fast"]["bench_memory_divergent"].pop(
        "cycles_per_second"), "cycles_per_second"),
    (lambda e: e["matrix"][0].pop("scheme"), "scheme"),
    (lambda e: e.pop("sweep"), "sweep"),
    (lambda e: e["generate"].pop("instructions_per_second"), "instructions_per_second"),
    # Flat per-kernel rows are the retired v0 shape — a new entry must nest.
    (lambda e: e["throughput"].update(
        bench_memory_divergent={"cycles_per_second": 1.0}), "v0"),
])
def test_validate_rejects_shape_drift(mutate, fragment):
    entry = make_v2_entry()
    mutate(entry)
    with pytest.raises(BenchSchemaError, match=fragment):
        validate_bench_entry(entry)


def test_validated_entry_roundtrips_through_the_loader(tmp_path):
    entry = make_v2_entry()
    validate_bench_entry(entry)
    path = tmp_path / "history.json"
    path.write_text(json.dumps([entry]))
    history = load_bench_history(path)
    (loaded,) = history.entries
    assert loaded.generation == GEN_V2
    assert not loaded.warnings
    brackets = {sample.bracket for sample in loaded.samples}
    assert "bench_memory_divergent:hot_loop:legacy" in brackets
    assert "bench_memory_divergent:gto:fast" in brackets
    assert "bench_trace_replay:trace_replay:fast" in brackets
    assert "fig07_fast_kernels:generate:host" in brackets
