"""Versioned ``BENCH_throughput.json`` record schema + tolerant loader.

The trajectory file is append-only and has lived through three shape
generations:

* ``v0-flat`` — the seed's original entries: flat ``throughput[kernel]``
  rows, no ``environment`` block, no per-row ``engine`` field.  They were
  measured before the engine seam existed, i.e. on the **legacy** core by
  definition.
* ``v1-engine`` — ``environment`` block, throughput nested per engine
  (``throughput[engine][kernel]``), a flat ``trace_replay`` row, the
  scheme × kernel × engine ``matrix`` and the ``sweep`` timing dict.
* ``v2-telemetry`` — everything above plus a ``bench_schema`` version tag
  and a ``telemetry`` block (cache counters, phase wall-clock, per-stage
  timings).  Later v2 entries add an optional ``generate`` row (program
  generation in instructions per second), loaded as its own bracket.
  This is the only shape ``repro bench`` appends today, and
  :func:`validate_bench_entry` enforces it **before** the append so the
  drift stops here.

:func:`load_bench_history` never raises on historical shapes — it
classifies each entry, extracts the per-bracket throughput samples it can
trust, and records a warning for anything it cannot, so one malformed
entry degrades to a gap in the trajectory instead of an analysis crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.runtime.bench import load_trajectory

#: The schema generation ``repro bench`` writes (and validates) today.
BENCH_SCHEMA_VERSION = 2

#: Entry-shape generations, oldest first.
GEN_V0 = "v0-flat"
GEN_V1 = "v1-engine"
GEN_V2 = "v2-telemetry"
GEN_UNKNOWN = "unknown"
GENERATIONS = (GEN_V0, GEN_V1, GEN_V2)

#: Synthetic scheme names for the non-matrix throughput sections, so every
#: sample lives in one kernel × scheme × engine bracket space.
HOT_LOOP_SCHEME = "hot_loop"
TRACE_REPLAY_SCHEME = "trace_replay"
#: The program-generation bracket: engine-independent, so its samples carry
#: :data:`GENERATE_ENGINE` and their throughput is instructions built per
#: second, not cycles.
GENERATE_SCHEME = "generate"
GENERATE_ENGINE = "host"

#: Numeric fields every throughput/matrix row must carry.
ROW_NUMERIC_FIELDS = (
    "cycles",
    "instructions",
    "wall_seconds",
    "cycles_per_second",
    "instructions_per_second",
)


class BenchSchemaError(ValueError):
    """A bench entry violates the schema it claims (or must claim)."""


@dataclass(frozen=True)
class BenchSample:
    """One comparable throughput measurement in bracket space."""

    kernel: str
    scheme: str
    engine: str
    source: str  # "throughput" | "trace_replay" | "matrix" | "generate"
    cycles_per_second: float  # instructions per second for "generate"
    entry_index: int
    timestamp: str
    generation: str

    @property
    def bracket(self) -> str:
        return f"{self.kernel}:{self.scheme}:{self.engine}"


@dataclass
class BenchEntry:
    """One classified trajectory entry plus everything extracted from it."""

    index: int
    generation: str
    timestamp: str
    raw: dict
    samples: List[BenchSample] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)


@dataclass
class BenchHistory:
    """A loaded trajectory file: classified entries, never an exception."""

    path: Optional[Path]
    entries: List[BenchEntry] = field(default_factory=list)

    @property
    def warnings(self) -> List[str]:
        return [warning for entry in self.entries for warning in entry.warnings]

    @property
    def samples(self) -> List[BenchSample]:
        return [sample for entry in self.entries for sample in entry.samples]


def classify_entry(entry: object) -> str:
    """Which shape generation an entry belongs to (never raises)."""
    if not isinstance(entry, dict) or not isinstance(entry.get("throughput"), dict):
        return GEN_UNKNOWN
    if "bench_schema" in entry or "telemetry" in entry:
        return GEN_V2
    if isinstance(entry.get("environment"), dict):
        return GEN_V1
    return GEN_V0


def _row_cps(row: dict) -> Optional[float]:
    value = row.get("cycles_per_second")
    if isinstance(value, (int, float)) and value > 0:
        return float(value)
    return None


def _entry_samples(
    entry: dict, index: int, generation: str, warnings: List[str]
) -> List[BenchSample]:
    """Extract every trustworthy sample of one entry into bracket space."""
    timestamp = str(entry.get("timestamp", ""))
    label = f"entry #{index + 1}"

    def sample(kernel: str, scheme: str, engine: str, source: str, cps: float):
        return BenchSample(
            kernel=kernel, scheme=scheme, engine=engine, source=source,
            cycles_per_second=cps, entry_index=index, timestamp=timestamp,
            generation=generation,
        )

    samples: List[BenchSample] = []
    for key, value in entry.get("throughput", {}).items():
        if not isinstance(value, dict):
            warnings.append(f"{label}: throughput[{key!r}] is not an object; skipped")
            continue
        if "cycles_per_second" in value:
            # A flat row: either the v0 shape (key = kernel, engine implied
            # legacy — never attributed to any ambient engine) or the
            # trace_replay row (carries its own kernel/engine fields).
            cps = _row_cps(value)
            if cps is None:
                warnings.append(f"{label}: throughput[{key!r}] has no usable "
                                f"cycles_per_second; skipped")
                continue
            if key == "trace_replay":
                samples.append(sample(
                    str(value.get("kernel", "trace_replay")), TRACE_REPLAY_SCHEME,
                    str(value.get("engine", "legacy")), "trace_replay", cps,
                ))
            else:
                samples.append(sample(
                    str(value.get("kernel", key)), HOT_LOOP_SCHEME,
                    str(value.get("engine", "legacy")), "throughput", cps,
                ))
            continue
        # Per-engine nesting: key = engine, value = {kernel: row}.
        for kernel, row in value.items():
            cps = _row_cps(row) if isinstance(row, dict) else None
            if cps is None:
                warnings.append(f"{label}: throughput[{key!r}][{kernel!r}] has no "
                                f"usable cycles_per_second; skipped")
                continue
            samples.append(sample(
                str(kernel), HOT_LOOP_SCHEME, str(row.get("engine", key)),
                "throughput", cps,
            ))
    generate = entry.get("generate")
    if generate is not None:
        ips = generate.get("instructions_per_second") if isinstance(generate, dict) else None
        if isinstance(ips, (int, float)) and ips > 0:
            samples.append(sample(
                str(generate.get("kernel", GENERATE_SCHEME)), GENERATE_SCHEME,
                GENERATE_ENGINE, "generate", float(ips),
            ))
        else:
            warnings.append(f"{label}: generate has no usable instructions_per_second; skipped")
    matrix = entry.get("matrix", [])
    if not isinstance(matrix, list):
        warnings.append(f"{label}: matrix is not a list; skipped")
        matrix = []
    for position, row in enumerate(matrix):
        cps = _row_cps(row) if isinstance(row, dict) else None
        if cps is None or "kernel" not in row or "scheme" not in row:
            warnings.append(f"{label}: matrix row #{position} is malformed; skipped")
            continue
        samples.append(sample(
            str(row["kernel"]), str(row["scheme"]),
            str(row.get("engine", "legacy")), "matrix", cps,
        ))
    return samples


def load_bench_history(path: Union[str, Path]) -> BenchHistory:
    """Load and classify a trajectory file; tolerant of every generation.

    Unrecognizable entries contribute zero samples and one warning each —
    they are never silently mixed into trajectories and never fatal.
    """
    path = Path(path)
    history = BenchHistory(path=path)
    for index, item in enumerate(load_trajectory(path)):
        generation = classify_entry(item)
        raw = item if isinstance(item, dict) else {}
        entry = BenchEntry(
            index=index,
            generation=generation,
            timestamp=str(raw.get("timestamp", "")),
            raw=raw,
        )
        if generation == GEN_UNKNOWN:
            entry.warnings.append(
                f"entry #{index + 1} has no recognizable throughput section; "
                f"classified as {GEN_UNKNOWN} and excluded from trajectories"
            )
        else:
            entry.samples = _entry_samples(raw, index, generation, entry.warnings)
        history.entries.append(entry)
    return history


# ---------------------------------------------------------------------------
# Validation of freshly built entries (the append-time schema gate)
# ---------------------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BenchSchemaError(message)


def _validate_row(row: object, where: str, extra: tuple = ()) -> None:
    _require(isinstance(row, dict), f"{where} must be an object")
    for field_name in ("kernel",) + extra:
        _require(
            isinstance(row.get(field_name), str) and row[field_name],
            f"{where} needs a non-empty string {field_name!r}",
        )
    for field_name in ROW_NUMERIC_FIELDS:
        _require(
            isinstance(row.get(field_name), (int, float)),
            f"{where} needs a numeric {field_name!r}",
        )


def validate_bench_entry(entry: object) -> None:
    """Enforce the v2 schema on an entry about to be appended.

    Raises :class:`BenchSchemaError` naming the first violation.  Only new
    entries pass through here — historical shapes go through the tolerant
    :func:`load_bench_history` instead.
    """
    _require(isinstance(entry, dict), "bench entry must be an object")
    _require(
        entry.get("bench_schema") == BENCH_SCHEMA_VERSION,
        f"bench entry must carry bench_schema == {BENCH_SCHEMA_VERSION}",
    )
    for field_name in ("timestamp", "version"):
        _require(
            isinstance(entry.get(field_name), str) and entry[field_name],
            f"bench entry needs a non-empty string {field_name!r}",
        )
    environment = entry.get("environment")
    _require(isinstance(environment, dict), "bench entry needs an environment object")
    _require(
        isinstance(environment.get("python_version"), str),
        "environment needs a string 'python_version'",
    )
    _require(
        isinstance(environment.get("cpu_count"), int),
        "environment needs an integer 'cpu_count'",
    )
    telemetry = entry.get("telemetry")
    _require(isinstance(telemetry, dict), "bench entry needs a telemetry object")
    for section in ("cache", "phases", "stages"):
        _require(
            isinstance(telemetry.get(section), dict),
            f"telemetry needs a {section!r} object",
        )
    throughput = entry.get("throughput")
    _require(
        isinstance(throughput, dict) and throughput,
        "bench entry needs a non-empty throughput object",
    )
    for key, value in throughput.items():
        if key == "trace_replay":
            _validate_row(value, "throughput['trace_replay']", extra=("engine",))
            continue
        _require(
            isinstance(value, dict) and value,
            f"throughput[{key!r}] must be a non-empty per-kernel object",
        )
        _require(
            "cycles_per_second" not in value,
            f"throughput[{key!r}] must nest rows per engine "
            f"(flat rows are the retired v0 shape)",
        )
        for kernel, row in value.items():
            _validate_row(row, f"throughput[{key!r}][{kernel!r}]", extra=("engine",))
    matrix = entry.get("matrix")
    _require(isinstance(matrix, list), "bench entry needs a matrix list (may be empty)")
    for position, row in enumerate(matrix):
        _validate_row(
            row, f"matrix row #{position}", extra=("scheme", "engine", "kind")
        )
    _require(isinstance(entry.get("sweep"), dict), "bench entry needs a sweep object")
    generate = entry.get("generate")
    if generate is not None:
        _require(isinstance(generate, dict), "generate must be an object")
        _require(
            isinstance(generate.get("kernel"), str) and generate["kernel"],
            "generate needs a non-empty string 'kernel'",
        )
        for field_name in ("instructions", "wall_seconds", "instructions_per_second"):
            _require(
                isinstance(generate.get(field_name), (int, float)),
                f"generate needs a numeric {field_name!r}",
            )
