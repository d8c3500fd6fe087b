"""End-to-end and per-layer benchmark of the Poise reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload eval-cold --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is a separate run that wraps the layers' public functions and reports the
per-layer metrics.  Metric names and units come from ``BENCHMARK.json``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
human-readable report.  ``README.md`` in this directory documents every
workload and metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
#: Fresh-process set-ups timed per run; ``setup_s`` is their mean.
SETUP_REPEATS = 3
#: Per-operation latencies reported from the traced run.
OPERATIONS = {
    "kernel_run": "gpu.run_kernel",
    "profile": "profiling.profile",
    "window_point": "profiling.measure_point",
    "sweep_point": "scenarios.evaluate_point",
}
LAYERS = ("workloads", "trace", "gpu", "profiling", "core", "experiments", "runtime", "scenarios")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only import the program and build the workload's inputs (timed by the parent)",
    )
    return parser.parse_args(argv)


def isolate_environment() -> None:
    """Run on the defaults: no inherited engine, job count, faults or cache."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    WORK.mkdir(exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(WORK / "default-cache")
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    sys.path.insert(0, str(SRC))


def time_setup(args):
    """(start, end) of a fresh process importing the program and building
    this workload's inputs."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    start = time.perf_counter()
    subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
    return start, time.perf_counter()


def tail(durations):
    """(median, highest percentile with at least ten samples beyond it or
    ``None``, its value), in seconds."""
    ordered = sorted(durations)
    count = len(ordered)
    if not count:
        return 0.0, None, 0.0
    for quantile in (0.999, 0.99, 0.9, 0.5):
        if count * (1 - quantile) >= 10:
            return median(ordered), quantile, ordered[math.ceil(quantile * count) - 1]
    return median(ordered), None, 0.0


def end_to_end(out, setups, gauge) -> dict:
    """The end-to-end metrics.  Times are means over their samples,
    normalised to the reference host speed (see ``hostgauge.py``)."""
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    cold_s = gauge.normalised_mean(out.cold)
    return {
        "cold_s": cold_s,
        "warm_s": gauge.normalised_mean(out.warm) / out.warm_passes,
        "sim_cycles_per_s": out.sim_cycles / cold_s,
        "setup_s": gauge.normalised_mean(setups),
        "peak_rss_mb": usage / 1024.0,
        "ok_frac": 1.0 - out.failed / out.attempted,
        "speedup_hmean": out.speedup_hmean,
        "energy_ratio": out.energy_ratio,
    }


def per_layer(out, tracer, import_s: float, gauge) -> dict:
    table = tracer.summary()
    counts = tracer.counts

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    timed = sum(end - start for start, end in out.segments)
    self_s = {layer: 0.0 for layer in LAYERS}
    for name, row in table.items():
        self_s[name.split(".")[0]] += row["self_s"]
    attributed = sum(self_s.values())
    spans = len(tracer.spans)
    generated = counts["workloads.cache_hits"] + counts["workloads.cache_misses"]
    runs = counts["experiments.run"]
    cache_lookups = counts["runtime.cache_hits"] + counts["runtime.cache_misses"]
    executor = out.executor
    metrics = {
        "setup.import_s": import_s,
        "host.gauge_ms": gauge.loop_ms((gauge.samples[0][0], gauge.samples[-1][0])),
        "host.gauge_samples": len(gauge.samples),
        "timed_s": timed,
        "unattributed_s": timed - attributed,
        "unattributed_frac": ratio(timed - attributed, timed),
        "trace_overhead_frac": ratio(spans * tracer.per_span_cost(), timed),
        "failed_frac": ratio(out.failed, out.attempted),
        "workloads.generate_s": total("workloads.generate"),
        "workloads.generate_calls": counts["workloads.generate"],
        "workloads.programs_built": counts["workloads.programs_built"],
        "workloads.unique_specs": len(tracer.unique["workloads.generate"]),
        "workloads.instructions_built": counts["workloads.instructions_built"],
        "workloads.program_cache_hit_ratio": ratio(counts["workloads.cache_hits"], generated),
        "trace.materialise_s": total("trace.materialise"),
        "trace.materialise_calls": counts["trace.materialise"],
        "trace.unique_specs": len(tracer.unique["trace.materialise"]),
        "gpu.run_kernel_s": total("gpu.run_kernel"),
        "gpu.run_kernel_calls": counts["gpu.run_kernel"],
        "gpu.build_sm_s": total("gpu.build_sm"),
        "gpu.build_sm_calls": counts["gpu.build_sm"],
        "gpu.run_graph_s": total("gpu.run_graph"),
        "gpu.sim_s": total("gpu.sim"),
        "gpu.sim_cycles": counts["gpu.sim_cycles"],
        "gpu.sim_instructions": counts["gpu.sim_instructions"],
        "gpu.ns_per_cycle": ratio(self_s["gpu"] * 1e9, counts["gpu.sim_cycles"]),
        "gpu.self_frac": ratio(self_s["gpu"], timed),
        "profiling.profile_s": total("profiling.profile"),
        "profiling.profiles": counts["profiling.profile"],
        "profiling.points": counts["profiling.measure_point"],
        "profiling.measure_point_s": total("profiling.measure_point"),
        "core.train_s": total("core.train"),
        "core.train_examples": counts["core.train_examples"],
        "core.fit_s": total("core.fit"),
        "core.poise_execute_s": total("core.poise_execute"),
        "core.poise_epochs": counts["core.poise_epochs"],
        "core.local_search_s": total("core.local_search"),
        "core.predict_calls": counts["core.predict"],
        "experiments.run_calls": runs,
        "experiments.runs_simulated": counts["experiments.runs_simulated"],
        "experiments.memo_hit_ratio": ratio(runs - counts["experiments.runs_simulated"], runs),
        "experiments.get_profile_calls": counts["experiments.get_profile"],
        "runtime.cache_hits": counts["runtime.cache_hits"],
        "runtime.cache_misses": counts["runtime.cache_misses"],
        "runtime.cache_stores": counts["runtime.cache_store"],
        "runtime.cache_hit_ratio": ratio(counts["runtime.cache_hits"], cache_lookups),
        "runtime.cache_load_s": total("runtime.cache_load"),
        "runtime.cache_store_s": total("runtime.cache_store"),
        "runtime.executor_map_s": total("runtime.executor_map"),
        "runtime.executor_parallel_efficiency": executor.get("parallel_efficiency", 0.0),
        "scenarios.points_computed": counts["scenarios.points_computed"],
        "scenarios.points_skipped": counts["scenarios.points_skipped"],
        "scenarios.evaluate_point_s": total("scenarios.evaluate_point"),
        "scenarios.load_point_s": total("scenarios.load_point"),
    }
    for field in ("jobs", "attempts", "retries", "timeouts", "pool_restarts"):
        metrics[f"runtime.executor_{field}"] = executor.get(field, 0)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
    for part in ("complete", "window", "stall", "chip"):
        cycles, seconds = out.parts.get(part, (0, 0.0))
        metrics[f"gpu.{part}.cycles_per_s"] = ratio(cycles, seconds)
    for operation, span in OPERATIONS.items():
        middle, quantile, value = tail(tracer.durations(span))
        metrics[f"ops.{operation}.count"] = len(tracer.durations(span))
        metrics[f"ops.{operation}.p50_ms"] = middle * 1e3
        metrics[f"ops.{operation}.tail_pct"] = 100 * quantile if quantile else 0.0
        metrics[f"ops.{operation}.tail_ms"] = value * 1e3
    return metrics


def run_all(args) -> int:
    """Every workload in turn, each in its own process; prints their reports
    and one combined JSON line."""
    from bench_workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = completed.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    manifest = ROOT / "BENCHMARK.json"
    if not (SRC / "repro").is_dir() or not manifest.is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads(manifest.read_text())
    isolate_environment()
    if args.workload == "all":
        return run_all(args)

    start = time.perf_counter()
    import repro.experiments.common  # noqa: F401
    import repro.scenarios.runner  # noqa: F401
    import_s = time.perf_counter() - start
    from bench_workloads import WORKLOADS, fresh_dir
    from hostgauge import HostGauge
    from spans import Tracer, instrument

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    if args.setup_probe:
        workload.setup(args.seed)
        return 0

    workdir = fresh_dir(WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}")
    tracer = None
    try:
        with HostGauge() as gauge:
            setups = [time_setup(args) for _ in range(SETUP_REPEATS)]
            inputs = workload.setup(args.seed)
            if args.trace:
                tracer = Tracer()
                restore = instrument(tracer)
                try:
                    out = workload.run(inputs, args.seconds, workdir, traced=True)
                finally:
                    restore()
            else:
                out = workload.run(inputs, args.seconds, workdir)
            workload.check(inputs, out, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        values, kind = end_to_end(out, setups, gauge), "end_to_end"
    else:
        values, kind = per_layer(out, tracer, import_s, gauge), "per_layer"
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared[kind]
    }
    raw = {
        name: sum(end - start for start, end in intervals) / len(intervals) / passes
        for name, intervals, passes in (
            ("cold_s", out.cold, 1), ("warm_s", out.warm, out.warm_passes), ("setup_s", setups, 1)
        )
    }
    correct = all(ok for _, ok, _ in out.checks)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, ok, detail in out.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    print(f"  digest {out.digest}")
    for name, value in raw.items():
        print(f"  {'raw ' + name:<34} {value:>16.6g} s (not normalised)")
    if tracer is None:
        for name, metric in out.aliases.items():
            print(f"  {name:<34} {values[metric]:>16.6g} (= {metric})")
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    report = WORK / "reports" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "workload": args.workload, "seed": args.seed, "digest": out.digest,
        "checks": out.checks, "metrics": metrics, "raw": raw, "aliases": out.aliases,
        "gauge": gauge.samples,
        "intervals": {"cold": out.cold, "warm": out.warm, "setup": setups},
    }
    if tracer is not None:
        document["spans"] = tracer.export()
    report.write_text(json.dumps(document))
    print(f"  report {report.relative_to(ROOT)}")
    print(json.dumps(
        {"correct": correct, "attempted": out.attempted, "failed": out.failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
