"""Differential verification of every optimised engine against the oracle.

Built on :mod:`engine_conformance`: each scenario below runs the ``legacy``
oracle once and then *every* other engine registered in
``repro.gpu.engine.ENGINES`` — currently the struct-of-arrays ``fast`` core
with its next-event horizon — asserting bit-identical counters, cycles,
warp tuple, completion flag and telemetry.  A newly registered
engine is covered by this entire file with zero new test code.

Scenario coverage:

* random synthetic kernels under all five evaluation schemes
  (gto/swl/pcal/poise/static_best) plus CCWS and the APCM cache policy,
* random architecture variations (L1 geometry, hash vs linear indexing,
  MSHR pressure small enough to exercise the structural-hazard retry path
  — the spans the fast core jumps over),
* the five trace-native families,
* adversarial controller scripts: random interleavings of warp-tuple
  changes, run windows and counter snapshots (the access pattern of the
  PCAL/Poise sampling loops), including window boundaries that fall inside
  MSHR-full retry spans on one SM and on a 2-SM chip,
* degenerate shapes (empty warp programs, single-warp kernels),
* the fast core's skip-span accounting invariant: jumped plus ticked
  cycles exactly reconstruct the oracle's cycle count.

Any divergence found here is a bug in the optimised engine by definition:
the legacy core is the specification.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from engine_conformance import (
    CANDIDATE_ENGINES,
    ORACLE,
    SCHEMES,
    assert_conformance,
    drive_windowed,
    kernel_specs,
    make_controller,
    small_archs,
)
from repro.gpu.config import (
    CacheConfig,
    GPUConfig,
    MemoryConfig,
    SMConfig,
    baseline_config,
)
from repro.gpu.engine import ENGINE_FAST
from repro.gpu.gpu import GPU
from repro.gpu.isa import alu, load
from repro.runtime import serialization
from repro.runtime.bench import memory_stall_config, memory_stall_kernel
from repro.schedulers import APCMPolicy, CCWSController, GTOController
from repro.trace.families import family_kernel, family_names
from repro.workloads.generator import generate_kernel_programs
from repro.workloads.spec import KernelSpec


def test_harness_covers_all_registered_engines() -> None:
    """The conformance harness must track the registry: every engine except
    the oracle is a candidate, and the default fast core is one of them — a
    registry edit can't silently shrink coverage."""
    from repro.gpu.engine import ENGINES

    assert ORACLE in ENGINES
    assert set(CANDIDATE_ENGINES) == set(ENGINES) - {ORACLE}
    assert ENGINE_FAST in CANDIDATE_ENGINES


# ---------------------------------------------------------------------------
# Synthetic kernels × schemes
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(spec=kernel_specs, scheme=st.sampled_from(SCHEMES))
def test_scheme_differential(spec: KernelSpec, scheme: str) -> None:
    """All engines agree under every evaluation scheme on random kernels."""
    programs = generate_kernel_programs(spec)
    config = baseline_config(max_cycles=30_000)
    assert_conformance(
        config, programs,
        controller_factory=lambda: make_controller(scheme, spec.seed),
        max_cycles=16_000,
    )


@settings(max_examples=20, deadline=None)
@given(spec=kernel_specs, config=small_archs)
def test_architecture_differential(spec: KernelSpec, config: GPUConfig) -> None:
    """Random L1 geometries, linear indexing and MSHR starvation (the
    structural-hazard retry path) stay bit-identical on every engine."""
    programs = generate_kernel_programs(spec)
    assert_conformance(config, programs, max_cycles=12_000)


@settings(max_examples=10, deadline=None)
@given(spec=kernel_specs)
def test_apcm_cache_policy_differential(spec: KernelSpec) -> None:
    """The per-PC allocate/observe hooks fire identically in every engine."""
    programs = generate_kernel_programs(spec)
    config = baseline_config(max_cycles=30_000)
    assert_conformance(
        config, programs,
        controller_factory=GTOController,
        cache_policy_factory=APCMPolicy,
        max_cycles=16_000,
    )


@settings(max_examples=10, deadline=None)
@given(spec=kernel_specs)
def test_ccws_differential(spec: KernelSpec) -> None:
    programs = generate_kernel_programs(spec)
    config = baseline_config(max_cycles=30_000)
    assert_conformance(
        config, programs, controller_factory=CCWSController, max_cycles=16_000
    )


# ---------------------------------------------------------------------------
# Trace-native families × schemes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", sorted(family_names()))
@pytest.mark.parametrize("scheme", ("gto", "poise"))
def test_trace_family_differential(family: str, scheme: str) -> None:
    spec = family_kernel(
        family, f"{family}_diff", num_warps=6, instructions_per_warp=300, seed=5
    )
    programs = generate_kernel_programs(spec)
    config = baseline_config(max_cycles=30_000)
    assert_conformance(
        config, programs,
        controller_factory=lambda: make_controller(scheme, 5),
        max_cycles=16_000,
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_trace_family_all_schemes(scheme: str) -> None:
    """One family through the full scheme matrix (the ISSUE's 5×trace leg)."""
    spec = family_kernel(
        "transpose", "transpose_diff", num_warps=8, instructions_per_warp=400, seed=9
    )
    programs = generate_kernel_programs(spec)
    config = baseline_config(max_cycles=30_000)
    assert_conformance(
        config, programs,
        controller_factory=lambda: make_controller(scheme, 9),
        max_cycles=16_000,
    )


# ---------------------------------------------------------------------------
# Adversarial control scripts (PCAL/Poise-style sampling)
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    spec=kernel_specs,
    script=st.lists(
        st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 2_500)),
        min_size=1,
        max_size=8,
    ),
)
def test_windowed_control_differential(
    spec: KernelSpec, script: List[Tuple[int, int, int]]
) -> None:
    """Random interleavings of set_warp_tuple / run_cycles / snapshot must
    produce identical per-window counter deltas on every engine.  For the
    fast core's jumps this is the sharpest invariant: a jump may never cross
    a ``run_cycles`` window boundary, or the per-window deltas would smear."""
    config = baseline_config(max_cycles=60_000)
    programs = generate_kernel_programs(spec)
    oracle_trail = drive_windowed(ORACLE, config, programs, script)
    for engine in CANDIDATE_ENGINES:
        assert drive_windowed(engine, config, programs, script) == oracle_trail, (
            f"engine {engine!r} window trail drifted from {ORACLE}"
        )


@pytest.mark.parametrize("num_sms", (1, 2))
def test_window_boundaries_inside_mshr_spans(num_sms: int) -> None:
    """On the MSHR-saturated memory-stall bracket almost every cycle is an
    MSHR-full retry and fills arrive ~100 cycles apart, so short odd-sized
    windows (with warp-tuple changes between them) cut retry spans in the
    middle.  Every jump must stop at the window edge, on one SM and on a
    2-SM chip stepping its quantum grid."""
    config = replace(memory_stall_config(max_cycles=60_000), num_sms=num_sms)
    programs = generate_kernel_programs(
        replace(memory_stall_kernel(), instructions_per_warp=120)
    )
    script = [(24, 24, 37), (24, 24, 53), (12, 6, 41), (24, 24, 29), (8, 8, 61)] * 3
    oracle_trail = drive_windowed(ORACLE, config, programs, script, tail_cycles=20_000)
    windows = oracle_trail[:-1]
    # At least one window is retry cycles only: both its edges sit inside
    # MSHR-full spans.
    assert any(
        consumed == delta["mshr_stall_cycles"] == delta["cycles"]
        for consumed, delta in windows
    )
    for engine in CANDIDATE_ENGINES:
        assert drive_windowed(
            engine, config, programs, script, tail_cycles=20_000
        ) == oracle_trail, f"engine {engine!r} window trail drifted from {ORACLE}"


# ---------------------------------------------------------------------------
# Degenerate shapes
# ---------------------------------------------------------------------------


def test_empty_and_mixed_programs_differential() -> None:
    """Warps with empty programs (trace padding) and mixed lengths retire
    identically."""
    programs = [
        [],
        [alu(pc=0), load(17, dep_distance=1, pc=1), alu(pc=2)],
        [],
        [load(17, dep_distance=0, pc=0)],
        [alu(pc=i) for i in range(5)],
    ]
    config = baseline_config(max_cycles=10_000)
    assert_conformance(config, programs, max_cycles=10_000)


def test_single_warp_mshr_merge_differential() -> None:
    """Merged misses to one line (shared MSHR entry, per-waiter latency)."""
    programs = [
        [load(99, dep_distance=3, pc=0), load(99, dep_distance=2, pc=1), alu(pc=2)],
        [load(99, dep_distance=3, pc=0), alu(pc=1)],
    ]
    config = baseline_config(max_cycles=10_000)
    assert_conformance(config, programs, max_cycles=10_000)


def test_single_set_hash_cache_differential() -> None:
    """num_sets == 1 with hash indexing (the XOR-fold degenerate case that
    used to spin forever in the legacy fold loop) terminates and agrees."""
    config = GPUConfig(
        sm=SMConfig(max_warps=4),
        l1=CacheConfig(
            size_bytes=2 * 128, assoc=2, line_size=128, mshr_entries=4,
            indexing="hash",
        ),
        memory=MemoryConfig(
            l2=CacheConfig(
                size_bytes=4 * 128, assoc=4, line_size=128, mshr_entries=8,
                indexing="hash",
            ),
            l2_latency=20,
            l2_service_interval=2.0,
            dram_latency=60,
            dram_service_interval=8.0,
        ),
        max_cycles=10_000,
    )
    programs = [
        [load(base + index, dep_distance=1, pc=index) for index in range(40)]
        for base in (0, 1 << 20)
    ]
    assert_conformance(config, programs, max_cycles=10_000)


@pytest.mark.parametrize("engine", CANDIDATE_ENGINES)
def test_reuse_tracker_differential(engine: str) -> None:
    """With ``track_reuse_distance`` on (the Fig. 4 path), every engine feeds
    the tracker the identical access stream."""
    spec = KernelSpec(
        name="reuse_diff", num_warps=6, instructions_per_warp=300,
        instructions_per_load=2, dep_distance=2, intra_warp_fraction=0.7,
        inter_warp_fraction=0.2, private_lines=24, shared_lines=48, seed=3,
    )
    config = replace(baseline_config(max_cycles=20_000), track_reuse_distance=True)
    programs = generate_kernel_programs(spec)

    def stats(name: str):
        sm = GPU(config).build_sm([list(p) for p in programs], engine=name)
        sm.run_to_completion(20_000)
        tracker = sm.reuse_tracker
        return (
            tracker.total_distance,
            tracker.reuse_count,
            tracker.cold_count,
            serialization.counters_to_dict(sm.counters),
        )

    assert stats(engine) == stats(ORACLE)


def test_engine_selection_rejects_unknown_names() -> None:
    from repro.gpu.engine import resolve_engine

    with pytest.raises(ValueError):
        resolve_engine("warp-speed")
    assert resolve_engine("FAST") == "fast"
    assert resolve_engine(" legacy ") == "legacy"
    with pytest.raises(ValueError, match="folded into 'fast'"):
        resolve_engine(" Event ")


# ---------------------------------------------------------------------------
# Fast-core skip-span accounting
# ---------------------------------------------------------------------------


def _span_accounting(config: GPUConfig, programs, max_cycles: int) -> None:
    """Shared body: run the fast core, check its span ledger closes, and
    check its stall counters equal the oracle's tick-by-tick tally."""
    oracle_sm = GPU(config).build_sm([list(p) for p in programs], engine=ORACLE)
    oracle_sm.run_to_completion(max_cycles)
    fast_sm = GPU(config).build_sm([list(p) for p in programs], engine=ENGINE_FAST)
    fast_sm.run_to_completion(max_cycles)

    # Every simulated cycle is accounted for exactly once: either advanced
    # in a multi-cycle jump over a dead span, or ticked through an issue.
    assert (
        fast_sm.jumped_cycles + fast_sm.ticked_cycles == fast_sm.counters.cycles
    ), (
        f"span ledger leaks cycles: jumped={fast_sm.jumped_cycles} "
        f"ticked={fast_sm.ticked_cycles} total={fast_sm.counters.cycles}"
    )
    assert fast_sm.jump_spans <= fast_sm.jumped_cycles

    # The jumps credit skipped cycles exactly as the oracle ticks them.
    assert fast_sm.counters.cycles == oracle_sm.counters.cycles
    assert fast_sm.counters.stall_cycles == oracle_sm.counters.stall_cycles
    assert fast_sm.counters.mshr_stall_cycles == oracle_sm.counters.mshr_stall_cycles
    assert fast_sm.counters.busy_cycles == oracle_sm.counters.busy_cycles


@settings(max_examples=20, deadline=None)
@given(spec=kernel_specs)
def test_skip_span_accounting(spec: KernelSpec) -> None:
    """For random kernels: jumped spans + ticked cycles == the oracle's total
    cycle count, and the stalled-cycle counters match the oracle exactly."""
    programs = generate_kernel_programs(spec)
    _span_accounting(baseline_config(max_cycles=30_000), programs, 16_000)


@settings(max_examples=15, deadline=None)
@given(spec=kernel_specs, config=small_archs)
def test_skip_span_accounting_mshr_starved(
    spec: KernelSpec, config: GPUConfig
) -> None:
    """Same ledger under MSHR-starved architectures, where the dominant spans
    are structural-hazard retries (the multi-cycle MSHR-full jumps)."""
    programs = generate_kernel_programs(spec)
    _span_accounting(config, programs, 12_000)


def test_fast_engine_actually_jumps() -> None:
    """Guard against the accounting trivially passing because the fast core
    never skips: on a load-heavy kernel it must take multi-cycle jumps
    (jumped_cycles strictly greater than jump_spans)."""
    programs = [
        [load((1 << 30) + 64 * warp + i, dep_distance=1, pc=i) for i in range(64)]
        for warp in range(4)
    ]
    config = baseline_config(max_cycles=40_000)
    sm = GPU(config).build_sm([list(p) for p in programs], engine=ENGINE_FAST)
    sm.run_to_completion(40_000)
    assert sm.jump_spans > 0
    assert sm.jumped_cycles > sm.jump_spans
