"""Trace-native workload families the synthetic generator cannot express.

The three-region generator draws every load independently from stationary
distributions; the families here produce *structured* address streams:

* ``stencil`` — strided 5-point stencil sweeps: regular column strides with
  halo rows shared between neighbouring warps (structured spatial reuse).
* ``transpose`` — tiled matrix transpose: row-major reads interleaved with
  column-major accesses whose large power-of-two strides hammer individual
  cache sets (conflict-miss pathology).
* ``gather`` — pointer-chasing gather: each load's address is a permutation
  step of the previous one and the chase is fully dependent
  (``dep_distance = 0``), serialising misses the way linked-list traversals
  do (irregular).
* ``treereduce`` — tree reduction: log₂ phases of pairwise loads at doubling
  strides, with warps retiring as the tree narrows (warp imbalance — every
  synthetic warp has identical length by construction).
* ``phasemix`` — phase-mixed kernel: alternating memory-bound and
  compute-bound phases inside one kernel (time-varying behaviour; the
  generator is stationary).

All families are deterministic functions of their
:class:`~repro.trace.adapter.TraceKernelSpec` (``seed`` included), so a
family-backed kernel is fully content-addressed by its spec fields — no
trace file is needed until one is exported with ``repro trace gen``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

from repro.gpu.isa import Program, ProgramBuilder
from repro.trace.adapter import SOURCE_FAMILY, TraceKernelSpec
from repro.workloads.spec import BenchmarkSpec

#: Address-space bases, in cache lines, spaced so families and warps never
#: alias each other in the tag space (mirrors the synthetic generator).
_FAMILY_REGION_BASE = 1 << 46
_WARP_REGION_STRIDE = 1 << 24
_PC_LOAD_BASE = 3000


def _alus(builder: ProgramBuilder, count: int, pc: int, budget: int) -> int:
    """Append up to ``count`` sequential ALUs from ``pc`` within ``budget``;
    returns the next PC."""
    count = max(0, min(count, budget - builder.length))
    builder.alu_run(count, pc)
    return pc + count


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def _stencil_programs(spec: TraceKernelSpec) -> List[Program]:
    """Strided 5-point stencil sweep over a 2-D grid of cache lines.

    Warp ``w`` owns a band of rows; every point loads the north, centre and
    south lines (east/west fall in the same line), so adjacent warps re-touch
    each other's boundary rows — structured inter-warp halo reuse at a fixed
    row stride.
    """
    width = spec.param("width", 96)  # lines per grid row
    compute = max(1, spec.instructions_per_load - 1)
    budget = spec.instructions_per_warp
    base = _FAMILY_REGION_BASE
    programs: List[Program] = []
    for warp_id in range(spec.num_warps):
        program = ProgramBuilder()
        pc = 0
        row = warp_id * spec.param("rows_per_warp", 4)
        col = 0
        while program.length < budget:
            for offset, site in ((-1, 0), (0, 1), (1, 2)):
                if program.length >= budget:
                    break
                line = base + max(0, row + offset) * width + col
                program.load(line, spec.dep_distance, _PC_LOAD_BASE + site)
            pc = _alus(program, compute, pc, budget)
            col += spec.param("col_stride", 1)
            if col >= width:
                col = 0
                row += 1
        programs.append(program.build())
    return programs


def _transpose_programs(spec: TraceKernelSpec) -> List[Program]:
    """Tiled transpose: row-major reads of A paired with column-major
    accesses of B at stride ``n`` lines — consecutive accesses map to the
    same cache set when ``n`` is a multiple of the set count, the classic
    transpose conflict pathology the tile size is meant to soften."""
    n = spec.param("matrix_lines", 64)  # the matrix is n x n cache lines
    tile = max(1, spec.param("tile", 8))
    compute = max(1, spec.instructions_per_load - 1)
    budget = spec.instructions_per_warp
    base_a = _FAMILY_REGION_BASE + (1 << 40)
    base_b = base_a + n * n + (1 << 30)
    tiles_per_row = (n + tile - 1) // tile
    total_tiles = tiles_per_row * tiles_per_row
    programs: List[Program] = []
    for warp_id in range(spec.num_warps):
        program = ProgramBuilder()
        pc = 0
        tile_index = warp_id  # round-robin tile ownership
        while program.length < budget:
            tile_row = (tile_index // tiles_per_row) * tile
            tile_col = (tile_index % tiles_per_row) * tile
            for r in range(tile):
                for c in range(tile):
                    if program.length >= budget:
                        break
                    row, col = tile_row + r, tile_col + c
                    if row >= n or col >= n:
                        continue
                    program.load(base_a + row * n + col, spec.dep_distance, _PC_LOAD_BASE)
                    if program.length >= budget:
                        break
                    # The transposed partner: stride-n column walk into B.
                    program.load(base_b + col * n + row, spec.dep_distance, _PC_LOAD_BASE + 1)
                    pc = _alus(program, compute, pc, budget)
            tile_index = (tile_index + spec.num_warps) % total_tiles
        programs.append(program.build())
    return programs


def _gather_programs(spec: TraceKernelSpec) -> List[Program]:
    """Pointer-chasing gather: the next address is a permutation step of the
    current one and the chase is fully dependent (``dep_distance=0``), so a
    miss must return before the next load can issue — the latency-bound
    irregular pattern linked structures produce."""
    table = max(2, spec.param("table_lines", 4096))
    compute = max(1, spec.instructions_per_load - 1)
    budget = spec.instructions_per_warp
    base = _FAMILY_REGION_BASE + (2 << 40)
    # A full-cycle LCG over [0, table): stride odd => bijective modulo 2^k.
    stride = spec.param("chase_stride", 0) or (2 * (spec.seed % 977) + 4097)
    programs: List[Program] = []
    for warp_id in range(spec.num_warps):
        program = ProgramBuilder()
        pc = 0
        cursor = (warp_id * 7919 + spec.seed * 104729) % table
        while program.length < budget:
            program.load(base + cursor, 0, _PC_LOAD_BASE)
            cursor = (cursor * 5 + stride) % table
            pc = _alus(program, compute, pc, budget)
        programs.append(program.build())
    return programs


def _treereduce_programs(spec: TraceKernelSpec) -> List[Program]:
    """Tree reduction over ``leaves`` lines: phase ``k`` combines pairs at
    stride ``2^k``.  Active elements halve every phase and warps whose slice
    is exhausted stop early, so warp programs have *different lengths* —
    warp imbalance no stationary synthetic kernel can produce."""
    leaves = max(2, spec.param("leaves", 8192))
    compute = max(1, spec.instructions_per_load - 1)
    budget = spec.instructions_per_warp
    base = _FAMILY_REGION_BASE + (3 << 40)
    programs = [ProgramBuilder() for _ in range(spec.num_warps)]
    pcs = [0] * spec.num_warps
    stride = 1
    while stride < leaves:
        active = leaves // (2 * stride)  # pair-combines in this phase
        for index in range(active):
            warp_id = index % spec.num_warps
            program = programs[warp_id]
            if program.length >= budget:
                continue
            position = index * 2 * stride
            program.load(base + position, spec.dep_distance, _PC_LOAD_BASE)
            if program.length < budget:
                program.load(base + position + stride, spec.dep_distance, _PC_LOAD_BASE + 1)
            pcs[warp_id] = _alus(program, compute, pcs[warp_id], budget)
        stride *= 2
    return [program.build() for program in programs]


def _phasemix_programs(spec: TraceKernelSpec) -> List[Program]:
    """Alternating memory-bound and compute-bound phases within one kernel.

    The memory phase loads every other instruction from a small hot set (the
    inherited ``private_lines`` per warp); the compute phase is a long ALU
    run.  Schedulers that adapt at runtime see their operating point move
    mid-kernel — stationary synthetics cannot exercise that."""
    phase_len = max(8, spec.param("phase_len", 600))
    hot_lines = max(1, spec.private_lines)
    budget = spec.instructions_per_warp
    base = _FAMILY_REGION_BASE + (4 << 40)
    programs: List[Program] = []
    for warp_id in range(spec.num_warps):
        rng = random.Random((spec.seed << 16) ^ (warp_id * 0x85EBCA6B))
        warp_base = base + warp_id * _WARP_REGION_STRIDE
        program = ProgramBuilder()
        pc = 0
        memory_phase = True
        while program.length < budget:
            steps = min(phase_len, budget - program.length)
            if memory_phase:
                for step in range(steps):
                    if step % 2 == 0:
                        line = warp_base + rng.randrange(hot_lines)
                        program.load(line, spec.dep_distance, _PC_LOAD_BASE)
                    else:
                        pc = _alus(program, 1, pc, budget)
            else:
                pc = _alus(program, steps, pc, budget)
            memory_phase = not memory_phase
        programs.append(program.build())
    return programs


FAMILY_GENERATORS: Dict[str, Callable[[TraceKernelSpec], List[Program]]] = {
    "stencil": _stencil_programs,
    "transpose": _transpose_programs,
    "gather": _gather_programs,
    "treereduce": _treereduce_programs,
    "phasemix": _phasemix_programs,
}


def family_names() -> List[str]:
    return list(FAMILY_GENERATORS)


def generate_family_programs(spec: TraceKernelSpec) -> List[Program]:
    """Synthesise the per-warp programs of a family-backed trace kernel."""
    try:
        generator = FAMILY_GENERATORS[spec.family]
    except KeyError:
        raise ValueError(
            f"unknown trace family {spec.family!r}; known families: {family_names()}"
        ) from None
    return generator(spec)


# ---------------------------------------------------------------------------
# The registered ``trace`` suite
# ---------------------------------------------------------------------------


def family_kernel(
    family: str,
    name: str = "",
    num_warps: int = 24,
    instructions_per_warp: int = 6000,
    seed: int = 0,
    dep_distance: int = 5,
    instructions_per_load: int = 3,
    private_lines: int = 200,
    params: Tuple[Tuple[str, int], ...] = (),
) -> TraceKernelSpec:
    """Convenience constructor for a family-backed trace kernel."""
    return TraceKernelSpec(
        name=name or f"{family}_k0",
        num_warps=num_warps,
        instructions_per_warp=instructions_per_warp,
        instructions_per_load=instructions_per_load,
        dep_distance=dep_distance,
        private_lines=private_lines,
        seed=seed,
        source=SOURCE_FAMILY,
        family=family,
        params=tuple(sorted(params)),
    )


def build_trace_benchmarks() -> List[BenchmarkSpec]:
    """The ``trace`` suite: one benchmark per trace-native family."""
    definitions = [
        (
            "stencil",
            "Strided 5-point stencil sweep (structured halo reuse)",
            [
                family_kernel(
                    "stencil", "stencil_k0", seed=41, instructions_per_load=3,
                    params=(("width", 96), ("rows_per_warp", 4)),
                ),
            ],
        ),
        (
            "transpose",
            "Tiled matrix transpose (stride-n set-conflict pathology)",
            [
                family_kernel(
                    "transpose", "transpose_k0", seed=43, instructions_per_load=2,
                    params=(("matrix_lines", 64), ("tile", 8)),
                ),
            ],
        ),
        (
            "gather",
            "Pointer-chasing gather (dependent irregular chase)",
            [
                family_kernel(
                    "gather", "gather_k0", seed=47, instructions_per_load=4,
                    params=(("table_lines", 4096),),
                ),
            ],
        ),
        (
            "treereduce",
            "Tree reduction (doubling strides, warp imbalance)",
            [
                family_kernel(
                    "treereduce", "treereduce_k0", seed=53, instructions_per_load=3,
                    params=(("leaves", 16384),),
                ),
            ],
        ),
        (
            "phasemix",
            "Phase-mixed kernel (alternating memory/compute phases)",
            [
                family_kernel(
                    "phasemix", "phasemix_k0", seed=59, private_lines=160,
                    params=(("phase_len", 600),),
                ),
            ],
        ),
    ]
    return [
        BenchmarkSpec(
            name=name,
            suite="Trace",
            role="trace",
            description=description,
            kernels=kernels,
        )
        for name, description, kernels in definitions
    ]
