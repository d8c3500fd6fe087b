"""Synthesis of per-warp programs from a KernelSpec.

Each warp's program is a repeating pattern of ``In - 1`` ALU instructions
followed by one global LOAD, emitted straight into the compact
:class:`~repro.gpu.isa.Program` form: one run record per ALU gap, one array
entry per load.  Load addresses are drawn from three regions:

* the warp's *private* region (``private_lines`` cache lines) — producing
  intra-warp reuse with an average reuse distance proportional to the
  region size,
* the *shared* region (``shared_lines`` lines), touched by every warp —
  producing inter-warp reuse,
* a *streaming* region of fresh, never-reused lines.

Region bases are spaced far apart so they never alias in the tag space; the
set-index hash of the L1 spreads them over the cache exactly as real
benchmarks' address streams would.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.gpu.isa import Program, ProgramBuilder
from repro.obs.telemetry import phase
from repro.workloads.spec import KernelSpec

# Region spacing, in cache lines.  Large enough that private/shared/streaming
# regions of all warps never overlap.
_PRIVATE_REGION_STRIDE = 1 << 22
_SHARED_REGION_BASE = 1 << 40
_STREAM_REGION_BASE = 1 << 44

# Static PC tags: every load site in the pattern gets its own PC so that
# instruction-based policies (APCM) can distinguish load instructions.
_PC_LOAD_BASE = 1000


def generate_warp_program(spec: KernelSpec, warp_id: int) -> Program:
    """Generate the compact program of one warp (no per-instruction objects).

    Each load draws one ``rng.random()`` and at most one ``randrange``, in
    stream order, so the address stream is a pure function of
    ``(spec, warp_id)``; ``tests/data/program_digests.json`` pins it.
    """
    rng = random.Random((spec.seed << 20) ^ (warp_id * 0x9E3779B1))
    builder = ProgramBuilder()
    add_load, add_alus = builder.load, builder.alu_run
    private_base = (warp_id + 1) * _PRIVATE_REGION_STRIDE + spec.seed * 131
    stream_base = _STREAM_REGION_BASE + warp_id * _PRIVATE_REGION_STRIDE + spec.seed * 977
    stream_cursor = 0

    group = max(1, spec.instructions_per_load)
    dep = min(spec.dep_distance, group - 1) if group > 1 else 0
    load_sites = max(1, min(8, spec.private_lines // 64 + 1))
    length = spec.instructions_per_warp
    # ``pc`` is both the next instruction's index and its static PC tag.
    pc = 0
    while pc < length:
        run = min(group - 1, length - pc)
        add_alus(run, pc)
        pc += run
        if pc >= length:
            break
        draw = rng.random()
        if draw < spec.intra_warp_fraction:
            line = private_base + rng.randrange(spec.private_lines)
            pc_tag = _PC_LOAD_BASE + (pc % load_sites)
        elif draw < spec.intra_warp_fraction + spec.inter_warp_fraction:
            line = _SHARED_REGION_BASE + spec.seed * 7919 + rng.randrange(spec.shared_lines)
            pc_tag = _PC_LOAD_BASE + 100 + (pc % load_sites)
        else:
            line = stream_base + stream_cursor
            stream_cursor += 1
            pc_tag = _PC_LOAD_BASE + 200  # a single streaming load site
        add_load(line, dep, pc_tag)
        pc += 1
    return builder.build()


#: Instruction budget of the program cache: all 26 kernels of a ``fig07
#: --fast`` run (3.48M instructions) stay resident with headroom.  Those
#: kernels take 29 MiB as compact programs (about 8.5 bytes per
#: instruction), so a full cache holds about 50 MB.
PROGRAM_CACHE_INSTRUCTIONS = 6_000_000


class BoundedProgramCache:
    """An LRU of generated kernels bounded by total resident instructions.

    It is never consulted for trace-backed kernels, whose decoded programs
    must not be pinned between runs, and a kernel larger than the whole
    budget is returned unpinned rather than evicting everything else.
    ``hits``, ``misses`` and ``evictions`` count since construction.
    """

    def __init__(self, budget: int = PROGRAM_CACHE_INSTRUCTIONS) -> None:
        if budget < 1:
            raise ValueError("cache budget must be positive")
        self.budget = budget
        self._entries: "OrderedDict[KernelSpec, Tuple[Program, ...]]" = OrderedDict()
        self.resident_instructions = 0
        self.hits = self.misses = self.evictions = 0

    @staticmethod
    def _size(programs: Tuple[Program, ...]) -> int:
        return sum(len(program) for program in programs)

    def get(self, spec: KernelSpec) -> Optional[Tuple[Program, ...]]:
        programs = self._entries.get(spec)
        if programs is None:
            self.misses += 1
        else:
            self.hits += 1
            self._entries.move_to_end(spec)
        return programs

    def put(self, spec: KernelSpec, programs: Tuple[Program, ...]) -> None:
        size = self._size(programs)
        if size > self.budget:
            return
        if spec in self._entries:  # a re-put replaces the entry
            self.resident_instructions -= self._size(self._entries.pop(spec))
        while self.resident_instructions + size > self.budget:
            _, evicted = self._entries.popitem(last=False)
            self.resident_instructions -= self._size(evicted)
            self.evictions += 1
        self._entries[spec] = programs
        self.resident_instructions += size

    def clear(self) -> None:
        self._entries.clear()
        self.resident_instructions = 0

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "resident_instructions": self.resident_instructions,
        }

    def __contains__(self, spec: KernelSpec) -> bool:
        return spec in self._entries  # a peek: no counter, no LRU update

    def __len__(self) -> int:
        return len(self._entries)


#: Module-level cache: the profiler and the scheme runners repeatedly execute
#: the same kernels, and regenerating their programs would dominate.
_PROGRAM_CACHE = BoundedProgramCache()


def clear_program_cache() -> None:
    """Drop every resident program (the counters keep counting)."""
    _PROGRAM_CACHE.clear()


def program_cache_stats() -> Dict[str, int]:
    """This process's program-cache counters (see ``obs.telemetry``)."""
    return _PROGRAM_CACHE.stats()


def generate_kernel_programs(spec: KernelSpec) -> List[Program]:
    """Produce the per-warp programs of a kernel.

    Trace-backed specs (anything exposing ``materialise_programs``, i.e.
    :class:`repro.trace.adapter.TraceKernelSpec`) are decoded or synthesised
    on demand and bypass the program cache entirely.  Synthetic specs are
    generated once, under the ``generate`` phase, and memoised in the
    bounded cache above.  Programs are immutable and shared, never copied.
    """
    materialise = getattr(spec, "materialise_programs", None)
    if materialise is not None:
        return list(materialise())
    cached = _PROGRAM_CACHE.get(spec)
    if cached is None:
        with phase("generate"):
            cached = tuple(
                generate_warp_program(spec, warp_id) for warp_id in range(spec.num_warps)
            )
        _PROGRAM_CACHE.put(spec, cached)
    return list(cached)
