"""Pinned digests of every registry kernel's expanded instruction stream.

Each registry kernel (training, evaluation, compute and the trace-native
families) plus the memory-stall bench kernel maps to one SHA-256 over its
expanded ``(opcode, line_addr, dep_distance, pc)`` stream, warp by warp.
``tests/data/program_digests.json`` holds the values; they were written by
the per-instruction producers that predate the compact program format, so a
producer that drifts by one address, dependency distance or PC fails
``tests/test_program_format.py``.

Two digest paths compute the same bytes: :func:`instruction_digest` walks
``Instruction`` objects (the readable reference), :func:`program_digest`
expands a :class:`~repro.gpu.isa.Program`'s arrays with numpy (fast enough
to cover all ~10M registry instructions in a test).

To regenerate the fixture after an *intentional* change to a generator::

    PYTHONPATH=src python tests/program_digests.py
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

FIXTURE_PATH = Path(__file__).resolve().parent / "data" / "program_digests.json"

#: One expanded instruction: opcode (0 ALU, 1 LOAD), line (0 for ALU),
#: dep_distance, pc — little-endian, unpadded.
RECORD = struct.Struct("<BQQQ")
#: Prefix of every warp section: its instruction count.
WARP_HEADER = struct.Struct("<Q")


def pinned_specs() -> List[Tuple[str, object]]:
    """``(key, spec)`` for every registry kernel plus the memory-stall kernel."""
    from repro.runtime.bench import memory_stall_kernel
    from repro.workloads.registry import all_benchmarks

    specs = []
    for name, benchmark in sorted(all_benchmarks().items()):
        for index, spec in enumerate(benchmark.kernels):
            specs.append((f"{name}/{index}/{spec.name}", spec))
    specs.append(("bench/0/bench_memory_stall", memory_stall_kernel()))
    return specs


def instruction_digest(programs: Iterable[Iterable]) -> str:
    """Digest of per-warp ``Instruction`` sequences (the reference path)."""
    digest = hashlib.sha256()
    pack = RECORD.pack
    for program in programs:
        program = list(program)
        digest.update(WARP_HEADER.pack(len(program)))
        digest.update(
            b"".join(
                pack(1, i.line_addr, i.dep_distance, i.pc) if i.is_load else pack(0, 0, 0, i.pc)
                for i in program
            )
        )
    return digest.hexdigest()


def program_digest(programs: Sequence) -> str:
    """The same digest computed from compact ``Program`` arrays."""
    import numpy as np

    record = np.dtype([("op", "u1"), ("line", "<u8"), ("dep", "<u8"), ("pc", "<u8")])
    digest = hashlib.sha256()
    for program in programs:
        length = len(program)
        digest.update(WARP_HEADER.pack(length))
        rows = np.zeros(length, dtype=record)
        loads = np.frombuffer(program.load_index, dtype=np.uint32).astype(np.int64)
        rows["op"][loads] = 1
        rows["line"][loads] = np.frombuffer(program.load_line, dtype=np.uint64)
        rows["dep"][loads] = np.frombuffer(program.load_dep, dtype=np.uint32)
        rows["pc"][loads] = np.frombuffer(program.load_pc, dtype=np.uint32)
        counts = np.frombuffer(program.alu_count, dtype=np.uint32).astype(np.int64)
        starts = np.frombuffer(program.alu_pc, dtype=np.uint32).astype(np.int64)
        if counts.size:
            # Run r covers ALU ordinals [first[r], first[r] + counts[r]); the
            # ALU slots are the non-load positions in stream order.
            first = np.repeat(np.cumsum(counts) - counts, counts)
            pcs = np.repeat(starts, counts) + np.arange(int(counts.sum())) - first
            alu_slots = np.ones(length, dtype=bool)
            alu_slots[loads] = False
            rows["pc"][alu_slots] = pcs
        digest.update(rows.tobytes())
    return digest.hexdigest()


def load_fixture() -> Dict[str, str]:
    return json.loads(FIXTURE_PATH.read_text())


def main() -> int:
    from repro.workloads.generator import generate_kernel_programs

    digests = {
        key: instruction_digest(generate_kernel_programs(spec)) for key, spec in pinned_specs()
    }
    FIXTURE_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {FIXTURE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
