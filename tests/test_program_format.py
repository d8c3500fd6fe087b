"""The compact program format: pinned address streams and round trips.

* Every registry kernel (plus the memory-stall bench kernel) expands to the
  exact stream its per-instruction producer generated before the compact
  format existed — ``tests/data/program_digests.json`` pins one digest each.
* An arbitrary instruction list survives ``Program`` conversion, both
  through iteration and through random access.
* A trace written from a ``Program`` is byte-identical to one written from
  the equivalent instruction list.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from program_digests import (
    instruction_digest,
    load_fixture,
    pinned_specs,
    program_digest,
)
from repro.gpu.isa import Program, ProgramBuilder, alu, as_program, load
from repro.trace.codec import read_trace_programs, write_trace
from repro.workloads.generator import generate_kernel_programs
from repro.workloads.registry import get_benchmark

_alu = st.builds(alu, pc=st.integers(min_value=0, max_value=2**32 - 1))
_load = st.builds(
    load,
    st.integers(min_value=0, max_value=2**64 - 1),
    dep_distance=st.integers(min_value=0, max_value=2**16 - 1),
    pc=st.integers(min_value=0, max_value=2**32 - 1),
)
#: Sequential-PC ALU stretches, the shape the run compression targets.
_alu_run = st.builds(
    lambda start, count: [alu(pc) for pc in range(start, start + count)],
    st.integers(min_value=0, max_value=2**20),
    st.integers(min_value=1, max_value=12),
)
_stream = st.lists(
    st.one_of(_alu.map(lambda i: [i]), _load.map(lambda i: [i]), _alu_run), max_size=40
).map(lambda chunks: [instruction for chunk in chunks for instruction in chunk])


# ---------------------------------------------------------------------------
# Pinned address streams
# ---------------------------------------------------------------------------


def test_fixture_covers_every_registry_kernel():
    assert sorted(key for key, _ in pinned_specs()) == sorted(load_fixture())


def test_every_producer_expands_to_its_pinned_digest():
    fixture = load_fixture()
    drifted = [
        key
        for key, spec in pinned_specs()
        if program_digest(generate_kernel_programs(spec)) != fixture[key]
    ]
    assert drifted == []


@pytest.mark.parametrize("name", ["mm", "gather", "phasemix"])
def test_array_digest_matches_the_instruction_view(name):
    # The numpy digest reads the arrays; the reference digest walks the
    # per-instruction view.  Agreement checks both at once.
    programs = generate_kernel_programs(get_benchmark(name).kernels[0])
    assert program_digest(programs) == instruction_digest(programs)


# ---------------------------------------------------------------------------
# Program <-> instruction list
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(instructions=_stream)
def test_instruction_list_round_trips(instructions):
    program = as_program(instructions)
    assert len(program) == len(instructions)
    assert list(program) == instructions
    assert [program[index] for index in range(len(program))] == instructions
    assert program == instructions and instructions == program
    assert program.loads == sum(1 for i in instructions if i.is_load)
    # Canonical form: rebuilding from the expanded view changes nothing.
    assert as_program(list(program))._state() == program._state()
    assert pickle.loads(pickle.dumps(program)) == program


def test_builder_merges_only_contiguous_runs_between_loads():
    builder = ProgramBuilder()
    builder.alu_run(3, 10)
    builder.alu_run(2, 13)  # continues 10..12: merged
    builder.alu_run(1, 20)  # a PC jump: a new run
    builder.load(7, 1, 99)
    builder.alu_run(2, 21)  # the load closed the run
    program = builder.build()
    assert list(program.alu_count) == [5, 1, 2]
    assert list(program.alu_pc) == [10, 20, 21]
    assert list(program.load_index) == [6]
    assert program[-1] == alu(22) and program[6] == load(7, 1, 99)


def test_out_of_range_fields_are_rejected():
    with pytest.raises(ValueError, match="compact layout"):
        as_program([alu(pc=-1)])
    with pytest.raises(ValueError, match="compact layout"):
        as_program([load(2**64, pc=0)])
    with pytest.raises(ValueError, match="add up"):
        Program(3, [0], [5], [0], [0], [1], [0])


def test_programs_are_shared_not_copied():
    spec = get_benchmark("mm").kernels[0]
    first, second = generate_kernel_programs(spec), generate_kernel_programs(spec)
    assert all(a is b for a, b in zip(first, second))


# ---------------------------------------------------------------------------
# Trace bytes
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(programs=st.lists(_stream, max_size=4))
def test_trace_from_program_equals_trace_from_instructions(tmp_path_factory, programs):
    directory = tmp_path_factory.mktemp("format")
    from_lists = write_trace(directory / "lists.trc", programs, meta={"kernel": "k"})
    from_programs = write_trace(
        directory / "programs.trc", [as_program(p) for p in programs], meta={"kernel": "k"}
    )
    assert from_lists == from_programs
    assert (directory / "lists.trc").read_bytes() == (directory / "programs.trc").read_bytes()
    assert read_trace_programs(directory / "programs.trc") == programs


def _reference_payload_hash(programs, meta) -> str:
    """The POISETRC payload hash, encoded instruction by instruction the way
    the per-instruction writer did: sequential-PC ALU stretches collapse
    into one record, a single ALU into an ``ALU`` record."""
    import hashlib
    import json
    import struct

    payload = bytearray()
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload += struct.pack("<8sHHI", b"POISETRC", 1, 0, len(blob)) + blob
    payload += struct.pack("<I", len(programs))

    def flush(start, length):
        if length == 1:
            payload.extend(b"\x01" + struct.pack("<I", start))
        elif length > 1:
            payload.extend(b"\x03" + struct.pack("<II", length, start))

    for warp_id, program in enumerate(programs):
        payload += b"\xa0" + struct.pack("<I", warp_id)
        start = length = 0
        for instruction in program:
            if instruction.is_load:
                flush(start, length)
                length = 0
                payload += b"\x02" + struct.pack(
                    "<IHQ", instruction.pc, instruction.dep_distance, instruction.line_addr
                )
            elif length and instruction.pc == start + length:
                length += 1
            else:
                flush(start, length)
                start, length = instruction.pc, 1
        flush(start, length)
        payload += b"\xaf"
    payload += b"\xee"
    return hashlib.sha256(bytes(payload)).hexdigest()


@settings(max_examples=40, deadline=None)
@given(programs=st.lists(_stream, max_size=4))
def test_trace_hash_matches_the_per_instruction_encoding(tmp_path_factory, programs):
    meta = {"kernel": "k", "instruction_counts": [len(p) for p in programs]}
    path = tmp_path_factory.mktemp("reference") / "t.trc"
    assert write_trace(path, [as_program(p) for p in programs], meta=meta) == (
        _reference_payload_hash(programs, meta)
    )
