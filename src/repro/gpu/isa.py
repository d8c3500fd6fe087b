"""A two-operation ISA sufficient to express the paper's execution model.

Only two behaviours matter for the TLP / memory-system trade-off Poise
studies:

* ``ALU`` — an instruction that keeps the SM's functional units busy for one
  issue slot and never stalls the warp.
* ``LOAD`` — a global memory load of one (fully coalesced) cache line.  Each
  load carries ``dep_distance``: the number of subsequent instructions in the
  same warp that are independent of the load.  The instruction at
  ``issue_index + dep_distance + 1`` uses the loaded value, so the warp stalls
  there until the load returns (the ``Id`` quantity of the analytical model).

A warp's stream is a :class:`Program`: typed arrays of its load records plus
its ALU instructions as ``(count, pc_start)`` runs — the run compression the
POISETRC trace codec writes.  A program is also a read-only
``Sequence[Instruction]`` whose items are built on demand, so the legacy
oracle, trace capture and cache-policy hooks keep a per-instruction view.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Iterator, Optional, Sequence, Tuple


class Opcode(Enum):
    ALU = "alu"
    LOAD = "load"


@dataclass(frozen=True, slots=True)
class Instruction:
    """One warp-wide instruction.

    Attributes:
        opcode: the operation class.
        line_addr: cache-line address touched by a LOAD (``None`` for ALU).
        dep_distance: for LOADs, the number of following independent
            instructions before the first use of the loaded value.
        pc: a static program-counter tag used by instruction-based cache
            management policies (e.g. the APCM baseline).
    """

    opcode: Opcode
    line_addr: Optional[int] = None
    dep_distance: int = 0
    pc: int = 0

    def __post_init__(self) -> None:
        if self.opcode is Opcode.LOAD and self.line_addr is None:
            raise ValueError("LOAD instructions require a line address")
        if self.opcode is Opcode.ALU and self.line_addr is not None:
            raise ValueError("ALU instructions must not carry an address")
        if self.dep_distance < 0:
            raise ValueError("dep_distance must be non-negative")

    @property
    def is_load(self) -> bool:
        return self.opcode is Opcode.LOAD


def alu(pc: int = 0) -> Instruction:
    """Convenience constructor for an ALU instruction."""
    return Instruction(Opcode.ALU, pc=pc)


def load(line_addr: int, dep_distance: int = 0, pc: int = 0) -> Instruction:
    """Convenience constructor for a LOAD instruction."""
    return Instruction(Opcode.LOAD, line_addr=line_addr, dep_distance=dep_distance, pc=pc)


#: ALU instructions depend on their PC alone and are immutable, so the
#: per-instruction view of a program shares them.
_shared_alu = lru_cache(maxsize=1 << 16)(alu)

_new_instruction = object.__new__
_set_opcode, _set_line, _set_dep, _set_pc = (
    Instruction.__dict__[name].__set__ for name in ("opcode", "line_addr", "dep_distance", "pc")
)


def _decoded_load(line_addr: int, dep_distance: int, pc: int) -> Instruction:
    """A LOAD read back from program arrays, which hold only valid fields:
    its slots are set directly, skipping the frozen-dataclass checks (the
    legacy oracle decodes every load it issues this way)."""
    instruction = _new_instruction(Instruction)
    _set_opcode(instruction, Opcode.LOAD)
    _set_line(instruction, line_addr)
    _set_dep(instruction, dep_distance)
    _set_pc(instruction, pc)
    return instruction


class Program(Sequence):
    """One warp's immutable instruction stream in compact form.

    ``load_index`` / ``load_line`` / ``load_dep`` / ``load_pc`` are parallel
    typed arrays, one entry per LOAD in issue order; ``alu_count`` /
    ``alu_pc`` hold the ALU instructions as maximal runs of sequential PCs,
    filling the slots between loads in order.  Line addresses are unsigned
    64-bit; indices, dependency distances and PCs unsigned 32-bit (the trace
    codec's PC range).  Build programs with :class:`ProgramBuilder` or
    :func:`as_program`; equal streams have equal arrays.
    """

    __slots__ = (
        "length", "load_index", "load_line", "load_dep", "load_pc",
        "alu_count", "alu_pc", "_alu_first",
    )

    def __init__(self, length: int, load_index, load_line, load_dep, load_pc,
                 alu_count, alu_pc) -> None:
        try:
            self.load_index = array("I", load_index)
            self.load_line = array("Q", load_line)
            self.load_dep = array("I", load_dep)
            self.load_pc = array("I", load_pc)
            self.alu_count = array("I", alu_count)
            self.alu_pc = array("I", alu_pc)
        except OverflowError as error:
            raise ValueError(
                "program fields must fit the compact layout (unsigned 32-bit indices, "
                f"distances and PCs; unsigned 64-bit lines): {error}"
            ) from None
        if len(self.load_index) + sum(self.alu_count) != length:
            raise ValueError("loads and ALU runs do not add up to the program length")
        self.length = length
        self._alu_first = None  # cumulative ALU ordinal per run, built on demand

    @property
    def loads(self) -> int:
        return len(self.load_index)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, index: int) -> Instruction:
        if index < 0:
            index += self.length
        if not 0 <= index < self.length:
            raise IndexError("program index out of range")
        k = bisect_left(self.load_index, index)
        if k < len(self.load_index) and self.load_index[k] == index:
            return _decoded_load(self.load_line[k], self.load_dep[k], self.load_pc[k])
        if self._alu_first is None:
            self._alu_first = array("I", accumulate(self.alu_count, initial=0))
        ordinal = index - k  # ALU instructions before this slot
        run = bisect_right(self._alu_first, ordinal) - 1
        return _shared_alu(self.alu_pc[run] + ordinal - self._alu_first[run])

    def records(self) -> Iterator[Tuple[Optional[int], int, int, int]]:
        """The stream as records in order: ``(line, dep, pc, 1)`` per load
        and ``(None, 0, pc_start, count)`` per ALU run."""
        runs = zip(self.alu_count, self.alu_pc)
        position = 0
        for index, line, dep, pc in zip(self.load_index, self.load_line, self.load_dep,
                                        self.load_pc):
            while position < index:  # runs never straddle a load
                count, start = next(runs)
                yield None, 0, start, count
                position += count
            yield line, dep, pc, 1
            position += 1
        for count, start in runs:
            yield None, 0, start, count

    def __iter__(self) -> Iterator[Instruction]:
        for line, dep, pc, count in self.records():
            if line is None:
                yield from map(_shared_alu, range(pc, pc + count))
            else:
                yield _decoded_load(line, dep, pc)

    def __eq__(self, other) -> bool:
        if isinstance(other, Program):
            return self._state() == other._state()
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return self.length == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None  # compared by content, like a list

    def _state(self) -> tuple:
        return (self.length, self.load_index, self.load_line, self.load_dep, self.load_pc,
                self.alu_count, self.alu_pc)

    def __repr__(self) -> str:
        return f"Program(length={self.length}, loads={self.loads}, alu_runs={len(self.alu_count)})"


class ProgramBuilder:
    """Appends one warp's instructions in stream order, then freezes them.

    ``alu_run(count, pc_start)`` extends the previous run when no load came
    between and the PCs continue it, so every producer yields the same
    canonical arrays for the same stream.
    """

    __slots__ = ("length", "_index", "_line", "_dep", "_pc", "_count", "_start", "_open")

    def __init__(self) -> None:
        self.length = 0
        self._index, self._line, self._dep, self._pc = [], [], [], []
        self._count, self._start = [], []
        self._open = False  # the last record is an ALU run

    def load(self, line_addr: int, dep_distance: int, pc: int) -> None:
        self._index.append(self.length)
        self._line.append(line_addr)
        self._dep.append(dep_distance)
        self._pc.append(pc)
        self.length += 1
        self._open = False

    def alu_run(self, count: int, pc_start: int) -> None:
        if count <= 0:
            return
        if self._open and self._start[-1] + self._count[-1] == pc_start:
            self._count[-1] += count
        else:
            self._count.append(count)
            self._start.append(pc_start)
            self._open = True
        self.length += count

    def build(self) -> Program:
        return Program(self.length, self._index, self._line, self._dep, self._pc,
                       self._count, self._start)


def as_program(instructions: Iterable[Instruction]) -> Program:
    """``instructions`` itself when already a Program, else its compact form."""
    if isinstance(instructions, Program):
        return instructions
    builder = ProgramBuilder()
    for instruction in instructions:
        if instruction.is_load:
            builder.load(instruction.line_addr, instruction.dep_distance, instruction.pc)
        else:
            builder.alu_run(1, instruction.pc)
    return builder.build()
