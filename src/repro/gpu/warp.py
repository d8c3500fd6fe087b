"""Warp execution state.

A warp walks through its instruction stream one instruction per issue slot.
The only hazard modelled is the load/use dependency: every outstanding load
remembers its issue index and dependency distance, and the warp becomes
non-schedulable once its program counter would pass the first dependent
instruction of any outstanding load.  This is exactly the latency-tolerance
structure used by the paper's analytical model (Section V-A).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence

from repro.gpu.isa import Instruction

#: Sentinel for "no outstanding load blocks anything".
_NO_BLOCK = sys.maxsize


@dataclass(slots=True)
class OutstandingLoad:
    """Book-keeping for a load whose data has not yet returned.

    Slotted: the legacy core allocates one of these per missing load, and the
    differential fuzz loop runs the legacy oracle alongside the fast core, so
    the record stays lean.
    """

    token: int
    issue_index: int
    dep_distance: int
    issue_cycle: int

    @property
    def first_dependent_index(self) -> int:
        return self.issue_index + self.dep_distance + 1


@dataclass(slots=True)
class Warp:
    """Execution state of a single warp."""

    wid: int
    program: Sequence[Instruction]
    pc: int = 0
    outstanding: Dict[int, OutstandingLoad] = field(default_factory=dict)
    issued_instructions: int = 0
    exited: bool = False
    # Derived state (filled by __post_init__); declared as fields so the
    # dataclass can generate __slots__ for them.
    _program_len: int = field(init=False, repr=False, compare=False, default=0)
    _min_first_dep: int = field(init=False, repr=False, compare=False, default=_NO_BLOCK)
    _decoder: Optional[Iterator[Instruction]] = field(
        init=False, repr=False, compare=False, default=None
    )
    _current: Optional[Instruction] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if not self.program:
            self.exited = True
        self._program_len = len(self.program)
        # The smallest first-dependent index over all outstanding loads,
        # maintained incrementally so the per-cycle schedulability check is
        # O(1) instead of a scan of the outstanding-load table.
        self._min_first_dep = _NO_BLOCK
        self._start_decoder()

    def _start_decoder(self) -> None:
        # A warp walks its program strictly in order, so one iterator decodes
        # it: O(1) per instruction even on a compact Program, whose random
        # access is a binary search.
        self._decoder = iter(self.program) if not self.pc else islice(self.program, self.pc, None)
        self._current = next(self._decoder, None)

    @property
    def done(self) -> bool:
        """A warp retires once it has issued every instruction and all its
        loads have returned."""
        return self.exited or (self.pc >= self._program_len and not self.outstanding)

    @property
    def finished_issuing(self) -> bool:
        return self.pc >= self._program_len

    def current_instruction(self) -> Optional[Instruction]:
        if self.finished_issuing:
            return None
        return self._current

    def blocking_load(self) -> Optional[OutstandingLoad]:
        """Return the outstanding load (if any) whose dependent instruction
        is the one the warp is about to issue."""
        for pending in self.outstanding.values():
            if self.pc >= pending.first_dependent_index:
                return pending
        return None

    def is_schedulable(self) -> bool:
        """True when the warp can issue its next instruction this cycle."""
        if self.exited or self.pc >= self._program_len:
            return False
        return self.pc < self._min_first_dep

    def record_load_issue(self, token: int, dep_distance: int, cycle: int) -> None:
        self.outstanding[token] = OutstandingLoad(
            token=token,
            issue_index=self.pc,
            dep_distance=dep_distance,
            issue_cycle=cycle,
        )
        first_dep = self.pc + dep_distance + 1
        if first_dep < self._min_first_dep:
            self._min_first_dep = first_dep

    def advance(self) -> None:
        self.pc += 1
        self.issued_instructions += 1
        self._current = next(self._decoder, None)

    def complete_load(self, token: int) -> OutstandingLoad:
        try:
            pending = self.outstanding.pop(token)
        except KeyError:
            raise KeyError(f"warp {self.wid} has no outstanding load with token {token}")
        if pending.first_dependent_index <= self._min_first_dep:
            self._min_first_dep = (
                min(load.first_dependent_index for load in self.outstanding.values())
                if self.outstanding
                else _NO_BLOCK
            )
        return pending

    def reset(self) -> None:
        """Rewind the warp to its initial state (used by profiling sweeps)."""
        self.pc = 0
        self.outstanding.clear()
        self.issued_instructions = 0
        self.exited = not self.program
        self._min_first_dep = _NO_BLOCK
        self._start_decoder()


def make_warps(programs: Sequence[Sequence[Instruction]]) -> List[Warp]:
    """Build warps with ids matching their age order (0 is the oldest)."""
    return [Warp(wid=index, program=program) for index, program in enumerate(programs)]
