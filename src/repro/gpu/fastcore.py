"""Struct-of-arrays fast simulator core.

The legacy :class:`~repro.gpu.sm.StreamingMultiprocessor` walks per-warp
Python objects — ``Warp`` dataclasses, ``CacheLine`` instances, MSHR entry
objects — one instruction at a time, paying an attribute lookup (or an
object allocation) for every event.  On a single core that cost is the
binding constraint on how many scenarios the reproduction can afford to
sweep.

This module re-implements the *same* cycle loop over flat, preallocated
state:

* **warps** become parallel arrays indexed by warp id: ``pc``, program
  length, the incrementally maintained minimum first-dependent index, one
  pending-load dict (token → ``(first_dep, issue_cycle)``) per warp, and an
  alive flag;
* **programs** are the shared, never-copied compact
  :class:`~repro.gpu.isa.Program` arrays.  A per-warp load cursor holds the
  ordinal of the next load and its instruction index, so an ALU burst is
  bounded by one lookup and a load reads its line and dependency distance
  straight from the arrays — no instruction object is built unless a trace
  capture or cache policy asks for one;
* **the L1** becomes three flat lists (``tag``, ``lru_stamp``,
  ``last_warp``) of length ``num_sets * assoc``; a line is invalid iff its
  stamp is 0, which preserves the legacy victim order exactly (invalid
  ways first, then strict LRU, first way wins ties);
* **the MSHR file** becomes a set of in-flight line addresses (capacity
  check is a ``len()``) plus the per-line waiter lists already shared with
  the response heap;
* **the GTO/SWL vital state** becomes two flag lists plus an age-ordered
  vital id list, refreshed exactly where the legacy scheduler refreshes.

The whole ``deliver → pick → issue`` step is fused into one function with
every piece of mutable state bound to locals; runs of consecutive ALU
instructions issue as a single batched update (provably equivalent: an ALU
issue changes nothing but ``pc``, the cycle counter and three counters, so
``k`` sticky ALU issues commute with the loop as long as no response is due
and the warp stays schedulable — both of which bound ``k``).

Dead cycles advance to a **next-event horizon**, ``min(next MSHR fill,
run limit)``, in one jump.  Two dead-cycle classes qualify:

* the *no-ready stall*: no vital warp can issue, credited to
  ``stall_cycles``;
* the *MSHR-full retry*: the GTO pick lands on a warp whose next load would
  miss while every MSHR entry is in flight, so the slot is wasted and the
  warp retries.  On a saturated memory system this is almost every cycle.

Until the completion-heap head is due nothing a retry observes can move: no
response is delivered, so no MSHR entry, outstanding load or
min-first-dependent horizon changes; ``pick`` is deterministic over that
frozen state, so it returns the same warp with the same blocked load every
cycle; and the blocked path mutates nothing (the legacy oracle rolls back
its ``instructions`` increment and touches neither the L1 nor the MSHR
file).  Every cycle of the span is therefore an identical MSHR-stall cycle,
and ``cycles``, ``busy_cycles`` and ``mshr_stall_cycles`` advance by the
span length exactly as if ticked.  Jumps never cross ``limit``, so a
controller window boundary (``run_cycles`` / ``snapshot`` /
``set_warp_tuple``) and the chip's quantum grid see bit-identical
per-window counter deltas.

The span ledger records how the clock moved: ``jumped_cycles`` (dead cycles
advanced in ``jump_spans`` jumps) plus ``ticked_cycles`` (cycles advanced by
issuing work) always equals ``counters.cycles``.

Bit-identity with the legacy core — every counter, every cycle — is pinned
by the golden-counter fixtures, the N-way conformance harness
(``tests/engine_conformance.py``) and the differential Hypothesis suite in
``tests/test_fastcore_differential.py``.
"""

from __future__ import annotations

import heapq
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.gpu.config import GPUConfig
from repro.gpu.counters import PerfCounters
from repro.gpu.isa import Instruction, Program, as_program, load
from repro.gpu.reuse import ReuseDistanceTracker
from repro.gpu.sm import CacheManagementPolicy

#: Sentinel for "no outstanding load blocks anything" (mirrors warp.py).
_NO_BLOCK = sys.maxsize
#: Sentinel for "no memory response in flight".
_NO_RESPONSE = sys.maxsize


class FastMemorySubsystem:
    """Struct-of-arrays mirror of :class:`repro.gpu.memory.MemorySubsystem`.

    Replicates the busy-server queueing arithmetic *operation for operation*
    (same float products, same ``max``/``min`` clamps, same ``int()``
    truncation) and the L2's LRU/allocation behaviour over flat tag/stamp
    lists, so completion cycles are bit-identical to the legacy model —
    without a ``MemoryResponse`` allocation or a ``CacheLine`` walk per
    request.  ``request`` returns ``(completion_cycle, served_by_l2)``.
    """

    __slots__ = (
        "config",
        "_nsets",
        "_assoc",
        "_tags",
        "_stamps",
        "_access_counter",
        "_hash_indexing",
        "_index_memo",
        "_l2_busy_until",
        "_dram_busy_until",
        "l2_accesses",
        "l2_hits",
        "dram_accesses",
        "total_latency",
        "requests",
    )

    def __init__(self, config) -> None:
        self.config = config
        l2 = config.l2
        self._nsets = l2.num_sets
        self._assoc = l2.assoc
        size = self._nsets * self._assoc
        self._tags: List[int] = [-1] * size
        self._stamps: List[int] = [0] * size  # 0 == invalid way
        self._access_counter = 0
        self._hash_indexing = l2.indexing == "hash"
        self._index_memo: Dict[int, int] = {}
        self._l2_busy_until = 0.0
        self._dram_busy_until = 0.0
        self.l2_accesses = 0
        self.l2_hits = 0
        self.dram_accesses = 0
        self.total_latency = 0
        self.requests = 0

    def request(self, line_addr: int, cycle: int, warp_id: int) -> Tuple[int, bool]:
        cfg = self.config
        self.requests += 1
        self.l2_accesses += 1

        l2_start = self._l2_busy_until
        if l2_start < cycle:
            l2_start = float(cycle)
        queue_delay = l2_start - cycle
        if queue_delay > cfg.max_queue_delay:
            queue_delay = cfg.max_queue_delay
        self._l2_busy_until = l2_start + cfg.l2_service_interval * cfg.congestion_factor

        # L2 lookup (always allocating), fused probe+fill like the L1 path.
        if self._hash_indexing and self._nsets > 1:
            sidx = self._index_memo.get(line_addr)
            if sidx is None:
                folded = line_addr
                sidx = 0
                nsets = self._nsets
                while folded:
                    sidx ^= folded % nsets
                    folded //= nsets
                sidx %= nsets
                self._index_memo[line_addr] = sidx
        else:
            # Single-set caches skip the fold (it cannot terminate for
            # nsets == 1) — the index is 0 either way.
            sidx = line_addr % self._nsets
        assoc = self._assoc
        base = sidx * assoc
        tags = self._tags
        stamps = self._stamps
        self._access_counter += 1
        hit = False
        for way in range(base, base + assoc):
            if tags[way] == line_addr:
                stamps[way] = self._access_counter
                hit = True
                break
        if hit:
            self.l2_hits += 1
            latency = int(cfg.l2_latency + queue_delay)
            self.total_latency += latency
            return cycle + latency, True

        vic = base
        best = stamps[base]
        if best:
            for way in range(base + 1, base + assoc):
                s = stamps[way]
                if s < best:
                    vic = way
                    best = s
                    if not s:
                        break
        tags[vic] = line_addr
        stamps[vic] = self._access_counter

        dram_start = l2_start + cfg.l2_latency
        if dram_start < self._dram_busy_until:
            dram_start = self._dram_busy_until
        dram_queue_delay = dram_start - (cycle + cfg.l2_latency)
        if dram_queue_delay > cfg.max_queue_delay:
            dram_queue_delay = cfg.max_queue_delay
        self._dram_busy_until = dram_start + cfg.dram_service_interval * cfg.congestion_factor

        self.dram_accesses += 1
        latency = int(cfg.l2_latency + queue_delay + cfg.dram_latency + dram_queue_delay)
        self.total_latency += latency
        return cycle + latency, False

    # -- derived statistics (API parity with MemorySubsystem) -------------------

    @property
    def l2_hit_rate(self) -> float:
        return self.l2_hits / self.l2_accesses if self.l2_accesses else 0.0

    @property
    def average_latency(self) -> float:
        return self.total_latency / self.requests if self.requests else 0.0


class FastStreamingMultiprocessor:
    """Drop-in replacement for the legacy SM with struct-of-arrays state.

    Exposes the same public surface the controllers and the profiler use:
    ``config``, ``warps`` (length = launched warps), ``counters``, ``cycle``,
    ``done``, ``warp_tuple``, ``set_warp_tuple``, ``snapshot``,
    ``run_cycles``, ``run_to_completion``, ``reuse_tracker``,
    ``cache_policy`` and ``trace_capture`` — plus the span ledger
    (``jumped_cycles``, ``jump_spans``, ``ticked_cycles``).
    """

    def __init__(
        self,
        config: GPUConfig,
        programs: Sequence[Sequence[Instruction]],
        cache_policy: Optional[CacheManagementPolicy] = None,
        trace_capture=None,
        memory: Optional[FastMemorySubsystem] = None,
    ) -> None:
        if len(programs) > config.sm.max_warps:
            raise ValueError(
                f"kernel launches {len(programs)} warps but the scheduler supports "
                f"{config.sm.max_warps}"
            )
        self.config = config
        #: Shared per-warp programs (plain instruction lists are converted
        #: once here).  ``len(sm.warps)`` is part of the controller protocol.
        self.warps: Tuple[Program, ...] = tuple(as_program(program) for program in programs)
        num_warps = len(self.warps)

        # -- warp state (struct of arrays, indexed by warp id) -----------------
        self._pcs: List[int] = [0] * num_warps
        self._plens: List[int] = [len(program) for program in self.warps]
        #: Load cursor: the ordinal of each warp's next load to issue and that
        #: load's instruction index (the program length once all have issued).
        self._lcur: List[int] = [0] * num_warps
        self._next_load: List[int] = [
            program.load_index[0] if program.loads else len(program) for program in self.warps
        ]
        self._minfd: List[int] = [_NO_BLOCK] * num_warps
        self._outstanding: List[Dict[int, Tuple[int, int]]] = [
            {} for _ in range(num_warps)
        ]
        self._alive: List[bool] = [length > 0 for length in self._plens]
        self._unfinished = sum(self._alive)
        #: ``ready[wid]`` caches ``is_schedulable`` (pc < plen and pc < minfd);
        #: maintained incrementally at the few points either input changes, so
        #: a stalled cycle costs one counter test instead of a vital-list scan.
        self._ready: List[bool] = [length > 0 for length in self._plens]
        self._ready_vital = 0

        # -- scheduler state (vital/pollute bits over the GTO order) -----------
        self._max_warps = config.sm.max_warps
        self._n = self._max_warps
        self._p = self._max_warps
        self._vital_flags: List[bool] = [False] * num_warps
        self._pollute_flags: List[bool] = [False] * num_warps
        self._vital_list: List[int] = []
        self._last = -1
        self._refresh_bits()

        # -- L1 state (flat tag/LRU/last-warp arrays) --------------------------
        l1 = config.l1
        self._nsets = l1.num_sets
        self._assoc = l1.assoc
        size = self._nsets * self._assoc
        self._l1_tags: List[int] = [-1] * size
        self._l1_stamps: List[int] = [0] * size  # 0 == invalid way
        self._l1_lastw: List[int] = [-1] * size
        self._l1_access_counter = 0
        # A single-set cache skips the XOR-fold entirely (the fold cannot
        # terminate for num_sets == 1, and the index is 0 regardless).
        self._hash_indexing = l1.indexing == "hash" and self._nsets > 1
        self._index_memo: Dict[int, int] = {}

        # -- MSHR / memory ----------------------------------------------------
        self._mshr_capacity = l1.mshr_entries
        self._mshr_lines: set = set()
        # ``memory`` lets a chip model (repro.gpu.chip) share one L2/DRAM
        # busy-server pair across SMs; standalone SMs own a private one.
        self.memory = memory if memory is not None else FastMemorySubsystem(config.memory)

        # -- bookkeeping -------------------------------------------------------
        self.counters = PerfCounters()
        self.cycle = 0
        self._next_token = 0
        # (completion_cycle, sequence, line_addr, [(warp_id, token), ...])
        self._responses: List[Tuple[int, int, int, List[Tuple[int, int]]]] = []
        self._response_seq = 0
        self._response_waiters: Dict[int, List[Tuple[int, int]]] = {}
        self.cache_policy = cache_policy or CacheManagementPolicy()
        # The base-class hooks are no-ops; skipping them entirely keeps the
        # hot loop free of two Python calls per load without changing state.
        self._policy_active = type(self.cache_policy) is not CacheManagementPolicy
        self.reuse_tracker = (
            ReuseDistanceTracker() if config.track_reuse_distance else None
        )
        self.trace_capture = trace_capture

        # -- span ledger (jumped_cycles + ticked_cycles == counters.cycles) ---
        #: Dead cycles advanced in one-jump spans (stall + MSHR retry).
        self.jumped_cycles = 0
        #: Number of jumps taken (each ≥ 1 cycle).
        self.jump_spans = 0
        #: Cycles advanced by issuing work (ALU batches count their length).
        self.ticked_cycles = 0

    # -- public control -----------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._unfinished == 0

    @property
    def warp_tuple(self) -> Tuple[int, int]:
        return self._n, self._p

    def set_warp_tuple(self, n: int, p: int) -> None:
        n = max(1, min(int(n), self._max_warps))
        p = max(1, min(int(p), n))
        self._n, self._p = n, p
        self._refresh_bits()

    def snapshot(self) -> PerfCounters:
        """Snapshot the counters for window (epoch) sampling."""
        return self.counters.copy()

    def run_cycles(self, budget: int) -> int:
        """Run for up to ``budget`` cycles (or until the kernel finishes)."""
        start = self.cycle
        self._run(self.cycle + budget)
        return self.cycle - start

    def run_to_completion(self, max_cycles: Optional[int] = None) -> int:
        limit = self.cycle + (
            max_cycles if max_cycles is not None else self.config.max_cycles
        )
        self._run(limit)
        return self.cycle

    # -- scheduler bits -----------------------------------------------------------

    def _refresh_bits(self) -> None:
        """Recompute the vital/pollute bits over the active warps, oldest
        first — called exactly where the legacy scheduler refreshes (init,
        warp-tuple change, warp exit)."""
        alive = self._alive
        vital = self._vital_flags
        pollute = self._pollute_flags
        n, p = self._n, self._p  # p <= n is enforced by set_warp_tuple
        for wid in range(len(alive)):
            vital[wid] = False
            pollute[wid] = False
        vital_list: List[int] = []
        count = 0
        for wid in range(len(alive)):
            if not alive[wid]:
                continue
            vital_list.append(wid)
            vital[wid] = True
            if count < p:
                pollute[wid] = True
            count += 1
            if count >= n:
                break
        self._vital_list = vital_list
        ready = self._ready
        ready_vital = 0
        for wid in vital_list:
            if ready[wid]:
                ready_vital += 1
        self._ready_vital = ready_vital

    # -- the fused cycle loop -----------------------------------------------------

    def _run(self, limit: int) -> None:
        cycle = self.cycle
        unfinished = self._unfinished
        if cycle >= limit or not unfinished:
            return

        # ---- counter accumulators (flushed to self.counters on exit) --------
        cycles_c = busy_c = stall_c = instr_c = loads_c = 0
        l1_acc = l1_hit = l1_miss = l1_byp = 0
        pol_acc = pol_hit = npol_acc = npol_hit = 0
        intra_c = inter_c = 0
        missreq_c = misslat_c = 0
        l2_acc = l2_hit = dram_c = 0
        mshr_stall = 0
        jumped = spans = ticked = 0

        # ---- state bound to locals ------------------------------------------
        pcs = self._pcs
        plens = self._plens
        lcur = self._lcur
        next_load = self._next_load
        minfd = self._minfd
        outstanding = self._outstanding
        alive = self._alive
        vital = self._vital_flags
        pollute = self._pollute_flags
        vital_list = self._vital_list
        ready = self._ready
        ready_vital = self._ready_vital
        last = self._last
        progs = self.warps
        tags = self._l1_tags
        stamps = self._l1_stamps
        lastw = self._l1_lastw
        acc_counter = self._l1_access_counter
        nsets = self._nsets
        assoc = self._assoc
        hash_indexing = self._hash_indexing
        index_memo = self._index_memo
        mshr_lines = self._mshr_lines
        mshr_cap = self._mshr_capacity
        responses = self._responses
        waiters_map = self._response_waiters
        seq = self._response_seq
        next_token = self._next_token
        memory_request = self.memory.request
        reuse = self.reuse_tracker
        reuse_record = reuse.record if reuse is not None else None
        policy_active = self._policy_active
        allow_allocate = self.cache_policy.allow_allocate if policy_active else None
        observe_access = self.cache_policy.observe_access if policy_active else None
        tc = self.trace_capture
        tc_record = tc.record if tc is not None else None
        hooked = policy_active or tc_record is not None
        heappush = heapq.heappush
        heappop = heapq.heappop
        refresh = self._refresh_bits

        next_completion = responses[0][0] if responses else _NO_RESPONSE

        # Per-warp row cache: GTO is sticky, so consecutive issues almost
        # always come from the same warp and the row locals stay hot.
        cur = -1
        prog_w: Optional[Program] = None
        lidx_w = lline_w = ldep_w = None
        plen_w = 0
        out_w: Dict[int, Tuple[int, int]] = {}

        while cycle < limit and unfinished:
            # ---- deliver memory responses due this cycle --------------------
            while next_completion <= cycle:
                completion, _, line, waiters = heappop(responses)
                del waiters_map[line]
                for wid, token in waiters:
                    out = outstanding[wid]
                    fd, issue_cycle = out.pop(token)
                    # Each waiter is charged its own latency: merged loads
                    # issue later than the primary, so their round trip is
                    # shorter.
                    missreq_c += 1
                    misslat_c += completion - issue_cycle
                    if fd <= minfd[wid]:
                        new_min = _NO_BLOCK
                        for pending in out.values():
                            first_dep = pending[0]
                            if first_dep < new_min:
                                new_min = first_dep
                        minfd[wid] = new_min
                    pc = pcs[wid]
                    if not out and pc >= plens[wid]:
                        alive[wid] = False
                        unfinished -= 1
                        refresh()
                        vital_list = self._vital_list
                        ready_vital = self._ready_vital
                    elif (
                        not ready[wid] and pc < plens[wid] and pc < minfd[wid]
                    ):
                        # The raised min-first-dependent unblocked the warp.
                        ready[wid] = True
                        if vital[wid]:
                            ready_vital += 1
                mshr_lines.discard(line)
                next_completion = responses[0][0] if responses else _NO_RESPONSE

            # ---- pick a warp (greedy-then-oldest over the vital list) -------
            if not ready_vital:
                # No vital warp can issue: jump to the horizon.
                if responses:
                    target = next_completion if next_completion < limit else limit
                    skipped = target - cycle
                    if skipped < 1:
                        skipped = 1
                else:
                    skipped = 1
                cycle += skipped
                cycles_c += skipped
                stall_c += skipped
                jumped += skipped
                spans += 1
                continue
            if last >= 0 and vital[last] and ready[last]:
                wid = last
            else:
                wid = -1
                for cand in vital_list:
                    if ready[cand]:
                        wid = cand
                        last = cand
                        break
            pc = pcs[wid]

            if wid != cur:
                cur = wid
                prog_w = progs[wid]
                lidx_w = prog_w.load_index
                lline_w = prog_w.load_line
                ldep_w = prog_w.load_dep
                plen_w = plens[wid]
                out_w = outstanding[wid]

            npc = next_load[wid]
            if pc < npc:
                # ---- ALU burst: issue every consecutive sticky ALU slot -----
                # Bounds: the next load (the program length once none is
                # left), the warp must stay schedulable (pc < minfd), no
                # response may become due (cycle < next_completion) and the
                # budget holds (cycle < limit).  Within those bounds each step
                # is exactly one legacy ALU issue.
                if minfd[wid] < npc:
                    npc = minfd[wid]
                bound = pc + (limit - cycle)
                if bound < npc:
                    npc = bound
                bound = pc + (next_completion - cycle)
                if bound < npc:
                    npc = bound
                k = npc - pc
                pcs[wid] = npc
                instr_c += k
                cycle += k
                cycles_c += k
                busy_c += k
                ticked += k
                if tc_record is not None:
                    for index in range(pc, npc):
                        tc_record(wid, prog_w[index])
                if npc >= plen_w or npc >= minfd[wid]:
                    ready[wid] = False
                    if vital[wid]:
                        ready_vital -= 1
                if npc >= plen_w and not out_w:
                    alive[wid] = False
                    unfinished -= 1
                    refresh()
                    vital_list = self._vital_list
                    ready_vital = self._ready_vital
                last = wid
                continue

            # ---- load issue (single fused set walk) -------------------------
            lc = lcur[wid]
            line = lline_w[lc]
            if hooked:
                inst = load(line, ldep_w[lc], prog_w.load_pc[lc])
            polluting = pollute[wid]
            if policy_active:
                allocate = polluting and allow_allocate(inst, wid)
            else:
                allocate = polluting
            if hash_indexing:
                sidx = index_memo.get(line)
                if sidx is None:
                    folded = line
                    sidx = 0
                    while folded:
                        sidx ^= folded % nsets
                        folded //= nsets
                    sidx %= nsets
                    index_memo[line] = sidx
            else:
                # ``hash_indexing`` is pre-cleared for nsets == 1 (the fold
                # would not terminate); the modulo is 0 there either way.
                sidx = line % nsets
            base = sidx * assoc
            hit_way = -1
            for way in range(base, base + assoc):
                if tags[way] == line:
                    hit_way = way
                    break

            if (
                hit_way < 0
                and line not in mshr_lines
                and len(mshr_lines) >= mshr_cap
            ):
                # ---- MSHR-retry span: jump to the horizon -------------------
                # Structural hazard: a would-be miss with no MSHR entry (new
                # or merged) wastes the slot, and every retry until the next
                # fill is identical (see the module docstring).  This needs
                # the policy's ``allow_allocate`` to be an idempotent query:
                # the oracle asks it every retry, this loop once per span.
                # ``mshr_lines`` non-empty guarantees a response is in
                # flight, so ``next_completion`` is real.
                target = next_completion if next_completion < limit else limit
                k = target - cycle
                if k < 1:
                    k = 1
                mshr_stall += k
                cycle += k
                cycles_c += k
                busy_c += k
                jumped += k
                spans += 1
                continue

            instr_c += 1
            loads_c += 1
            l1_acc += 1
            if polluting:
                pol_acc += 1
            else:
                npol_acc += 1
            if reuse_record is not None:
                reuse_record(wid, line)
            if policy_active:
                observe_access(inst, wid, hit_way >= 0)
            acc_counter += 1
            npc = pc + 1
            pcs[wid] = npc
            if hit_way >= 0:
                l1_hit += 1
                if polluting:
                    pol_hit += 1
                else:
                    npol_hit += 1
                if lastw[hit_way] == wid:
                    intra_c += 1
                else:
                    inter_c += 1
                lastw[hit_way] = wid
                stamps[hit_way] = acc_counter
            else:
                l1_miss += 1
                if allocate:
                    # LRU victim: invalid ways carry stamp 0 (< any valid
                    # stamp), ties resolve to the lowest way — the same
                    # order as the legacy ``min`` over (valid, stamp).
                    vic = base
                    best = stamps[base]
                    if best:
                        for way in range(base + 1, base + assoc):
                            s = stamps[way]
                            if s < best:
                                vic = way
                                best = s
                                if not s:
                                    break
                    tags[vic] = line
                    lastw[vic] = wid
                    stamps[vic] = acc_counter
                else:
                    l1_byp += 1
                token = next_token
                next_token += 1
                fd = pc + ldep_w[lc] + 1
                out_w[token] = (fd, cycle)
                if fd < minfd[wid]:
                    minfd[wid] = fd
                if line in mshr_lines:
                    # Merged miss: attach to the in-flight response.
                    waiters_map[line].append((wid, token))
                else:
                    mshr_lines.add(line)
                    completion, served_by_l2 = memory_request(line, cycle, wid)
                    l2_acc += 1
                    if served_by_l2:
                        l2_hit += 1
                    else:
                        dram_c += 1
                    seq += 1
                    entry_waiters = [(wid, token)]
                    waiters_map[line] = entry_waiters
                    heappush(responses, (completion, seq, line, entry_waiters))
                    if completion < next_completion:
                        next_completion = completion
            if tc_record is not None:
                tc_record(wid, inst)
            lc += 1
            lcur[wid] = lc
            next_load[wid] = lidx_w[lc] if lc < len(lidx_w) else plen_w
            if npc >= plen_w or npc >= minfd[wid]:
                ready[wid] = False
                if vital[wid]:
                    ready_vital -= 1
            if npc >= plen_w and not out_w:
                alive[wid] = False
                unfinished -= 1
                refresh()
                vital_list = self._vital_list
                ready_vital = self._ready_vital
            last = wid

            cycle += 1
            cycles_c += 1
            busy_c += 1
            ticked += 1

        # ---- write state and counters back ----------------------------------
        self.cycle = cycle
        self._unfinished = unfinished
        self._last = last
        self._ready_vital = ready_vital
        self._l1_access_counter = acc_counter
        self._response_seq = seq
        self._next_token = next_token
        self.jumped_cycles += jumped
        self.jump_spans += spans
        self.ticked_cycles += ticked
        c = self.counters
        c.cycles += cycles_c
        c.busy_cycles += busy_c
        c.stall_cycles += stall_c
        c.instructions += instr_c
        c.loads += loads_c
        c.l1_accesses += l1_acc
        c.l1_hits += l1_hit
        c.l1_misses += l1_miss
        c.l1_bypasses += l1_byp
        c.polluting_accesses += pol_acc
        c.polluting_hits += pol_hit
        c.nonpolluting_accesses += npol_acc
        c.nonpolluting_hits += npol_hit
        c.intra_warp_hits += intra_c
        c.inter_warp_hits += inter_c
        c.miss_requests += missreq_c
        c.miss_latency_total += misslat_c
        c.l2_accesses += l2_acc
        c.l2_hits += l2_hit
        c.dram_accesses += dram_c
        c.mshr_stall_cycles += mshr_stall
