"""Versioned streaming binary codec for per-warp instruction/address traces.

A trace file is a gzip stream (written with ``mtime=0`` so identical content
produces identical bytes) wrapping a struct-packed payload::

    magic      8s   b"POISETRC"
    version    <H   format version (currently 1)
    flags      <H   reserved, must be 0
    meta_len   <I   length of the metadata blob
    meta       ...  UTF-8 JSON object (kernel name, source, counts, ...)
    num_warps  <I
    num_warps warp sections, each:
        0xA0   <I warp_id
        records:
            0x01  ALU      <I pc
            0x02  LOAD     <I pc  <H dep_distance  <Q line_addr
            0x03  ALU_RUN  <I count  <I pc_start   (pcs pc_start .. +count-1)
        0xAF   end of warp
    0xEE  end of trace

Consecutive ALU instructions with sequential PCs — the overwhelmingly common
pattern — collapse into one ``ALU_RUN`` record, so a multi-million-instruction
trace stays compact even before gzip.

Reading is *streaming and lazy per warp*: :class:`TraceReader` decodes one
warp section at a time, so iterating a huge trace never materialises more
than a single warp's program (and :func:`trace_stats` never materialises any
program at all).  Truncated, corrupted or wrong-version files raise
:class:`TraceFormatError` — never garbage programs.

Everything here is stdlib-only (``struct`` + ``gzip`` + ``json``).
"""

from __future__ import annotations

import gzip
import hashlib
import json
import struct
import zlib
from pathlib import Path
from typing import Any, BinaryIO, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.gpu.isa import Instruction, Program, ProgramBuilder, as_program

MAGIC = b"POISETRC"
FORMAT_VERSION = 1
TRACE_SUFFIX = ".trc"

_REC_ALU = 0x01
_REC_LOAD = 0x02
_REC_ALU_RUN = 0x03
_WARP_START = 0xA0
_WARP_END = 0xAF
_TRACE_END = 0xEE

_HEADER = struct.Struct("<8sHHI")
_U32 = struct.Struct("<I")
_LOAD_BODY = struct.Struct("<IHQ")
_RUN_BODY = struct.Struct("<II")

_MAX_PC = (1 << 32) - 1
_MAX_DEP = (1 << 16) - 1


class TraceFormatError(ValueError):
    """A trace file is malformed: wrong magic/version, truncated or corrupt."""


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


class _HashingSink:
    """Forwards writes to the gzip stream while hashing the uncompressed bytes.

    The trace's content hash is defined over the *uncompressed* payload, so it
    is independent of gzip implementation details and compression level.
    """

    def __init__(self, stream: BinaryIO) -> None:
        self.stream = stream
        self.digest = hashlib.sha256()

    def write(self, data: bytes) -> None:
        self.digest.update(data)
        self.stream.write(data)


class TraceWriter:
    """Streams per-warp instruction sequences into a trace file.

    Usage::

        with TraceWriter(path, meta={"kernel": "mvt_k0"}, num_warps=24) as w:
            for warp_id, program in enumerate(programs):
                w.write_warp(warp_id, program)
        print(w.content_hash)

    ``write_warp`` accepts a :class:`~repro.gpu.isa.Program` or any iterable
    of :class:`Instruction`, one warp at a time, so a capture or a generator
    never holds more than one warp's compact program.  The writer refuses
    out-of-range fields (pc, dep_distance, address) instead of silently
    wrapping them.
    """

    def __init__(self, path: Union[str, Path], meta: Dict[str, Any], num_warps: int) -> None:
        if num_warps < 0:
            raise ValueError("num_warps must be non-negative")
        self.path = Path(path)
        self.num_warps = num_warps
        self._warps_written = 0
        self._closed = False
        self.content_hash: Optional[str] = None
        self._gzip = gzip.GzipFile(filename="", mode="wb", fileobj=open(self.path, "wb"), mtime=0)
        self._sink = _HashingSink(self._gzip)
        meta_blob = json.dumps(meta or {}, sort_keys=True, separators=(",", ":")).encode("utf-8")
        self._sink.write(_HEADER.pack(MAGIC, FORMAT_VERSION, 0, len(meta_blob)))
        self._sink.write(meta_blob)
        self._sink.write(_U32.pack(num_warps))

    # -- context manager ---------------------------------------------------------

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()

    # -- writing -----------------------------------------------------------------

    def write_warp(self, warp_id: int, instructions: Iterable[Instruction]) -> int:
        """Append one warp section; returns the number of instructions written.

        ``instructions`` is a :class:`~repro.gpu.isa.Program` or any iterable
        of :class:`Instruction`; either way the section holds the program's
        canonical records (maximal sequential-PC ALU runs), so equal streams
        write equal bytes.
        """
        if self._closed:
            raise ValueError("trace writer is closed")
        if self._warps_written >= self.num_warps:
            raise ValueError(f"trace already holds {self.num_warps} warp sections")
        program = as_program(instructions)
        write = self._sink.write
        write(bytes((_WARP_START,)) + _U32.pack(warp_id))
        for line, dep, pc, count in program.records():
            if line is not None:
                if dep > _MAX_DEP:
                    raise ValueError(f"dep_distance {dep} out of the codec's 16-bit range")
                write(bytes((_REC_LOAD,)) + _LOAD_BODY.pack(pc, dep, line))
            elif pc + count - 1 > _MAX_PC:
                raise ValueError(f"pc {pc + count - 1} out of the codec's 32-bit range")
            elif count == 1:
                write(bytes((_REC_ALU,)) + _U32.pack(pc))
            else:
                write(bytes((_REC_ALU_RUN,)) + _RUN_BODY.pack(count, pc))
        write(bytes((_WARP_END,)))
        self._warps_written += 1
        return len(program)

    def close(self) -> str:
        """Finalise the trace; returns the content hash of the payload."""
        if self._closed:
            assert self.content_hash is not None
            return self.content_hash
        if self._warps_written != self.num_warps:
            self.abort()
            raise ValueError(
                f"trace declared {self.num_warps} warps but {self._warps_written} were written"
            )
        self._sink.write(bytes((_TRACE_END,)))
        self.content_hash = self._sink.digest.hexdigest()
        raw = self._gzip.fileobj
        self._gzip.close()
        raw.close()
        self._closed = True
        return self.content_hash

    def abort(self) -> None:
        """Close the underlying file without finalising (leaves a torn file)."""
        if not self._closed:
            raw = self._gzip.fileobj
            self._gzip.close()
            raw.close()
            self._closed = True


def write_trace(
    path: Union[str, Path],
    programs: Iterable[Iterable[Instruction]],
    meta: Optional[Dict[str, Any]] = None,
) -> str:
    """Write complete per-warp programs to ``path``; returns the content hash."""
    programs = [as_program(program) for program in programs]
    meta = dict(meta or {})
    meta.setdefault("instruction_counts", [len(program) for program in programs])
    with TraceWriter(path, meta=meta, num_warps=len(programs)) as writer:
        for warp_id, program in enumerate(programs):
            writer.write_warp(warp_id, program)
    assert writer.content_hash is not None
    return writer.content_hash


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


class TraceReader:
    """Streaming reader: header eagerly, warp sections lazily one at a time."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._digest = hashlib.sha256()
        try:
            self._stream: BinaryIO = gzip.open(self.path, "rb")
        except OSError as error:
            raise TraceFormatError(f"cannot open trace {self.path}: {error}") from error
        try:
            header = self._read(_HEADER.size)
            magic, version, flags, meta_len = _HEADER.unpack(header)
            if magic != MAGIC:
                raise TraceFormatError(f"{self.path} is not a Poise trace (bad magic)")
            if version != FORMAT_VERSION:
                raise TraceFormatError(
                    f"{self.path} has unsupported trace format version {version} "
                    f"(this codec reads version {FORMAT_VERSION})"
                )
            if flags != 0:
                raise TraceFormatError(f"{self.path} uses unknown trace flags 0x{flags:04x}")
            try:
                self.meta: Dict[str, Any] = json.loads(self._read(meta_len).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise TraceFormatError(f"{self.path} has a corrupt metadata block") from error
            (self.num_warps,) = _U32.unpack(self._read(4))
        except TraceFormatError:
            self.close()
            raise

    def close(self) -> None:
        try:
            self._stream.close()
        except OSError:
            pass

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- low-level ----------------------------------------------------------------

    def _read(self, size: int) -> bytes:
        """Read exactly ``size`` bytes, translating every failure mode —
        short reads, gzip CRC errors, torn members — into TraceFormatError."""
        try:
            data = self._stream.read(size)
        except (EOFError, zlib.error, gzip.BadGzipFile, OSError) as error:
            raise TraceFormatError(f"{self.path} is truncated or corrupt: {error}") from error
        if len(data) != size:
            raise TraceFormatError(f"{self.path} is truncated (unexpected end of stream)")
        self._digest.update(data)
        return data

    # -- iteration ----------------------------------------------------------------

    def iter_warps(self) -> Iterator[Tuple[int, Program]]:
        """Yield ``(warp_id, program)`` one warp at a time.

        Only the warp currently being yielded is materialised, as a compact
        :class:`~repro.gpu.isa.Program` (``ALU_RUN`` records decode straight
        into runs); callers that stream (e.g. ``trace info``) can process
        arbitrarily large traces in bounded memory.
        """
        for _ in range(self.num_warps):
            marker = self._read(1)[0]
            if marker != _WARP_START:
                raise TraceFormatError(
                    f"{self.path}: expected warp section, found record 0x{marker:02x}"
                )
            (warp_id,) = _U32.unpack(self._read(4))
            program = ProgramBuilder()
            while True:
                kind = self._read(1)[0]
                if kind == _WARP_END:
                    break
                if kind == _REC_ALU:
                    (pc,) = _U32.unpack(self._read(4))
                    program.alu_run(1, pc)
                elif kind == _REC_LOAD:
                    pc, dep, line_addr = _LOAD_BODY.unpack(self._read(_LOAD_BODY.size))
                    program.load(line_addr, dep, pc)
                elif kind == _REC_ALU_RUN:
                    count, pc_start = _RUN_BODY.unpack(self._read(_RUN_BODY.size))
                    program.alu_run(count, pc_start)
                else:
                    raise TraceFormatError(
                        f"{self.path}: unknown record kind 0x{kind:02x} in warp {warp_id}"
                    )
            yield warp_id, program.build()
        if self._read(1)[0] != _TRACE_END:
            raise TraceFormatError(f"{self.path}: missing end-of-trace marker")

    def content_hash(self) -> str:
        """Hash of the full uncompressed payload (must be called after a
        complete iteration; drains any unread remainder first)."""
        while True:
            try:
                chunk = self._stream.read(1 << 16)
            except (EOFError, zlib.error, gzip.BadGzipFile, OSError) as error:
                raise TraceFormatError(f"{self.path} is truncated or corrupt: {error}") from error
            if not chunk:
                return self._digest.hexdigest()
            self._digest.update(chunk)


def read_trace_meta(path: Union[str, Path]) -> Tuple[Dict[str, Any], int]:
    """Read only the header: ``(meta, num_warps)`` without decoding any warp."""
    with TraceReader(path) as reader:
        return dict(reader.meta), reader.num_warps


def read_trace_programs_with_hash(path: Union[str, Path]) -> Tuple[List[Program], str]:
    """Decode the full trace and its content hash in one streaming pass.

    This is the replay entry point: the simulator needs whole programs, so
    laziness does not apply here — but decode and integrity check still cost
    only a single pass.  Returns ``(programs ordered by warp id, hash)``.
    """
    with TraceReader(path) as reader:
        programs: Dict[int, Program] = {}
        for warp_id, program in reader.iter_warps():
            if warp_id in programs:
                raise TraceFormatError(f"{path}: duplicate warp id {warp_id}")
            programs[warp_id] = program
        ordered = [programs[warp_id] for warp_id in sorted(programs)]
        return ordered, reader.content_hash()


def read_trace_programs(path: Union[str, Path]) -> List[Program]:
    """Decode the full trace into per-warp programs ordered by warp id."""
    return read_trace_programs_with_hash(path)[0]


def trace_content_hash(path: Union[str, Path]) -> str:
    """Content hash of a trace: SHA-256 over the uncompressed payload.

    Validates the whole file as a side effect (raises
    :class:`TraceFormatError` on any damage), so a hash in hand means the
    trace decodes cleanly.
    """
    with TraceReader(path) as reader:
        for _warp_id, _program in reader.iter_warps():
            pass
        return reader.content_hash()


def trace_stats(path: Union[str, Path]) -> Dict[str, Any]:
    """Summary statistics computed in one lazy pass (used by ``trace info``)."""
    with TraceReader(path) as reader:
        per_warp: List[Dict[str, int]] = []
        unique_lines: set = set()
        total_instructions = 0
        total_loads = 0
        for warp_id, program in reader.iter_warps():
            per_warp.append(
                {"warp_id": warp_id, "instructions": len(program), "loads": program.loads}
            )
            unique_lines.update(program.load_line)
            total_instructions += len(program)
            total_loads += program.loads
        return {
            "path": str(path),
            "meta": dict(reader.meta),
            "num_warps": reader.num_warps,
            "instructions": total_instructions,
            "loads": total_loads,
            "unique_lines": len(unique_lines),
            "per_warp": per_warp,
            "content_hash": reader.content_hash(),
        }
