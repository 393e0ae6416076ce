"""A simulated C heap with out-of-bounds write detection.

The vulnerable code in :mod:`repro.libspf2.expand` writes through
:class:`CBuffer` objects obtained from :class:`CHeap`.  Every write is
bounds-checked against the allocation size; an overrun raises
:class:`~repro.errors.MemoryCorruptionError` carrying how far past the end
the write landed — the reproduction's equivalent of heap corruption or an
AddressSanitizer report.

A configurable ``slack`` models allocator rounding: real heap overflows of
a few bytes often land in allocator padding without crashing, which is why
the paper's vulnerability 1 needs several high bytes (6 extra bytes each)
to do damage.  With the default ``slack=0`` every overrun is reported.
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import MemoryCorruptionError, SimulationError


class CBuffer:
    """One heap allocation: ``size`` writable bytes plus a guard zone.

    A buffer keeps copies of its heap's ``guard_size`` and ``slack`` and
    shares its ``overflow_events`` list, but holds no reference to the
    heap itself: the heap's block table already points at every live
    buffer, so a back-reference would make each allocation a reference
    cycle that only the cyclic garbage collector could free.
    """

    def __init__(
        self,
        block_id: int,
        size: int,
        *,
        guard_size: int,
        slack: int,
        overflow_events: List[tuple],
    ) -> None:
        self.block_id = block_id
        self.size = size
        self.guard_size = guard_size
        self.slack = slack
        self._overflow_events = overflow_events
        # Guard bytes past the end record what an overflow wrote.
        self._data = bytearray(size + guard_size)
        self.high_water = 0
        self.freed = False
        self.overflowed = False

    def _check_alive(self) -> None:
        if self.freed:
            raise MemoryCorruptionError(
                f"use-after-free on block {self.block_id}", block_id=self.block_id
            )

    def write_byte(self, offset: int, value: int) -> None:
        """Write one byte, enforcing bounds (with allocator slack)."""
        self._check_alive()
        if offset < 0:
            raise MemoryCorruptionError(
                f"underflow write at offset {offset} on block {self.block_id}",
                block_id=self.block_id,
                offset=offset,
            )
        if offset >= self.size + self.guard_size:
            raise MemoryCorruptionError(
                f"wild write at offset {offset} (size {self.size}) on block {self.block_id}",
                block_id=self.block_id,
                offset=offset,
            )
        self._data[offset] = value & 0xFF
        self.high_water = max(self.high_water, offset + 1)
        if offset >= self.size:
            self.overflowed = True
            self._overflow_events.append((self.block_id, offset))
            if offset >= self.size + self.slack:
                raise MemoryCorruptionError(
                    f"heap overflow: wrote offset {offset} in {self.size}-byte "
                    f"block {self.block_id} (slack {self.slack})",
                    block_id=self.block_id,
                    offset=offset,
                )

    def write_bytes(self, offset: int, data: bytes) -> int:
        """Write ``data`` starting at ``offset``; returns bytes written.

        The fully in-bounds case is one slice assignment; any write that
        starts before 0 or could touch the guard region falls back to the
        byte loop so underflow/overflow accounting (including one
        ``overflow_events`` entry per overflowing byte) stays identical.
        """
        end = offset + len(data)
        if data and offset >= 0 and end <= self.size:
            self._check_alive()
            self._data[offset:end] = data
            if end > self.high_water:
                self.high_water = end
            return len(data)
        for i, byte in enumerate(data):
            self.write_byte(offset + i, byte)
        return len(data)

    def read_byte(self, offset: int) -> int:
        self._check_alive()
        if not 0 <= offset < self.size + self.guard_size:
            raise MemoryCorruptionError(
                f"out-of-bounds read at offset {offset} on block {self.block_id}",
                block_id=self.block_id,
                offset=offset,
            )
        return self._data[offset]

    def cstring(self) -> bytes:
        """The buffer contents up to the first NUL (like reading a char*)."""
        self._check_alive()
        end = self._data.find(b"\x00")
        if end < 0:
            end = len(self._data)
        return bytes(self._data[:end])

    def overflow_bytes(self) -> bytes:
        """Whatever was written past the allocation end (guard contents)."""
        return bytes(self._data[self.size : self.high_water])


class CHeap:
    """Allocation arena with overflow bookkeeping.

    ``slack`` — bytes past the end of each block tolerated before the heap
    "corrupts" (models allocator rounding).  ``guard_size`` — how much
    guard space is recorded for forensics; writes past it are wild.
    """

    def __init__(self, *, slack: int = 0, guard_size: int = 256) -> None:
        if guard_size < slack:
            raise SimulationError("guard_size must cover the slack region")
        self.slack = slack
        self.guard_size = guard_size
        self._blocks: Dict[int, CBuffer] = {}
        self._next_id = 1
        self.overflow_events: List[tuple] = []
        self.total_allocated = 0

    def malloc(self, size: int) -> CBuffer:
        if size < 0:
            raise SimulationError(f"malloc of negative size {size}")
        buf = CBuffer(
            self._next_id,
            size,
            guard_size=self.guard_size,
            slack=self.slack,
            overflow_events=self.overflow_events,
        )
        self._blocks[self._next_id] = buf
        self._next_id += 1
        self.total_allocated += size
        return buf

    def free(self, buf: CBuffer) -> None:
        if buf.freed:
            raise MemoryCorruptionError(
                f"double free of block {buf.block_id}", block_id=buf.block_id
            )
        buf.freed = True
        del self._blocks[buf.block_id]

    @property
    def live_blocks(self) -> int:
        return len(self._blocks)

    @property
    def corrupted(self) -> bool:
        """True if any write landed past an allocation's end."""
        return bool(self.overflow_events)
