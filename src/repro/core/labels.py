"""Unique test labels (paper Section 5.1).

Every probed server gets a unique 4- or 5-character alphanumeric ``<id>``
label, and every test suite (measurement round) gets its own ``<suite>``
label.  Advertised MAIL FROM domains look like::

    <username>@<id>.<suite>.spf-test.dns-lab.org

Uniqueness serves two purposes: it ties every DNS query the measurement
server receives to exactly one (round, server) pair, and it guarantees no
query can be absorbed by a recursive resolver's cache.

Two allocation modes coexist:

- :meth:`LabelAllocator.new_id` hands out sequential ids — the simple
  one-at-a-time mode;
- :meth:`LabelAllocator.reserve_block` carves a fixed-size id range out
  of a suite's space for the running probe task, and :meth:`new_id`
  draws from it until :meth:`release_block`, so the labels a task uses
  depend only on its position in the work list.
"""

from __future__ import annotations

import string
import threading
from typing import Dict, List, Optional, Tuple

from ..dns.name import Name
from ..errors import SimulationError

_ALPHABET = string.ascii_lowercase + string.digits
#: ids below this render as 4 characters; wider ones get 5.
_WIDE_THRESHOLD = len(_ALPHABET) ** 4 // 2


def _encode(value: int, width: int) -> str:
    chars = []
    for _ in range(width):
        value, digit = divmod(value, len(_ALPHABET))
        chars.append(_ALPHABET[digit])
    return "".join(reversed(chars))


def _label_for(counter: int) -> str:
    width = 4 if counter < _WIDE_THRESHOLD else 5
    return _encode(counter, width)


class LabelAllocator:
    """Hands out unique id labels per suite and remembers the mapping."""

    def __init__(self, base: Name) -> None:
        self.base = base
        self._next_suite = 0
        self._next_id: Dict[str, int] = {}
        self._ip_for_label: Dict[Tuple[str, str], str] = {}
        #: the running task's reserved ids: ``[suite, next, end]``.
        self._block: Optional[List] = None
        self._lock = threading.Lock()

    def new_suite(self) -> str:
        """A fresh test-suite label."""
        with self._lock:
            label = "s" + _encode(self._next_suite, 4)
            self._next_suite += 1
            self._next_id[label] = 0
        return label

    def new_id(self, suite: str, target_ip: str) -> str:
        """A fresh server id label within a suite, bound to ``target_ip``.

        While a block is reserved the id comes from it; running past
        the block's end, or asking for another suite, is an error.
        """
        with self._lock:
            block = self._block
            if block is not None:
                if block[0] != suite:
                    raise SimulationError(
                        f"the running task reserved suite {block[0]!r}, not {suite!r}"
                    )
                counter = block[1]
                if counter >= block[2]:
                    raise SimulationError(
                        f"label block for suite {suite!r} exhausted at id {block[2]}"
                    )
                block[1] = counter + 1
            else:
                if suite not in self._next_id:
                    raise SimulationError(f"unknown suite label {suite!r}")
                counter = self._next_id[suite]
                self._next_id[suite] = counter + 1
            label = _label_for(counter)
            self._ip_for_label[(suite, label)] = target_ip
        return label

    def reserve_block(self, suite: str, start: int, size: int) -> None:
        """Reserve ids ``[start, start + size)`` of ``suite`` for one task.

        :meth:`new_id` draws from the block until :meth:`release_block`.
        Sequential allocation in the same suite continues above the
        highest reservation, so the two modes never collide.
        """
        with self._lock:
            if suite not in self._next_id:
                raise SimulationError(f"unknown suite label {suite!r}")
            self._next_id[suite] = max(self._next_id[suite], start + size)
            self._block = [suite, start, start + size]

    def release_block(self) -> None:
        """End the running task's reservation (back to sequential ids)."""
        self._block = None

    def ip_for(self, suite: str, test_id: str) -> Optional[str]:
        """Which server a (suite, id) pair was allocated to."""
        return self._ip_for_label.get((suite, test_id))

    def mail_from_domain(self, suite: str, test_id: str) -> str:
        """The advertised MAIL FROM domain for one probe."""
        return f"{test_id}.{suite}.{self.base}"

