"""When CPython's cyclic garbage collector may run: not inside batch work.

A campaign makes no reference cycles, and a dropped world holds none
(``tests/test_collector.py`` runs campaigns with automatic collection
off and asserts ``gc.collect() == 0``), so everything a run frees, and
every world a caller drops, is freed by reference counting.  Automatic
collection therefore finds nothing during a run, yet each full
collection re-walks every object the run keeps: the resident world, the
campaign's records and, when traced, every trace event.
:func:`collector_paused` keeps the collector out of a batch call:

- it disables automatic collection for the length of the block;
- on the way out it hands every object that survived the block to the
  oldest generation without walking it (``gc.freeze()`` then
  ``gc.unfreeze()``), so the first collections after the block do not
  re-walk what the block allocated;
- then it re-enables automatic collection, whether the block returned
  or raised.

It does nothing when automatic collection is already off (a caller's
``gc.disable()`` or an enclosing pause), so pauses nest for free, and it
skips the handoff while anything is frozen, so a caller's
``gc.freeze()`` is never undone.  The switch is process-wide: the pause
belongs around single-threaded batch work (``Simulation.run``, loading
and restoring a checkpoint chain, the serve daemon's warm-up), not
around the serve daemon's per-request dispatch.
"""

from __future__ import annotations

import contextlib
import gc
from typing import Iterator


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with automatic cyclic collection off (see module)."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        if gc.get_freeze_count() == 0:
            gc.freeze()
            gc.unfreeze()
        gc.enable()
