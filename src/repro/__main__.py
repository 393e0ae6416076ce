"""``python -m repro``: thin shim over :mod:`repro.cli`.

The implementation lives in the :mod:`repro.cli` package (one module
per subcommand); this module only keeps the historical import surface —
``from repro.__main__ import ARTIFACT_NAMES, main`` — working, and owns
what only a whole process may do, around :func:`main`:

- a closed stdout (``python -m repro obs history FILE | head``) ends the
  command with exit status 1 and no traceback;
- once the command has returned and its output is flushed, every object
  still alive (modules and their memo caches) is frozen
  (``gc.freeze()``), so the collections of interpreter shutdown do not
  walk them.  This is never done inside :func:`main`, which tests call
  in-process.
"""

from __future__ import annotations

import gc
import os
import sys

from .cli import ARTIFACT_NAMES, main

__all__ = ["ARTIFACT_NAMES", "main"]

if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away.  Point stdout at /dev/null so the flush
        # at interpreter exit cannot raise again (the Python docs' "Note
        # on SIGPIPE"), and exit 1 as an EPIPE write error would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    gc.freeze()
    sys.exit(code)
