"""The durable-directory protocol: atomic replace and durable truncate.

Every file the durability layer publishes whole (a snapshot generation,
``SHARDS.json``, a rewritten or freshly created ``wal.log``) goes through
:func:`replace_durably`, and every cut of a log tail goes through
:func:`truncate_durably`.  They are the only calls outside the WAL's
append path that force bytes to disk (analysis rule R10 allows exactly
these two modules), so the list of durable-file calls a workload makes is
the list of calls to these two functions.

:func:`replace_durably` follows the rename rule of ALICE (Pillai et al.,
OSDI 2014): the data is fsynced under a temporary name, renamed over the
final name, and then the *directory* is fsynced, because a rename is a
change to the directory, not to the file.  A crash at any point leaves
either the old complete file or the new complete one under the final
name; a ``<name>.tmp`` leftover never matches a name readers look for.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["replace_durably", "truncate_durably"]


def replace_durably(path: str | Path, blob: bytes) -> None:
    """Atomically make ``blob`` the content of ``path``, durably.

    Writes ``<name>.tmp``, fsyncs it, ``os.replace``s it over ``path`` and
    fsyncs the parent directory so the rename itself survives power loss.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def truncate_durably(path: str | Path, size: int) -> None:
    """Cut the file at ``path`` down to ``size`` bytes and fsync it."""
    with open(path, "r+b") as handle:
        handle.truncate(size)
        handle.flush()
        os.fsync(handle.fileno())
