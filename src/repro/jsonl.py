"""Crash-safe file primitives of the append-only JSON-lines stores.

The campaign store (:mod:`repro.runtime.store`), the dedupe cache and the
persistent fitness cache (:mod:`repro.backends.fitness_cache`) all keep an
append-only ``*.jsonl`` index next to whole files written atomically.
They share the three primitives here:

* :func:`file_lock` — an advisory exclusive lock serialising writers
  across processes;
* :func:`atomic_write_text` — a whole-file write a reader sees either
  entirely or not at all;
* :func:`append_lines` — an index append that first heals a torn tail,
  so a writer killed mid-line cannot glue its fragment onto the next
  committed entry (readers drop the fragment line).
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

try:  # pragma: no cover - import guard exercised implicitly per platform
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = ["append_lines", "atomic_write_text", "file_lock"]


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    A reader can only ever observe the old content or the complete new
    content — never a truncated file — even if the writer is killed
    mid-write.  The temp file lives in the destination directory so the
    replace stays on one filesystem.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


@contextmanager
def file_lock(lock_path: Path):
    """Advisory exclusive lock scoped to the ``with`` block.

    Uses ``fcntl.flock`` where available (POSIX); elsewhere the lock
    degrades to a no-op and the newline healing of :func:`append_lines`
    remains the only interleaving defence.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    with open(lock_path, "a+b") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def append_lines(path: Path, text: str) -> None:
    """Append newline-terminated ``text`` to ``path`` and fsync it.

    A writer killed mid-append leaves the file without a trailing
    newline; the orphan fragment is first terminated, so it stays a line
    of its own that readers drop instead of swallowing the first line
    appended here.  Callers hold the file's :func:`file_lock`.
    """
    with open(path, "a+b") as handle:
        handle.seek(0, os.SEEK_END)
        if handle.tell() > 0:
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                text = "\n" + text
        handle.write(text.encode("utf-8"))
        handle.flush()
        os.fsync(handle.fileno())
