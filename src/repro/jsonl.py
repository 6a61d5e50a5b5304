"""Crash-safe file primitives of the append-only JSON-lines stores.

The campaign store (:mod:`repro.runtime.store`), the dedupe cache and the
persistent fitness cache (:mod:`repro.backends.fitness_cache`) all keep an
append-only ``*.jsonl`` index next to whole files written atomically.
They share the primitives here:

* :func:`file_lock` — an advisory exclusive lock serialising writers
  across processes;
* :func:`atomic_write_text` — a whole-file write a reader sees either
  entirely or not at all;
* :func:`append_lines` — an index append that first heals a torn tail,
  so a writer killed mid-line cannot glue its fragment onto the next
  committed entry (readers drop the fragment line);
* :class:`AppendLog` / :func:`shared_log` — the keyed, first-write-wins
  view of an index that reads only the bytes appended since its last
  refresh, shared by every cache instance on that file in one process.
"""

from __future__ import annotations

import os
import tempfile
import threading
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

try:  # pragma: no cover - import guard exercised implicitly per platform
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = ["AppendLog", "append_lines", "atomic_write_text", "file_lock", "shared_log"]


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


class AppendLog:
    """A keyed, incrementally refreshed view of one append-only JSONL index.

    ``parse`` maps one line (bytes) to its ``(key, value)``; a line it
    rejects with ``ValueError``/``KeyError``/``TypeError`` is a writer's
    torn fragment and is skipped.  The first value read for a key wins.

    The view remembers its byte offset and the file's ``(st_dev, st_ino)``.
    :meth:`refresh_locked` parses only the complete lines past the offset —
    a newline-less tail stays unread until :func:`append_lines` terminates
    it — and starts over when the file was replaced
    (:func:`atomic_write_text`), shrank, or lost its first bytes.  Callers
    hold :attr:`lock`.
    """

    _HEAD = 64  # leading bytes re-checked on growth (a recreated file)

    def __init__(self, path: Path, parse: Callable[[bytes], Tuple[str, Any]]) -> None:
        self.path = Path(path)
        self.parse = parse
        self.lock = threading.Lock()
        self.entries: Dict[str, Any] = {}
        self.parsed_lines = 0
        self._offset = 0
        self._identity: Optional[Tuple[int, int]] = None
        self._head = b""

    def _reset_locked(self, identity: Optional[Tuple[int, int]]) -> None:
        self.entries = {}
        self._offset = 0
        self._identity = identity
        self._head = b""

    def refresh_locked(self) -> Dict[str, Any]:
        """Consume the lines appended since the last call; returns :attr:`entries`."""
        try:
            stat = os.stat(self.path)
        except FileNotFoundError:
            self._reset_locked(None)
            return self.entries
        if stat.st_size == self._offset and (stat.st_dev, stat.st_ino) == self._identity:
            return self.entries
        with open(self.path, "rb") as handle:
            stat = os.fstat(handle.fileno())
            identity = (stat.st_dev, stat.st_ino)
            if (
                identity != self._identity
                or stat.st_size < self._offset
                or handle.read(len(self._head)) != self._head
            ):
                self._reset_locked(identity)
            handle.seek(self._offset)
            data = handle.read(stat.st_size - self._offset)
        end = data.rfind(b"\n") + 1
        if not self._offset:
            self._head = data[: min(end, self._HEAD)]
        entries = self.entries
        for line in data[:end].splitlines():
            self.parsed_lines += 1
            try:
                key, value = self.parse(line)
            except (ValueError, KeyError, TypeError):
                continue  # a writer killed mid-append: drop the fragment line
            entries.setdefault(key, value)
        self._offset += end
        return entries


#: The process-wide views, keyed by real path, least recently used first.
_VIEWS: "OrderedDict[str, AppendLog]" = OrderedDict()
_VIEWS_LOCK = threading.Lock()
_MAX_VIEWS = 16


def shared_log(
    path: Union[str, os.PathLike], parse: Callable[[bytes], Tuple[str, Any]]
) -> AppendLog:
    """The one :class:`AppendLog` of ``path`` in this process (LRU-bounded)."""
    key = os.path.realpath(path)
    with _VIEWS_LOCK:
        log = _VIEWS.pop(key, None) or AppendLog(Path(key), parse)
        _VIEWS[key] = log
        while len(_VIEWS) > _MAX_VIEWS:
            _VIEWS.popitem(last=False)
    return log


def _forget_views_in_child() -> None:
    """A forked child starts with no views: a parent thread may hold their locks."""
    global _VIEWS_LOCK
    _VIEWS_LOCK = threading.Lock()
    with _VIEWS_LOCK:
        _VIEWS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_views_in_child)
