"""Crash consistency of the shared append-log view under the keyed indexes.

:class:`repro.jsonl.AppendLog` is the only reader of ``fitness.jsonl``
(and of the dedupe cache's ``signatures.jsonl``): it tails the file from
a byte offset, never consumes a newline-less torn tail, reloads when the
file is replaced, shrinks or vanishes, and is shared by every cache
instance on one file in a process.  The kill-point test replays a
scripted write sequence one byte at a time and checks the view against a
fresh full parse at every prefix.
"""

import hashlib
import json
import multiprocessing
import os
import threading
from collections import OrderedDict

import pytest

from repro import jsonl
from repro.backends.fitness_cache import PersistentFitnessCache, _parse_entry
from repro.jsonl import AppendLog, append_lines, atomic_write_text, file_lock


def key(label) -> str:
    return hashlib.sha256(repr(label).encode()).hexdigest()


def line(k: str, fitness: float) -> str:
    return json.dumps({"key": k, "fitness": fitness}, sort_keys=True) + "\n"


def full_parse(data: bytes) -> dict:
    """What a fresh reader of ``data`` serves: every newline-terminated,
    well-formed line, the first value of a key winning."""
    entries = {}
    for raw in data.split(b"\n")[:-1]:
        try:
            entry = json.loads(raw)
        except ValueError:
            continue
        entries.setdefault(entry["key"], float(entry["fitness"]))
    return entries


def other_process_cache(monkeypatch, root) -> PersistentFitnessCache:
    """A cache instance with its own view, as another process would have."""
    monkeypatch.setattr(jsonl, "_VIEWS", OrderedDict())
    return PersistentFitnessCache(root)


def refreshed(view: AppendLog) -> dict:
    with view.lock:
        return dict(view.refresh_locked())


def scripted_log(root, monkeypatch):
    """Two publishers, a torn fragment, the heal, a duplicate and a prune.

    Returns the index bytes before the prune, right after it, and after
    one more publish on the compacted file.
    """
    first = PersistentFitnessCache(root)
    first.publish({key(0): 10.0, key(1): 11.0})
    second = other_process_cache(monkeypatch, root)
    second.publish({key(2): 12.0})
    with open(first.index_path, "ab") as handle:  # a publisher killed mid-append
        handle.write(line(key(3), 13.0)[:40].encode())
    second.publish({key(3): 13.0, key(4): 14.0})  # heals the torn tail
    with file_lock(first.lock_path):  # a conflicting republish: first write wins
        append_lines(first.index_path, line(key(0), 99.0))
    first.publish({key(5): 15.0})
    grown = first.index_path.read_bytes()
    second.prune()
    pruned = first.index_path.read_bytes()
    first.publish({key(6): 16.0})
    return grown, pruned, first.index_path.read_bytes()


class TestKillPoints:
    def test_every_prefix_serves_exactly_its_committed_entries(self, tmp_path, monkeypatch):
        grown, pruned, final = scripted_log(tmp_path / "cache", monkeypatch)
        assert final.startswith(pruned) and len(full_parse(final)) == 7
        replay = tmp_path / "replay.jsonl"
        replay.write_bytes(b"")
        view = AppendLog(replay, _parse_entry)

        def advance(data: bytes, start: int) -> None:
            with open(replay, "ab") as handle:
                for length in range(start, len(data) + 1):
                    handle.write(data[length - 1 : length] if length else b"")
                    handle.flush()
                    expected = full_parse(data[:length])
                    assert refreshed(view) == expected, length
                    assert refreshed(AppendLog(replay, _parse_entry)) == expected

        advance(grown, 0)
        # Advanced byte by byte, the view still parsed each line once.
        assert view.parsed_lines == grown.count(b"\n")
        assert refreshed(view)[key(0)] == 10.0
        # A prune replaces the file whole: readers see only the compacted log.
        atomic_write_text(replay, pruned.decode())
        assert refreshed(view) == full_parse(pruned) == full_parse(grown)
        advance(final, len(pruned) + 1)

    def test_truncation_at_every_offset_serves_only_the_kept_prefix(self, tmp_path, monkeypatch):
        grown, _, _ = scripted_log(tmp_path / "cache", monkeypatch)
        replay = tmp_path / "replay.jsonl"
        replay.write_bytes(grown)
        view = AppendLog(replay, _parse_entry)
        for length in range(len(grown), -1, -1):
            os.truncate(replay, length)
            assert refreshed(view) == full_parse(grown[:length]), length


class TestFirstWriteWins:
    def test_duplicate_key_serves_the_first_value_before_and_after_prune(self, tmp_path):
        cache = PersistentFitnessCache(tmp_path)
        cache.publish({key(0): 1.0})
        with file_lock(cache.lock_path):
            append_lines(cache.index_path, line(key(0), 2.0))
        assert PersistentFitnessCache(tmp_path).lookup([key(0)]) == {key(0): 1.0}
        assert cache.prune() == {"lines": 2, "kept": 1, "dropped": 1}
        assert PersistentFitnessCache(tmp_path).lookup([key(0)]) == {key(0): 1.0}


class TestSharedView:
    def test_instances_in_one_process_parse_each_line_once(self, tmp_path):
        first, second = PersistentFitnessCache(tmp_path), PersistentFitnessCache(tmp_path)
        assert first._log is second._log
        keys = [key(i) for i in range(20)]
        first.publish({k: float(i) for i, k in enumerate(keys[:10])})
        assert len(second.lookup(keys)) == 10
        second.publish({k: float(i) for i, k in enumerate(keys) if i >= 10})
        for _ in range(3):
            fresh = PersistentFitnessCache(tmp_path)
            assert len(first.lookup(keys)) == len(fresh.lookup(keys)) == 20
        assert second.summary()["entries"] == 20
        assert first._log.parsed_lines == 20

    @pytest.mark.parametrize("shared", [True, False], ids=["shared-view", "separate-views"])
    def test_threads_publishing_through_two_instances_lose_nothing(
        self, tmp_path, monkeypatch, shared
    ):
        first = PersistentFitnessCache(tmp_path)
        second = (
            PersistentFitnessCache(tmp_path)
            if shared
            else other_process_cache(monkeypatch, tmp_path)
        )
        expected = {key(i): float(i) for i in range(40)}

        def publisher(offset: int) -> None:
            for step in range(40):
                index = (step * 7 + offset) % 40
                cache = first if (step + offset) % 2 else second
                cache.publish({key(index): float(index)})

        threads = [threading.Thread(target=publisher, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        data = first.index_path.read_bytes()
        assert data.count(b"\n") == 40  # idempotent: no key appended twice
        assert full_parse(data) == expected
        assert first.lookup(expected) == second.lookup(expected) == expected


class TestReload:
    def test_prune_from_another_instance_forces_a_full_reload(self, tmp_path, monkeypatch):
        local = PersistentFitnessCache(tmp_path)
        local.publish({key(0): 1.0, key(1): 2.0})
        with file_lock(local.lock_path):
            append_lines(local.index_path, line(key(0), 5.0) + "not json\n")
        assert local.lookup([key(0)]) == {key(0): 1.0}
        parsed = local._log.parsed_lines
        other = other_process_cache(monkeypatch, tmp_path)
        assert other._log is not local._log
        assert other.prune() == {"lines": 4, "kept": 2, "dropped": 2}
        assert local.lookup([key(0), key(1)]) == {key(0): 1.0, key(1): 2.0}
        assert local._log.parsed_lines == parsed + 2  # re-read the compacted file

    def test_replaced_index_serves_only_its_own_keys(self, tmp_path):
        cache = PersistentFitnessCache(tmp_path)
        old = {key(i): float(i) for i in range(3)}
        cache.publish(old)
        assert cache.lookup(old) == old
        new = {key(0): 0.0, **{key(i): float(i) for i in range(10, 15)}}
        # Same first line, larger than the consumed offset: only the inode
        # tells the replacement apart from an append.
        atomic_write_text(cache.index_path, "".join(line(k, v) for k, v in new.items()))
        assert cache.lookup([*old, *new]) == new

    def test_external_truncation_drops_the_cut_entries(self, tmp_path):
        cache = PersistentFitnessCache(tmp_path)
        entries = {key(i): float(i) for i in range(3)}
        cache.publish(entries)
        assert cache.lookup(entries) == entries
        data = cache.index_path.read_bytes()
        os.truncate(cache.index_path, data.index(b"\n") + 1)
        assert cache.lookup(entries) == {key(0): 0.0}

    def test_truncated_and_regrown_index_is_reloaded(self, tmp_path):
        cache = PersistentFitnessCache(tmp_path)
        cache.publish({key(0): 0.0})
        assert cache.lookup([key(0)]) == {key(0): 0.0}
        new = {key(i): float(i) for i in range(1, 4)}
        with open(cache.index_path, "r+b") as handle:  # same inode, grown past the offset
            handle.truncate(0)
            handle.write("".join(line(k, v) for k, v in new.items()).encode())
        assert cache.lookup([key(0), *new]) == new

    def test_deleted_index_serves_nothing(self, tmp_path):
        cache = PersistentFitnessCache(tmp_path)
        cache.publish({key(0): 0.0})
        assert cache.lookup([key(0)]) == {key(0): 0.0}
        cache.index_path.unlink()
        assert cache.lookup([key(0)]) == {}
        assert cache.summary()["entries"] == 0


def _child_sees_no_views(queue) -> None:
    queue.put(len(jsonl._VIEWS))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
def test_forked_child_starts_with_an_empty_view_table(tmp_path):
    PersistentFitnessCache(tmp_path)
    assert jsonl._VIEWS
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_child_sees_no_views, args=(queue,))
    child.start()
    assert queue.get(timeout=30) == 0
    child.join(timeout=30)
