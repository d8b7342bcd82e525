"""Result-cache behaviour: hits, misses, and every corruption mode.

The cache must never raise on bad on-disk state — a damaged entry is a
miss (counted as corrupt) that the next ``put`` silently heals.
"""

import json

import pytest

from repro.durable.snapshot import SnapshotStore
from repro.durable.wal import EventWAL
from repro.errors import ConfigurationError
from repro.jobs import CACHE_SCHEMA_VERSION, ResultCache

KEY = "ab" + "0" * 62
SPEC = {"schema": 1, "fake": True}
OUTCOME = {"wall_cycles": 123.0, "tasks": []}


def test_miss_then_hit_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get(KEY) is None
    cache.put(KEY, SPEC, OUTCOME)
    assert cache.get(KEY) == OUTCOME
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1
    assert cache.stats.writes == 1
    assert cache.stats.corrupt == 0


def test_fanout_layout(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.put(KEY, SPEC, OUTCOME)
    assert path == tmp_path / KEY[:2] / f"{KEY}.json"
    assert path.exists()
    # No stray temp files left behind.
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def corrupt_variants():
    """Every on-disk corruption the cache must treat as a miss."""
    good = {
        "version": CACHE_SCHEMA_VERSION,
        "key": KEY,
        "spec": SPEC,
        "outcome": OUTCOME,
    }
    wrong_version = dict(good, version=CACHE_SCHEMA_VERSION + 1)
    wrong_key = dict(good, key="cd" + "0" * 62)
    not_a_dict = dict(good, outcome=[1, 2, 3])
    return [
        b"",  # empty file
        b"{\"version\": 1,",  # truncated JSON
        b"\xff\xfe garbage \x00",  # non-ASCII garbage
        json.dumps(wrong_version).encode(),
        json.dumps(wrong_key).encode(),
        json.dumps(not_a_dict).encode(),
        json.dumps([1, 2]).encode(),  # envelope is not an object
    ]


def test_corrupt_entries_are_counted_misses(tmp_path):
    for i, payload in enumerate(corrupt_variants()):
        cache = ResultCache(tmp_path / str(i))
        path = cache.path_for(KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(payload)
        assert cache.get(KEY) is None
        assert cache.stats.misses == 1
        assert cache.stats.corrupt == 1


def test_put_heals_a_corrupt_entry(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.path_for(KEY)
    path.parent.mkdir(parents=True)
    path.write_bytes(b"not json at all")
    assert cache.get(KEY) is None
    cache.put(KEY, SPEC, OUTCOME)
    assert cache.get(KEY) == OUTCOME


def test_non_directory_root_rejected_up_front(tmp_path):
    """A root that exists as a file fails at construction, not mid-sweep."""
    not_a_dir = tmp_path / "cache.file"
    not_a_dir.write_text("occupied")
    with pytest.raises(ConfigurationError, match="not a directory"):
        ResultCache(not_a_dir)


def _files(root):
    """Every file under *root* with its bytes."""
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_crash_between_write_and_replace_leaves_no_entry(tmp_path, monkeypatch):
    """A crash after the temp write but before the rename commits nothing.

    The injected ``os.replace`` failure stands in for a process death at
    the worst moment: the staged bytes exist but were never installed.
    For each atomic publisher — a cache entry, a snapshot, a WAL
    compaction — the temp file must be cleaned up and every file on
    disk must be exactly what it was before the attempt.
    """
    cache = ResultCache(tmp_path / "cache")
    snapshots = SnapshotStore(tmp_path / "snapshots")
    snapshots.save({"generation": 1}, last_lsn=1)
    wal = EventWAL(tmp_path / "wal" / "events.wal")
    for pid in range(3):
        wal.append({"pid": pid})
    publishers = {
        "cache": lambda: cache.put(KEY, SPEC, OUTCOME),
        "snapshot": lambda: snapshots.save({"generation": 2}, last_lsn=2),
        "wal": lambda: wal.compact(2),
    }

    def crash(src, dst):
        raise OSError("injected crash between write and replace")

    for name, publish in publishers.items():
        before = _files(tmp_path)
        monkeypatch.setattr("os.replace", crash)
        with pytest.raises(OSError, match="injected crash"):
            publish()
        monkeypatch.undo()
        assert _files(tmp_path) == before, name

    path = cache.path_for(KEY)
    assert not path.exists()
    assert list(path.parent.iterdir()) == []  # staged temp file removed
    assert cache.stats.writes == 0
    assert cache.get(KEY) is None
    assert cache.stats.corrupt == 0  # a non-commit is a miss, not damage
    assert snapshots.load() == ({"generation": 1}, 1)
    assert [lsn for lsn, _ in wal.replay(0)] == [1, 2, 3]
    # Each store heals on its next successful publish.
    cache.put(KEY, SPEC, OUTCOME)
    assert cache.get(KEY) == OUTCOME
    snapshots.save({"generation": 2}, last_lsn=2)
    assert snapshots.load() == ({"generation": 2}, 2)
    assert wal.compact(2) == 1


def test_quarantine_preserves_evidence_and_logs_once(tmp_path, caplog):
    """Corrupt entries are renamed aside; only the first one logs loudly."""
    import logging

    cache = ResultCache(tmp_path)
    other_key = "cd" + "1" * 62
    for key in (KEY, other_key):
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not json at all")

    with caplog.at_level(logging.DEBUG, logger="repro.jobs.cache"):
        assert cache.get(KEY) is None
        assert cache.get(other_key) is None
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1  # one loud signal, no log spam
    assert cache.stats.quarantined == 2

    for key in (KEY, other_key):
        path = cache.path_for(key)
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
    # A fresh put reinstalls a clean entry next to the evidence.
    cache.put(KEY, SPEC, OUTCOME)
    assert cache.get(KEY) == OUTCOME


def test_distinct_keys_do_not_collide(tmp_path):
    cache = ResultCache(tmp_path)
    other_key = "cd" + "1" * 62
    cache.put(KEY, SPEC, OUTCOME)
    cache.put(other_key, SPEC, {"wall_cycles": 456.0, "tasks": []})
    assert cache.get(KEY)["wall_cycles"] == 123.0
    assert cache.get(other_key)["wall_cycles"] == 456.0


def test_repeated_corruption_keeps_every_piece_of_evidence(tmp_path):
    """One key corrupted thrice: three distinct ``.corrupt`` files.

    Regression: ``os.replace`` onto a fixed ``.corrupt`` name silently
    overwrote the earlier evidence when the same entry was recomputed
    and corrupted again. The quarantine now probes ``.corrupt``,
    ``.corrupt.1``, ``.corrupt.2``, … so nothing is lost.
    """
    cache = ResultCache(tmp_path)
    for rounds in range(3):
        cache.put(KEY, SPEC, OUTCOME)
        cache.path_for(KEY).write_bytes(f"garbage {rounds}".encode())
        assert cache.get(KEY) is None

    parent = cache.path_for(KEY).parent
    evidence = sorted(p.name for p in parent.glob("*.corrupt*"))
    assert evidence == [
        f"{KEY}.json.corrupt",
        f"{KEY}.json.corrupt.1",
        f"{KEY}.json.corrupt.2",
    ]
    assert cache.stats.quarantined == 3
    # Each file still holds the bytes of its own corruption round.
    assert (parent / f"{KEY}.json.corrupt").read_bytes() == b"garbage 0"
    assert (parent / f"{KEY}.json.corrupt.2").read_bytes() == b"garbage 2"
