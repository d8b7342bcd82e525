"""DurabilityManager: write-ahead ordering, checkpoint cadence, loading."""

import errno
import os

import pytest

from repro.durable.manager import DurabilityManager
from repro.errors import ConfigurationError, DurabilityError


def test_record_event_appends_before_anything_else(tmp_path):
    manager = DurabilityManager(tmp_path)
    assert manager.record_event({"kind": "admit", "pid": 1}) == 1
    assert manager.record_event({"kind": "retire", "pid": 1}) == 2
    assert [lsn for lsn, _ in manager.wal.replay(0)] == [1, 2]


def test_note_applied_checkpoints_on_the_interval(tmp_path):
    manager = DurabilityManager(tmp_path, snapshot_interval=3)
    captured = []

    def capture():
        captured.append(True)
        return {"population": len(captured)}

    for event_number in range(1, 7):
        manager.record_event({"n": event_number})
        checkpointed = manager.note_applied(capture)
        assert checkpointed is (event_number % 3 == 0)
    # capture() ran only when a snapshot was actually due.
    assert len(captured) == 2
    assert manager.checkpoints == 2
    state, last_lsn = manager.snapshots.load()
    assert state == {"population": 2} and last_lsn == 6
    # The WAL was compacted behind the snapshot (anchor record only).
    assert [lsn for lsn, _ in manager.wal.replay(last_lsn)] == []


def test_load_returns_snapshot_plus_wal_tail(tmp_path):
    manager = DurabilityManager(tmp_path, snapshot_interval=2)
    for event_number in range(1, 6):  # snapshot at 2 and 4; tail = [5]
        manager.record_event({"n": event_number})
        manager.note_applied(lambda: {"upto": event_number})
    state, snapshot_lsn, tail = DurabilityManager(tmp_path).load()
    assert state == {"upto": 4} and snapshot_lsn == 4
    assert [(lsn, event["n"]) for lsn, event in tail] == [(5, 5)]


def test_load_without_any_state_is_empty(tmp_path):
    state, snapshot_lsn, tail = DurabilityManager(tmp_path / "fresh").load()
    assert state is None and snapshot_lsn == 0 and tail == []


def test_load_falls_back_to_full_wal_on_corrupt_snapshot(tmp_path):
    manager = DurabilityManager(tmp_path, snapshot_interval=100)
    for event_number in range(3):
        manager.record_event({"n": event_number})
    (tmp_path / "snapshot.json").write_text("garbage", encoding="ascii")
    fresh = DurabilityManager(tmp_path)
    state, snapshot_lsn, tail = fresh.load()
    assert state is None and snapshot_lsn == 0
    assert [lsn for lsn, _ in tail] == [1, 2, 3]
    assert fresh.snapshots.corrupt == 1


def test_status_payload(tmp_path):
    manager = DurabilityManager(tmp_path, snapshot_interval=5)
    manager.record_event({"n": 1})
    manager.note_applied(lambda: {})
    status = manager.status()
    assert status["state_dir"] == str(tmp_path)
    assert status["snapshot_interval"] == 5
    assert status["wal_last_lsn"] == 1
    assert status["wal_records_written"] == 1
    assert status["checkpoints"] == 0
    assert status["events_since_snapshot"] == 1


def test_constructor_validation(tmp_path):
    with pytest.raises(ConfigurationError):
        DurabilityManager(tmp_path, snapshot_interval=0)
    blocker = tmp_path / "blocker"
    blocker.write_text("file", encoding="ascii")
    with pytest.raises(ConfigurationError):
        DurabilityManager(blocker)


def test_a_snapshot_claims_the_applied_lsn_not_the_newest_record(tmp_path):
    manager = DurabilityManager(tmp_path, snapshot_interval=2)
    assert manager.record_events([{"n": n} for n in range(1, 5)]) == [1, 2, 3, 4]
    assert manager.wal.fsyncs == 1
    assert manager.note_applied(lambda: {"upto": 1}, 1) is False
    assert manager.note_applied(lambda: {"upto": 2}, 2) is True
    state, snapshot_lsn, tail = DurabilityManager(tmp_path).load()
    assert state == {"upto": 2} and snapshot_lsn == 2
    # Durable but not yet applied when the snapshot was taken: replayed.
    assert [lsn for lsn, _ in tail] == [3, 4]


def test_a_failed_commit_latches_and_refuses_later_work(tmp_path, monkeypatch):
    manager = DurabilityManager(tmp_path, snapshot_interval=1)
    manager.record_events([{"n": 1}])

    def disk_full(fd):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    with monkeypatch.context() as patch:
        patch.setattr(os, "fsync", disk_full)
        with pytest.raises(OSError):
            manager.record_events([{"n": 2}, {"n": 3}])
    with pytest.raises(DurabilityError, match="No space"):
        manager.record_events([{"n": 4}])
    assert "No space" in manager.status()["failure"]
    # No snapshot is attempted once the disk has failed.
    assert manager.note_applied(lambda: {}) is False
    assert manager.checkpoints == 0
