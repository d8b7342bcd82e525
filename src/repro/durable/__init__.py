"""Crash consistency for the online scheduling service.

The daemon in :mod:`repro.service` holds its entire world — the live
process registry, the streaming EWMA footprint estimates, and the
incremental mapper's partition — in memory. This package makes that
world survive ``kill -9``:

* :mod:`~repro.durable.files` — the durable-file layer every on-disk
  store in the tree shares: canonical JSON, the fsynced torn-tail-safe
  :class:`~repro.durable.files.LineLog`, atomic publish
  (write-tmp/fsync/rename) and corrupt-file quarantine. The run
  journal, the poison quarantine and the result cache build on it too.
* :class:`~repro.durable.wal.EventWAL` — an LSN-ordered write-ahead
  log on a :class:`~repro.durable.files.LineLog`: every scheduling
  event is durably appended *before* the daemon applies it, so a crash
  can lose at most an event the client never got an answer for (and
  will retry).
* :class:`~repro.durable.snapshot.SnapshotStore` — periodic checksummed
  snapshots of the full service state, published atomically, with
  corrupt snapshots quarantined, never trusted.
* :mod:`~repro.durable.state` — the (de)serialisation of service state
  to a canonical JSON-native form, plus a fingerprint over it; the
  recovery equivalence tests compare fingerprints, not prose.
* :class:`~repro.durable.dedup.DedupTable` — the idempotency table that
  lets reconnecting clients resend their last request ``(client_id,
  seq)`` without it ever being applied twice.
* :class:`~repro.durable.manager.DurabilityManager` — the facade the
  daemon talks to: WAL append per event, snapshot every N events, WAL
  compaction behind each published snapshot, and the
  ``durable_*`` metrics.

Recovery (``SchedulerService.recover``) loads the newest intact
snapshot, replays the WAL tail through the daemon's own event handler,
and must land on a state byte-identical to an uninterrupted run — the
kill-at-every-index test in ``tests/durable/test_recovery.py`` pins
exactly that.
"""

from __future__ import annotations

from repro.durable.dedup import DedupTable
from repro.durable.manager import DurabilityManager
from repro.durable.snapshot import SnapshotStore
from repro.durable.state import capture_state, restore_state, state_fingerprint
from repro.durable.wal import EventWAL

__all__ = [
    "DedupTable",
    "DurabilityManager",
    "EventWAL",
    "SnapshotStore",
    "capture_state",
    "restore_state",
    "state_fingerprint",
]
