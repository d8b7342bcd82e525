"""The durability facade the scheduling daemon talks to.

:class:`DurabilityManager` owns one state directory::

    <state_dir>/events.wal      append-only event WAL
    <state_dir>/snapshot.json   newest checksummed state snapshot

and composes the two halves into the classic WAL-plus-checkpoint
discipline:

* :meth:`DurabilityManager.record_events` durably appends a group of
  event payloads with one fsync *before* the daemon applies any of
  them (write-ahead order — a crash can lose an unanswered event,
  never an answered one);
* :meth:`DurabilityManager.note_applied` counts applied events and,
  every ``snapshot_interval`` of them, publishes a snapshot at the
  applied event's LSN and compacts the WAL behind it, bounding both
  recovery time and log size. The LSN is the applied event's, not the
  newest record's: mid-group, the records after it are durable but
  not yet in the state, and recovery must still replay them;
* :meth:`DurabilityManager.load` hands recovery the newest intact
  snapshot plus the WAL tail past it.

A commit that fails on the disk is fail-stop: the manager records the
failure (shown by :meth:`~DurabilityManager.status`) and refuses every
later append, because after a failed ``fsync`` the kernel may have
dropped the written pages, so a later commit that succeeds would not
prove the earlier records durable. A restart recovers from what the
disk holds.

All ``durable_*`` metrics live here, behind the house telemetry guard
— with telemetry disabled the manager makes no metric or clock calls.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.durable.snapshot import SnapshotStore
from repro.durable.wal import EventWAL
from repro.errors import ConfigurationError, DurabilityError
from repro.telemetry.context import current as telemetry_current
from repro.telemetry.metrics import DURATION_BUCKETS

__all__ = ["DurabilityManager"]

#: Bucket boundaries (events) of the ``durable_commit_batch_events``
#: histogram: powers of two up to the daemon's default queue capacity.
COMMIT_BATCH_BUCKETS = tuple(float(1 << k) for k in range(11))


class DurabilityManager:
    """WAL + snapshot lifecycle for one service state directory.

    Parameters
    ----------
    state_dir:
        Directory holding the WAL and snapshot (created on demand).
    snapshot_interval:
        Applied events between published snapshots. Smaller values
        bound recovery replay tighter at the cost of more snapshot
        writes; ``1`` snapshots after every event.
    """

    def __init__(self, state_dir, snapshot_interval: int = 256) -> None:
        if snapshot_interval < 1:
            raise ConfigurationError(
                f"snapshot_interval must be >= 1, got {snapshot_interval}"
            )
        self.state_dir = Path(state_dir)
        if self.state_dir.exists() and not self.state_dir.is_dir():
            raise ConfigurationError(
                f"state_dir {self.state_dir} exists and is not a directory"
            )
        self.snapshot_interval = snapshot_interval
        self.wal = EventWAL(self.state_dir / "events.wal")
        self.snapshots = SnapshotStore(self.state_dir)
        self.events_since_snapshot = 0
        self.checkpoints = 0
        #: The disk error that stopped the WAL or a snapshot; ``None`` while
        #: healthy.
        self.failure: Optional[str] = None

    # -- write-ahead path ----------------------------------------------

    def record_event(self, payload: Dict[str, Any]) -> int:
        """Durably log one event payload; returns its LSN."""
        return self.record_events([payload])[0]

    def record_events(self, payloads: Sequence[Dict[str, Any]]) -> List[int]:
        """Durably log a group of event payloads; returns their LSNs.

        Each payload is one :meth:`EventWAL.append`: all but the last
        are staged, and the last commits the group with one ``write``
        and one ``fsync``. Must be called *before* any of the events is
        applied — that ordering is the whole crash-consistency argument.
        A disk error here or in :meth:`checkpoint` latches
        :attr:`failure` and propagates; from then on every call raises
        :class:`~repro.errors.DurabilityError` without touching the
        file (see the module docstring).
        """
        if self.failure is not None:
            raise DurabilityError(
                f"the WAL refuses appends after a disk error: {self.failure}"
            )
        if not payloads:
            return []
        tel = telemetry_current()
        metrics = tel.metrics if tel is not None else None
        *staged, last = payloads
        try:
            lsns = [self.wal.append(p, commit=False) for p in staged]
            started = time.perf_counter() if metrics is not None else 0.0
            lsns.append(self.wal.append(last))
        except OSError as exc:
            self.failure = f"{type(exc).__name__}: {exc}"
            raise
        if metrics is not None:
            metrics.histogram(
                "durable_fsync_seconds", DURATION_BUCKETS
            ).observe(time.perf_counter() - started)
            metrics.histogram(
                "durable_commit_batch_events", COMMIT_BATCH_BUCKETS
            ).observe(len(payloads))
            metrics.counter("durable_wal_records_total").inc(len(payloads))
            metrics.counter("durable_wal_fsyncs_total").inc()
        return lsns

    def note_applied(
        self, capture: Callable[[], Dict[str, Any]], lsn: Optional[int] = None
    ) -> bool:
        """Count one applied event; snapshot when the interval elapses.

        *lsn* is the applied event's LSN, which the snapshot then
        claims to cover; ``None`` means the newest record, right only
        when every logged record has been applied. *capture* is called
        only when a snapshot is actually due, so the common path stays
        free of state serialisation. After a failure no snapshot is
        attempted.
        """
        self.events_since_snapshot += 1
        if (
            self.failure is not None
            or self.events_since_snapshot < self.snapshot_interval
        ):
            return False
        self.checkpoint(capture(), lsn)
        return True

    def checkpoint(self, state: Dict[str, Any], lsn: Optional[int] = None) -> None:
        """Publish a snapshot of *state* and compact the WAL behind it.

        *state* must hold exactly the events up to *lsn* (default: the
        newest record); records past it stay in the WAL for replay.
        """
        last = self.wal.last_lsn if lsn is None else lsn
        try:
            self.snapshots.save(state, last)
            self.wal.compact(last)
        except OSError as exc:
            self.failure = f"{type(exc).__name__}: {exc}"
            raise
        self.events_since_snapshot = 0
        self.checkpoints += 1
        tel = telemetry_current()
        if tel is not None and tel.metrics is not None:
            tel.metrics.counter("durable_snapshots_total").inc()

    # -- recovery path -------------------------------------------------

    def load(
        self,
    ) -> Tuple[Optional[Dict[str, Any]], int, List[Tuple[int, Dict[str, Any]]]]:
        """``(snapshot_state, snapshot_lsn, wal_tail)`` for recovery.

        A missing or corrupt snapshot (quarantined by the store) yields
        ``(None, 0, <full WAL>)`` — recovery falls back to replaying
        everything. Corrupt snapshots are surfaced in the
        ``durable_snapshot_corrupt_total`` metric.
        """
        corrupt_before = self.snapshots.corrupt
        loaded = self.snapshots.load()
        tel = telemetry_current()
        if tel is not None and tel.metrics is not None:
            delta = self.snapshots.corrupt - corrupt_before
            if delta:
                tel.metrics.counter("durable_snapshot_corrupt_total").inc(
                    delta
                )
        if loaded is None:
            state: Optional[Dict[str, Any]] = None
            snapshot_lsn = 0
        else:
            state, snapshot_lsn = loaded
        return state, snapshot_lsn, self.wal.replay(snapshot_lsn)

    # -- introspection -------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """JSON-native durability summary for the ``status`` endpoint."""
        return {
            "state_dir": str(self.state_dir),
            "snapshot_interval": self.snapshot_interval,
            "wal_last_lsn": self.wal.last_lsn,
            "wal_records_written": self.wal.records_written,
            "wal_fsyncs": self.wal.fsyncs,
            "checkpoints": self.checkpoints,
            "failure": self.failure,
            "snapshot_writes": self.snapshots.writes,
            "snapshots_corrupt": self.snapshots.corrupt,
            "events_since_snapshot": self.events_since_snapshot,
        }

    def __repr__(self) -> str:
        return f"DurabilityManager({str(self.state_dir)!r})"
