"""The durability facade the scheduling daemon talks to.

:class:`DurabilityManager` owns one state directory::

    <state_dir>/events.wal      append-only event WAL
    <state_dir>/snapshot.json   newest checksummed state snapshot

and composes the two halves into the classic WAL-plus-checkpoint
discipline:

* :meth:`DurabilityManager.record_event` durably appends an event
  payload *before* the daemon applies it (write-ahead order — a crash
  can lose an unanswered event, never an answered one);
* :meth:`DurabilityManager.note_applied` counts applied events and,
  every ``snapshot_interval`` of them, publishes a snapshot and
  compacts the WAL behind it, bounding both recovery time and log
  size;
* :meth:`DurabilityManager.load` hands recovery the newest intact
  snapshot plus the WAL tail past it.

All ``durable_*`` metrics live here, behind the house telemetry guard
— with telemetry disabled the manager makes no metric or clock calls.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.durable.snapshot import SnapshotStore
from repro.durable.wal import EventWAL
from repro.errors import ConfigurationError
from repro.telemetry.context import current as telemetry_current

__all__ = ["DurabilityManager"]


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

    # -- write-ahead path ----------------------------------------------

    def record_event(self, payload: Dict[str, Any]) -> int:
        """Durably log one event payload; returns its LSN.

        Must be called *before* the event is applied — that ordering is
        the whole crash-consistency argument.
        """
        lsn = self.wal.append(payload)
        tel = telemetry_current()
        if tel is not None and tel.metrics is not None:
            tel.metrics.counter("durable_wal_records_total").inc()
            tel.metrics.counter("durable_wal_fsyncs_total").inc()
        return lsn

    def note_applied(
        self, capture: Callable[[], Dict[str, Any]]
    ) -> bool:
        """Count one applied event; snapshot when the interval elapses.

        *capture* is called only when a snapshot is actually due, so
        the common path stays free of state serialisation.
        """
        self.events_since_snapshot += 1
        if self.events_since_snapshot < self.snapshot_interval:
            return False
        self.checkpoint(capture())
        return True

    def checkpoint(self, state: Dict[str, Any]) -> None:
        """Publish a snapshot of *state* and compact the WAL behind it."""
        last = self.wal.last_lsn
        self.snapshots.save(state, last)
        self.wal.compact(last)
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
            "snapshot_writes": self.snapshots.writes,
            "snapshots_corrupt": self.snapshots.corrupt,
            "events_since_snapshot": self.events_since_snapshot,
        }

    def __repr__(self) -> str:
        return f"DurabilityManager({str(self.state_dir)!r})"
