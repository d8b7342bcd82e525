"""The event write-ahead log: fsynced, sequence-numbered, torn-tail safe.

One :class:`~repro.durable.files.LineLog` of event records::

    {"version": 1, "lsn": 17, "event": {"kind": "admit", ...}}\n

The shared line log supplies the durability. A committing
:meth:`EventWAL.append` writes its line, and every line staged by the
non-committing appends before it, in one ``write``, flushed and
``fsync``-ed before it returns — one fsync per group of records, not
per record. A record is durable, and may be acknowledged, only once
the commit that wrote it has returned, so neither ``kill -9`` nor a
power loss loses an acknowledged record. Each record carries a monotonically
increasing **log sequence number** (LSN), which is what makes this a
WAL rather than a plain journal:

* replay is ordered and gap-checked — a record whose LSN does not
  continue the sequence marks the end of trustworthy history, so a
  corrupted *middle* can never splice stale events into a recovery;
* snapshots record the LSN they cover, and replay starts strictly
  after it — an event is applied at most once across any number of
  crash/recover cycles;
* :meth:`EventWAL.compact` discards records a published snapshot
  already covers, through the shared atomic publish
  (:func:`~repro.durable.files.publish_atomic`), so the log's length
  is bounded by the snapshot interval rather than by uptime.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.durable.files import LineLog

__all__ = ["WAL_SCHEMA_VERSION", "EventWAL"]

#: Version of the WAL record schema; bump to orphan old logs.
WAL_SCHEMA_VERSION = 1


def _decode(record: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
    lsn = record["lsn"]
    event = record["event"]
    if not isinstance(lsn, int) or not isinstance(event, dict):
        raise ValueError("malformed WAL record")
    return lsn, event


class EventWAL:
    """Append-only, LSN-ordered event log under one file path.

    Parameters
    ----------
    path:
        Log file; created (with parents) on the first append. An
        existing directory at this path is rejected immediately.
    """

    def __init__(self, path) -> None:
        self._log = LineLog(path, WAL_SCHEMA_VERSION, "WAL")
        self.path = self._log.path
        #: Records made durable, and the fsyncs that made them so.
        self.records_written = 0
        self.fsyncs = 0
        self._staged = 0  # records appended since the last commit
        self.corrupt_lines = 0
        self._next_lsn: Optional[int] = None  # lazily seeded from the file

    # -- write path ----------------------------------------------------

    def _ensure_open(self) -> None:
        """Seed the LSN counter and repair the log file, exactly once.

        A torn trailing line (previous process died mid-append) or a
        garbled suffix is **truncated away** before the first append:
        replay is strict — it stops at the first corruption — so new
        records written *behind* garbage would be durable yet
        invisible. Truncation is safe because ``append`` acknowledges a
        record only after its full line is written; anything replay
        distrusts was never acknowledged to a client.
        """
        if self._next_lsn is not None:
            return
        records = self.replay(0)
        if self.corrupt_lines > 0:
            self._log.rewrite({"lsn": n, "event": e} for n, e in records)
        self._next_lsn = (records[-1][0] + 1) if records else 1

    @property
    def last_lsn(self) -> int:
        """LSN of the newest durable record (0 when the log is empty)."""
        self._ensure_open()
        assert self._next_lsn is not None
        return self._next_lsn - 1

    def append(self, event: Dict[str, Any], commit: bool = True) -> int:
        """Append one event payload under the next LSN; returns the LSN.

        With ``commit=True`` the record, and every record staged before
        it, is durable when this returns (one fsync); ``commit=False``
        only stages it for the next committing append. A crash
        mid-commit leaves a whole-record prefix of the group plus at
        worst one torn trailing line — truncated by the next process's
        first append (see :meth:`_ensure_open`) and skipped by replay.
        A failed append forgets the LSN counter, so the next one
        re-reads the file rather than trust numbers the disk never got.
        """
        lsn = self.last_lsn + 1
        try:
            self._log.append({"lsn": lsn, "event": event}, commit=commit)
        except BaseException:
            self._next_lsn = None
            self._staged = 0
            raise
        self._next_lsn = lsn + 1
        self._staged += 1
        if commit:
            self.fsyncs += 1
            self.records_written += self._staged
            self._staged = 0
        return lsn

    # -- read path -----------------------------------------------------

    def replay(self, after_lsn: int) -> List[Tuple[int, Dict[str, Any]]]:
        """Intact records with LSN strictly greater than *after_lsn*.

        Replay stops at the first torn, garbled, or out-of-sequence
        line (counted in :attr:`corrupt_lines`, never raised): records
        past a corruption have no trustworthy ordering, and trusting
        them could apply events out of order — worse than losing the
        tail, which clients simply retry.
        """
        self.corrupt_lines = 0
        records: List[Tuple[int, Dict[str, Any]]] = []
        expected: Optional[int] = None
        for entry in self._log.read(_decode):
            if entry is None or (expected is not None and entry[0] != expected):
                self.corrupt_lines += 1
                break
            expected = entry[0] + 1
            if entry[0] > after_lsn:
                records.append(entry)
        return records

    # -- maintenance ---------------------------------------------------

    def compact(self, up_to_lsn: int) -> int:
        """Drop records with LSN <= *up_to_lsn*; returns records kept.

        The survivors are published atomically — a crash mid-compaction
        leaves either the old complete log or the new complete log,
        never a mixture. The newest record is always retained even when
        the snapshot covers it: it anchors the LSN sequence, so a
        process reopening a fully-compacted log continues numbering
        instead of colliding with history.
        """
        last = self.last_lsn  # seeds the counter (and repairs) first
        intact = self.replay(0)
        survivors = [(lsn, ev) for lsn, ev in intact if lsn > up_to_lsn]
        if not survivors and intact:
            survivors = [intact[-1]]
        self._log.rewrite({"lsn": n, "event": e} for n, e in survivors)
        self._next_lsn = last + 1  # LSNs keep counting across compactions
        return len(survivors)

    def __len__(self) -> int:
        """Number of intact records currently in the log file."""
        return len(self.replay(0))

    def __repr__(self) -> str:
        return f"EventWAL({str(self.path)!r})"
