"""Persisted poison-spec quarantine: a durable denylist of spec keys.

A *poison* spec fails terminally every time it runs — a pathological
parameter combination that crashes the simulator, hangs a worker, or
blows the memory budget deterministically. The circuit breaker stops it
within one process, but a resumed campaign (new process, same journal)
would innocently resubmit it and crash the pool every wave all over
again. The quarantine is the breaker's durable memory: when a key's
circuit trips, the orchestrator writes it here, and every later run —
including resume-after-crash — consults the file *before* submitting.

The file is a :class:`~repro.durable.files.LineLog`, like
:class:`~repro.jobs.journal.RunJournal`'s: one JSON line per key,
written with a single ``write``, flushed and fsynced before the caller
proceeds::

    {"version": 1, "key": "<sha256>", "reason": "...", "failures": N}\n

Loading tolerates a torn tail and garbled lines (counted in
:attr:`PoisonQuarantine.corrupt_lines`, never raised), duplicate keys
are benign (last record wins), and a quarantined spec surfaces as a
structured :class:`~repro.jobs.failures.JobFailure` with
``kind='quarantined'`` — flowing into ``SweepResult.failures`` exactly
like PR 2's degradation events, so excluded runs are *named* in the
final report rather than silently rerun or silently dropped.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.durable.files import LineLog

__all__ = ["QUARANTINE_SCHEMA_VERSION", "PoisonQuarantine"]

#: Version of the quarantine line schema; bump to orphan old files.
QUARANTINE_SCHEMA_VERSION = 1


def _decode(record: Dict[str, Any]) -> Dict[str, Any]:
    key = record["key"]
    if not isinstance(key, str) or not key:
        raise ValueError("malformed quarantine record")
    return record


class PoisonQuarantine:
    """Durable key → reason denylist backing the circuit breaker.

    Parameters
    ----------
    path:
        Quarantine file; created (with parents) on the first add. An
        existing directory at this path is rejected immediately.
    """

    def __init__(self, path) -> None:
        self._log = LineLog(path, QUARANTINE_SCHEMA_VERSION, "quarantine")
        self.path = self._log.path
        self.corrupt_lines = 0
        self._records: Dict[str, Dict[str, Any]] = self._load()

    def _load(self) -> Dict[str, Dict[str, Any]]:
        records: Dict[str, Dict[str, Any]] = {}
        self.corrupt_lines = 0
        for record in self._log.read(_decode):
            if record is None:
                self.corrupt_lines += 1
            else:
                records[record["key"]] = record
        return records

    def add(self, key: str, reason: str, failures: int = 0) -> None:
        """Durably quarantine *key* (idempotent; fsynced before return).

        Memory follows the file: the key counts as quarantined only once
        its line is durable, so this process and a resumed one agree.
        """
        record = {"key": key, "reason": str(reason), "failures": int(failures)}
        self._log.append(record)
        self._records[key] = {"version": QUARANTINE_SCHEMA_VERSION, **record}

    def reason(self, key: str) -> Optional[str]:
        """Why *key* is quarantined (``None`` if it is not)."""
        record = self._records.get(key)
        return None if record is None else record.get("reason", "")

    def keys(self):
        """The quarantined keys (sorted)."""
        return sorted(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return (
            f"PoisonQuarantine({str(self.path)!r}, {len(self._records)} key(s))"
        )
