"""Write-ahead journal of completed run specs (checkpoint/resume).

An hours-long sweep interrupted at 90% should re-execute 10%, not 100%.
The journal is the crash-safe record that makes that possible: one
append-only file where every *completed* spec is recorded as a single
JSON line *before* its outcome is reported to the caller::

    {"version": 1, "key": "<sha256>", "outcome": {...}}\n

The file is a :class:`~repro.durable.files.LineLog`, which supplies the
recovery rules (what makes it a WAL rather than a log):

* every record is written as one ``write()`` of a full line, flushed and
  ``fsync``-ed before :meth:`RunJournal.record` returns — a completed
  spec survives a power loss;
* an append after a torn tail starts on a fresh line, and
  :meth:`RunJournal.load` skips any line that does not parse as a valid
  record (counting it in :attr:`RunJournal.corrupt_lines`) — an
  interrupted append never poisons the journal;
* duplicate keys are benign (last record wins) — re-running a batch that
  partially journaled is idempotent.

The journal is *per sweep run* and self-contained (outcomes inline), so
resuming needs neither the result cache nor re-execution of finished
specs; the orchestrator consults it before the cache.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.durable.files import LineLog

__all__ = ["JOURNAL_SCHEMA_VERSION", "RunJournal"]

#: Version of the journal line schema; bump to orphan old journals.
JOURNAL_SCHEMA_VERSION = 1


def _decode(record: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
    key = record["key"]
    outcome = record["outcome"]
    if not isinstance(key, str) or not isinstance(outcome, dict):
        raise ValueError("malformed journal record")
    return key, outcome


class RunJournal:
    """Append-only record of completed spec keys and their outcomes.

    Parameters
    ----------
    path:
        Journal file; created (with parents) on the first record. An
        existing directory at this path is rejected immediately.
    """

    def __init__(self, path) -> None:
        self._log = LineLog(path, JOURNAL_SCHEMA_VERSION, "journal")
        self.path = self._log.path
        self.corrupt_lines = 0
        self.records_written = 0

    def load(self) -> Dict[str, Dict[str, Any]]:
        """Replay the journal: key -> outcome for every intact record.

        Torn or garbled lines (interrupted appends, disk corruption) are
        skipped and counted — never raised — so a crashed sweep's journal
        always loads.
        """
        replayed: Dict[str, Dict[str, Any]] = {}
        self.corrupt_lines = 0
        for entry in self._log.read(_decode):
            if entry is None:
                self.corrupt_lines += 1
            else:
                replayed[entry[0]] = entry[1]
        return replayed

    def record(self, key: str, outcome: Dict[str, Any]) -> None:
        """Durably append one completed spec (single line, fsynced).

        A crash leaves at worst one torn *trailing* line, which
        :meth:`load` skips and the next record starts a fresh line after.
        """
        self._log.append({"key": key, "outcome": outcome})
        self.records_written += 1

    def __len__(self) -> int:
        """Number of intact records currently in the journal file."""
        return len(self.load())

    def __repr__(self) -> str:
        return f"RunJournal({str(self.path)!r})"
