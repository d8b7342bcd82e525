"""The durable-file layer every on-disk store in the tree is built on.

One serialisation and three file protocols, each written once:

* :func:`canonical_json` — the unique JSON text of a JSON-native value
  (sorted keys, no whitespace, ASCII only, no NaN/Infinity). Every
  record and envelope below is serialised with it, so the same inputs
  always produce the same bytes.
* :class:`LineLog` — an append-only file of versioned, newline-framed
  records, one per line::

      {"version": 1, ...}\\n

  A committing append is one ``write`` of full lines, flushed and
  ``fsync``-ed before it returns. An append with ``commit=False`` only
  stages its line; the next committing append writes every staged line
  with its own in that one ``write`` and ``fsync``, which is how a
  client commits a group of records for the price of one. If the file
  ends in a torn line (a previous process died mid-append), a newline
  is written first so the fragment stays isolated instead of
  corrupting the new records. Reading yields
  ``None`` for every line that is torn, garbled or of another schema
  version; what a client does about it (skip, or stop) is its policy.
* :func:`publish_atomic` — write-tmp/flush/``fsync``/``os.replace`` in
  the destination directory: readers see the old file or the new one,
  never a mixture, and a power loss after the rename cannot surface an
  empty committed file.
* :func:`quarantine` — move a corrupt file aside to a collision-proof
  ``<name>.corrupt[.N]`` so the evidence survives for post-mortems.

The clients are :class:`~repro.jobs.journal.RunJournal`,
:class:`~repro.supervise.quarantine.PoisonQuarantine` and
:class:`~repro.durable.wal.EventWAL` (line logs), and
:class:`~repro.jobs.cache.ResultCache` and
:class:`~repro.durable.snapshot.SnapshotStore` (atomic publish plus
quarantine). This module imports only :mod:`repro.errors` and the
standard library, so any package may build on it.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    TypeVar,
    Union,
)

from repro.errors import ConfigurationError, JobError

__all__ = ["LineLog", "canonical_json", "publish_atomic", "quarantine"]

T = TypeVar("T")

#: What a corrupt line may raise while it is decoded.
_DECODE_ERRORS = (ValueError, KeyError, TypeError)


def canonical_json(obj: Any) -> str:
    """Serialise *obj* to its unique canonical JSON text.

    Only JSON-native types (dict/list/str/int/float/bool/None) are
    accepted; anything else — including NaN and Infinity — raises
    :class:`~repro.errors.JobError`, because such values have no stable
    canonical encoding.
    """
    try:
        return json.dumps(
            obj,
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=True,
            allow_nan=False,
        )
    except (TypeError, ValueError) as exc:
        raise JobError(f"object has no canonical JSON form: {exc}") from exc


class LineLog:
    """Versioned, fsynced, newline-framed JSON records in one file.

    Parameters
    ----------
    path:
        Log file; created (with parents) on the first append. An
        existing directory at this path is rejected immediately.
    version:
        Schema version stamped on every record; lines carrying another
        version read as corrupt.
    what:
        Name of the log in error messages (``"journal"``, ``"WAL"``…).
    """

    def __init__(self, path: Union[str, Path], version: int, what: str) -> None:
        self.path = Path(path)
        if self.path.is_dir():
            raise ConfigurationError(f"{what} path {self.path} is a directory")
        self.version = version
        self._staged: List[bytes] = []

    def _line(self, record: Dict[str, Any]) -> str:
        """The exact text of *record* as one line of this log."""
        return canonical_json({"version": self.version, **record}) + "\n"

    def append(self, record: Dict[str, Any], commit: bool = True) -> None:
        """Append *record* as one line; durable once a commit returns.

        With ``commit=True`` (the default) the staged lines and this
        one are written in one ``write``, flushed and fsynced before the
        call returns. With ``commit=False`` the line is only staged in
        memory for the next committing append. Either way the line is
        fully serialised before the file is touched, and an append that
        raises drops every staged line with it, so a group of records
        is committed whole or not by this process at all. The torn-tail
        check reads the last byte through the same ``a+b`` handle the
        lines are written with, so a commit costs one open.
        """
        staged, self._staged = self._staged, []
        staged.append(self._line(record).encode("ascii"))
        if not commit:
            self._staged = staged
            return
        data = b"".join(staged)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a+b") as handle:
            if handle.tell() > 0:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    data = b"\n" + data
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def read(
        self, decode: Callable[[Dict[str, Any]], T]
    ) -> Iterator[Optional[T]]:
        """``decode(record)`` per non-blank line, ``None`` where corrupt.

        A line is corrupt when it does not parse, is not of this log's
        version, or *decode* raises ``ValueError``, ``KeyError`` or
        ``TypeError`` on it. An unreadable file yields a single
        ``None``; a missing one yields nothing.
        """
        try:
            text = self.path.read_text(encoding="ascii")
        except FileNotFoundError:
            return
        except (OSError, UnicodeDecodeError):
            yield None
            return
        for line in text.split("\n"):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if record["version"] != self.version:
                    raise ValueError("schema version mismatch")
                decoded = decode(record)
            except _DECODE_ERRORS:
                yield None
                continue
            yield decoded

    def rewrite(self, records: Iterable[Dict[str, Any]]) -> None:
        """Atomically replace the whole log with exactly *records*."""
        publish_atomic(self.path, "".join(self._line(r) for r in records))


def publish_atomic(path: Union[str, Path], text: str) -> None:
    """Atomically and durably install *text* as the file at *path*.

    The text is staged in a temporary file in the destination directory
    (created with parents), flushed, ``fsync``-ed, then installed with
    ``os.replace`` — a crash at any point leaves the old complete file
    or the new one. On any exception, interrupts included, the
    temporary file is removed before the exception propagates.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="ascii") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass  # already renamed or never created; nothing to clean
        raise


def quarantine(path: Union[str, Path]) -> Optional[Path]:
    """Move a corrupt file aside; returns where it went, or ``None``.

    The destination is ``<name>.corrupt``, or ``<name>.corrupt.1``,
    ``.corrupt.2``, … when earlier evidence already holds that name, so
    a file corrupted twice never overwrites the first post-mortem.
    Rename failures (the file vanished under us, say) return ``None``:
    quarantine is best-effort evidence preservation, never an error.
    """
    path = Path(path)
    target = path.with_name(path.name + ".corrupt")
    counter = 0
    while target.exists():
        counter += 1
        target = path.with_name(f"{path.name}.corrupt.{counter}")
    try:
        # The file is already corrupt; losing this rename in a crash
        # costs nothing — fsync-then-replace durability (RPR201) is
        # only owed to data we still trust.
        os.replace(path, target)  # repro: noqa[RPR201]
    except OSError:
        return None
    return target
