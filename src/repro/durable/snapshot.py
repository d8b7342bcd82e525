"""Checksummed, atomically-published snapshots of service state.

One file (``snapshot.json``) holding a versioned envelope::

    {"version": 1, "last_lsn": 412, "checksum": "<sha256>", "state": {...}}

``checksum`` is the SHA-256 of the canonical JSON of ``{"last_lsn",
"state"}`` — a snapshot that decodes but was torn, bit-flipped, or
hand-edited fails verification and is treated exactly like one that
does not parse.

The envelope is published with the shared atomic write
(:func:`repro.durable.files.publish_atomic`): readers see the old
snapshot or the new one, never a mixture, and a power loss after the
rename cannot surface an empty committed file.

A corrupt snapshot is **quarantined** (:func:`repro.durable.files.quarantine`),
not deleted: it is renamed to a collision-proof
``snapshot.json.corrupt[.N]`` so the evidence survives for post-mortems,
the failure is counted and logged once at warning level, and recovery
falls back to replaying the full WAL — slower, but correct.
"""

from __future__ import annotations

import hashlib
import json
import logging
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.durable.files import canonical_json, publish_atomic, quarantine
from repro.errors import ConfigurationError

__all__ = ["SNAPSHOT_SCHEMA_VERSION", "SnapshotStore"]

logger = logging.getLogger(__name__)

#: Version of the snapshot envelope; bump to orphan old snapshots.
SNAPSHOT_SCHEMA_VERSION = 1


def _checksum(state: Dict[str, Any], last_lsn: int) -> str:
    """SHA-256 over the canonical JSON of the protected payload."""
    text = canonical_json({"last_lsn": last_lsn, "state": state})
    return hashlib.sha256(text.encode("ascii")).hexdigest()


class SnapshotStore:
    """Publishes and loads the service-state snapshot in one directory.

    Parameters
    ----------
    root:
        Directory holding ``snapshot.json``; created on first save. An
        existing non-directory path is rejected immediately.
    """

    FILENAME = "snapshot.json"

    def __init__(self, root) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise ConfigurationError(
                f"snapshot root {self.root} exists and is not a directory"
            )
        self.writes = 0
        self.corrupt = 0
        self._warned = False

    @property
    def path(self) -> Path:
        """Filesystem path of the published snapshot."""
        return self.root / self.FILENAME

    # -- write path ----------------------------------------------------

    def save(self, state: Dict[str, Any], last_lsn: int) -> Path:
        """Atomically publish a snapshot covering WAL records <= *last_lsn*.

        The envelope is fully serialised before any file is touched.
        """
        envelope = canonical_json(
            {
                "version": SNAPSHOT_SCHEMA_VERSION,
                "last_lsn": last_lsn,
                "checksum": _checksum(state, last_lsn),
                "state": state,
            }
        )
        publish_atomic(self.path, envelope + "\n")
        self.writes += 1
        return self.path

    # -- read path -----------------------------------------------------

    def load(self) -> Optional[Tuple[Dict[str, Any], int]]:
        """The newest intact snapshot as ``(state, last_lsn)``, or ``None``.

        Every failure mode — missing file, unreadable bytes, invalid
        JSON, wrong version, checksum mismatch — yields ``None``;
        corrupt files are additionally quarantined so recovery falls
        back to full WAL replay while the evidence survives.
        """
        try:
            text = self.path.read_text(encoding="ascii")
        except (FileNotFoundError, NotADirectoryError):
            return None
        except (OSError, UnicodeDecodeError) as exc:
            self._quarantine(f"unreadable: {exc}")
            return None
        try:
            envelope = json.loads(text)
            if envelope["version"] != SNAPSHOT_SCHEMA_VERSION:
                raise ValueError("snapshot schema version mismatch")
            state = envelope["state"]
            last_lsn = envelope["last_lsn"]
            if not isinstance(state, dict) or not isinstance(last_lsn, int):
                raise ValueError("malformed snapshot envelope")
            if envelope["checksum"] != _checksum(state, last_lsn):
                raise ValueError("snapshot checksum mismatch")
        except (ValueError, KeyError, TypeError) as exc:
            self._quarantine(str(exc))
            return None
        return state, last_lsn

    def _quarantine(self, reason: str) -> None:
        """Move the corrupt snapshot aside (collision-proof) and count it."""
        self.corrupt += 1
        target = quarantine(self.path)
        if target is None:
            return  # raced away or unlinkable; the load already failed safe
        log = logger.warning if not self._warned else logger.debug
        self._warned = True
        log(
            "quarantined corrupt snapshot %s (%s); recovery will replay "
            "the full WAL",
            target,
            reason,
        )

    def __repr__(self) -> str:
        return f"SnapshotStore({str(self.root)!r})"
