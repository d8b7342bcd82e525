"""On-disk, content-addressed result cache for simulation runs.

Layout: ``<root>/<key[:2]>/<key>.json`` — two-character fan-out keeps
directories small for large sweeps. Each file is a versioned envelope::

    {"version": 1, "key": "<sha256>", "spec": {...}, "outcome": {...}}

Guarantees:

* **Atomic, durable writes** — results are installed with the shared
  :func:`repro.durable.files.publish_atomic` (temporary file in the
  destination directory, ``fsync``, ``os.replace``), so readers never
  observe a torn file, a power loss cannot leave a zero-length
  "committed" entry, and concurrent writers of the same key simply race
  to install identical bytes.
* **Corruption tolerance with quarantine** — unreadable, truncated,
  mis-keyed or wrong-version entries are treated as misses (and
  counted), never raised; the offending file is renamed to
  ``<name>.json.corrupt[.N]`` (:func:`repro.durable.files.quarantine`)
  so the evidence survives for post-mortems
  while the entry is transparently recomputed. The first quarantine per
  cache instance is logged at warning level, the rest at debug — one
  loud signal, no log spam.
* **Versioned schema** — :data:`CACHE_SCHEMA_VERSION` is embedded in the
  envelope; bumping it orphans old entries instead of misreading them.

The cache stores *summaries* (the picklable/JSON outcome of a run), not
simulator objects, so entries are stable across refactors of the live
code paths as long as the spec schema holds.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from repro.durable.files import canonical_json, publish_atomic, quarantine
from repro.errors import ConfigurationError

__all__ = ["CACHE_SCHEMA_VERSION", "CacheStats", "ResultCache"]

logger = logging.getLogger(__name__)

#: Version of the on-disk envelope; bump to orphan incompatible entries.
CACHE_SCHEMA_VERSION = 1


@dataclass
class CacheStats:
    """Read/write tallies of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    quarantined: int = 0
    writes: int = 0


class ResultCache:
    """Content-addressed store of run outcomes under one root directory.

    Parameters
    ----------
    root:
        Cache directory; created on first write. An existing
        non-directory path is rejected immediately rather than failing
        with an opaque error on the first write mid-sweep.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise ConfigurationError(
                f"cache root {self.root} exists and is not a directory"
            )
        self.stats = CacheStats()

    def path_for(self, key: str) -> Path:
        """Filesystem path of a key's envelope."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the cached outcome for *key*, or ``None`` on a miss.

        Every failure mode — missing file, unreadable bytes, invalid
        JSON, version or key mismatch, missing outcome field — is a miss;
        corrupt entries additionally bump ``stats.corrupt`` and are
        quarantined (renamed to ``<name>.json.corrupt``) so the evidence
        survives while the next ``put`` reinstalls a clean entry.
        """
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="ascii")
        except (FileNotFoundError, NotADirectoryError):
            self.stats.misses += 1
            return None
        except (OSError, UnicodeDecodeError) as exc:
            self.stats.misses += 1
            self._quarantine(path, f"unreadable: {exc}")
            return None
        try:
            envelope = json.loads(text)
            if envelope["version"] != CACHE_SCHEMA_VERSION:
                raise ValueError("schema version mismatch")
            if envelope["key"] != key:
                raise ValueError("key mismatch")
            outcome = envelope["outcome"]
            if not isinstance(outcome, dict):
                raise ValueError("outcome is not an object")
        except (ValueError, KeyError, TypeError) as exc:
            self.stats.misses += 1
            self._quarantine(path, str(exc))
            return None
        self.stats.hits += 1
        return outcome

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry aside (``.corrupt[.N]`` suffix) and count it.

        The first quarantine per cache instance logs at warning level so
        the operator sees one loud signal; subsequent ones log at debug.
        A failed rename (the file vanished under us) counts the entry as
        corrupt but not as quarantined.
        """
        self.stats.corrupt += 1
        level = logging.WARNING if self.stats.quarantined == 0 else logging.DEBUG
        if quarantine(path) is None:
            return
        self.stats.quarantined += 1
        logger.log(
            level,
            "quarantined corrupt cache entry %s (%s)",
            path,
            reason,
        )

    def put(self, key: str, spec: Dict[str, Any], outcome: Dict[str, Any]) -> Path:
        """Atomically store *outcome* (and its spec, for auditing).

        A crash mid-write never leaves a partially written entry under
        the final name, and a power loss immediately after the publish
        cannot surface a committed-but-empty file.
        """
        path = self.path_for(key)
        envelope = {
            "version": CACHE_SCHEMA_VERSION,
            "key": key,
            "spec": spec,
            "outcome": outcome,
        }
        publish_atomic(path, canonical_json(envelope))
        self.stats.writes += 1
        return path
