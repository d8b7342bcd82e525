"""(De)serialisation of the full scheduler-service state.

:func:`capture_state` folds every piece of mutable daemon state —
process registry (with its EWMA footprint floats), incremental mapper
partition and counters, circuit breaker, idempotency table, and the
event counters — into one canonical JSON-native dictionary;
:func:`restore_state` is its exact inverse on a freshly constructed
service.

The round-trip is **bit-exact**: floats survive JSON because Python's
``repr`` is the shortest round-trip representation, and every container
is written in a canonical order. That exactness is what lets the
recovery tests compare :func:`state_fingerprint` digests instead of
hand-picking fields — if any byte of recovered state differs from the
uninterrupted oracle, the fingerprints differ.

A snapshot also embeds the service configuration it was taken under;
:func:`restore_state` refuses to load it into a differently-configured
service, because mapper partitions and breaker waves are only
meaningful relative to those tunables.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any, Dict

from repro.durable.files import canonical_json
from repro.errors import ServiceError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.service.daemon import SchedulerService

__all__ = ["STATE_SCHEMA_VERSION", "capture_state", "restore_state",
           "state_fingerprint"]

#: Version of the captured-state layout; bump to orphan old snapshots.
STATE_SCHEMA_VERSION = 1

#: Config fields that must match between snapshot and restoring service.
_CONFIG_FIELDS = (
    "num_cores",
    "queue_capacity",
    "drift_threshold",
    "capacity_lines",
    "ewma_alpha",
    "breaker_threshold",
    "breaker_cooldown_waves",
    "wave_events",
    "flap_window",
    "flap_threshold",
)


def _config_payload(service: "SchedulerService") -> Dict[str, Any]:
    """The determinism-relevant config fields as a JSON-native dict."""
    return {
        field: getattr(service.config, field) for field in _CONFIG_FIELDS
    }


def capture_state(service: "SchedulerService") -> Dict[str, Any]:
    """Everything a recovered daemon needs, as one JSON-native dict."""
    return {
        "schema": STATE_SCHEMA_VERSION,
        "config": _config_payload(service),
        "registry": service.registry.export_state(),
        "mapper": service.mapper.export_state(),
        "breaker": service.breaker.export_state(),
        "dedup": service.dedup.export_state(),
        "counters": {
            "events_processed": service.events_processed,
            "events_ok": service.events_ok,
            "events_rejected": service.events_rejected,
            "events_dropped": service.events_dropped,
            "events_deduped": service.events_deduped,
            "events_since_wave": service._events_since_wave,
        },
    }


def restore_state(service: "SchedulerService", state: Dict[str, Any]) -> None:
    """Load :func:`capture_state` output into a fresh service.

    Raises :class:`~repro.errors.ServiceError` when the snapshot's
    schema or embedded configuration does not match the restoring
    service — restoring mapper partitions under different tunables
    would produce a daemon that *looks* recovered but diverges from
    the oracle on the next event.
    """
    if state.get("schema") != STATE_SCHEMA_VERSION:
        raise ServiceError(
            f"snapshot state schema {state.get('schema')!r} does not match "
            f"supported version {STATE_SCHEMA_VERSION}"
        )
    expected = _config_payload(service)
    if state["config"] != expected:
        diffs = sorted(
            field
            for field in _CONFIG_FIELDS
            if state["config"].get(field) != expected[field]
        )
        raise ServiceError(
            "snapshot was taken under a different service configuration "
            f"(mismatched fields: {', '.join(diffs) or 'unknown'})"
        )
    service.registry.restore(state["registry"])
    service.mapper.restore(state["mapper"])
    service.breaker.restore(state["breaker"])
    service.dedup.restore(state["dedup"])
    counters = state["counters"]
    service.events_processed = int(counters["events_processed"])
    service.events_ok = int(counters["events_ok"])
    service.events_rejected = int(counters["events_rejected"])
    service.events_dropped = int(counters["events_dropped"])
    service.events_deduped = int(counters["events_deduped"])
    service._events_since_wave = int(counters["events_since_wave"])


def state_fingerprint(state: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of a captured state.

    Two services with equal fingerprints are byte-identical in every
    durable dimension — registry floats included.
    """
    return hashlib.sha256(
        canonical_json(state).encode("ascii")
    ).hexdigest()
