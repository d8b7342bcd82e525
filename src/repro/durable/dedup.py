"""Idempotency table for ``(client_id, seq)``-tagged service requests.

A client that times out cannot tell whether its event was applied (the
daemon crashed after processing but before answering) or lost (the
daemon crashed before the WAL append). Resending is only safe when the
server can recognise the retry — that recognition is this table.

Each client's requests carry a monotonically increasing sequence
number. The table remembers, per client, the highest sequence applied
and a bounded window of ``seq -> response`` pairs; a resend inside the
window is answered from memory without touching the scheduler, and a
resend at-or-below the high-water mark outside the window is still
recognised as a duplicate (answered with a synthetic acknowledgement)
rather than applied twice.

The table is part of the durable state: it is captured into snapshots
and — because responses are regenerated whenever an event is re-applied
during WAL replay — rebuilds deterministically during recovery.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = ["DedupTable"]


class DedupTable:
    """Per-client duplicate detection with a bounded response window.

    Parameters
    ----------
    window:
        Responses remembered per client. Retries older than the window
        are still detected as duplicates (via the high-water mark) but
        answered with ``{"duplicate": true}`` instead of the original
        response — correct, since the client has by then acknowledged
        newer sequences.
    """

    def __init__(self, window: int = 64) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        self.window = window
        self.hits = 0
        # client -> (high-water seq, OrderedDict[seq, response])
        self._clients: Dict[str, Tuple[int, "OrderedDict[int, Any]"]] = {}

    def check(self, client: str, seq: int) -> Optional[Dict[str, Any]]:
        """The stored response if ``(client, seq)`` was already applied.

        Returns ``None`` for a fresh request. A recognised duplicate
        increments :attr:`hits`; one older than the response window is
        answered with a synthetic ``{"duplicate": true}`` body.
        """
        entry = self._clients.get(client)
        if entry is None:
            return None
        high, responses = entry
        if seq > high:
            return None
        self.hits += 1
        stored = responses.get(seq)
        if stored is not None:
            return stored
        return {"duplicate": True}

    def seen(self, client: str, seq: int) -> bool:
        """Whether :meth:`check` would answer ``(client, seq)``; counts no hit."""
        entry = self._clients.get(client)
        return entry is not None and seq <= entry[0]

    def remember(self, client: str, seq: int, response: Dict[str, Any]) -> None:
        """Record the response for an applied ``(client, seq)`` request."""
        entry = self._clients.get(client)
        if entry is None:
            responses: "OrderedDict[int, Any]" = OrderedDict()
            high = seq
        else:
            high, responses = entry
            high = max(high, seq)
        responses[seq] = response
        responses.move_to_end(seq)
        while len(responses) > self.window:
            responses.popitem(last=False)
        self._clients[client] = (high, responses)

    # -- snapshot support ----------------------------------------------

    def export_state(self) -> Dict[str, Any]:
        """JSON-native form for snapshots (insertion order preserved)."""
        return {
            "window": self.window,
            "clients": {
                client: {
                    "high": high,
                    "responses": [[seq, resp] for seq, resp in responses.items()],
                }
                for client, (high, responses) in sorted(self._clients.items())
            },
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Replace the table contents from :meth:`export_state` output."""
        self._clients = {}
        for client, entry in state.get("clients", {}).items():
            responses: "OrderedDict[int, Any]" = OrderedDict()
            for seq, resp in entry["responses"]:
                responses[int(seq)] = resp
            self._clients[client] = (int(entry["high"]), responses)

    def __len__(self) -> int:
        """Number of clients with at least one remembered request."""
        return len(self._clients)

    def __repr__(self) -> str:
        return f"DedupTable(window={self.window}, clients={len(self)})"
