"""TLB and page-fault models for the Figure 2 counter comparison.

The paper's motivation (Section 2.2, Figure 2) is that event-based
performance counters — L2 miss counts, TLB misses, page faults — do *not*
track the cache working set over time. To regenerate that figure we need
those counters, so this module models:

* :class:`TLB` — a small LRU translation buffer over virtual page numbers;
* :class:`PageFaultTracker` — first-touch (minor) page faults with an
  optional resident-set limit evicting least-recently-used pages.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

from repro.utils.validation import require_positive

__all__ = ["TLB", "PageFaultTracker"]


class TLB:
    """Fully-associative LRU TLB.

    Parameters
    ----------
    entries:
        Number of translations held (e.g. 64 for a classic D-TLB).
    page_bytes:
        Page size used to derive page numbers from byte addresses.
    """

    def __init__(self, entries: int = 64, page_bytes: int = 4096):
        self.entries = require_positive(entries, "entries")
        self.page_bytes = require_positive(page_bytes, "page_bytes")
        self._page_shift = (page_bytes - 1).bit_length()
        self._table: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def page_of(self, address: int) -> int:
        """Virtual page number of a byte address."""
        return address >> self._page_shift

    def access_pages(self, pages: np.ndarray) -> int:
        """Access a sequence of page numbers; returns the batch miss count."""
        table = self._table
        entries = self.entries
        misses = 0
        for page in pages.tolist():
            if page in table:
                table.move_to_end(page)
                self.hits += 1
            else:
                misses += 1
                self.misses += 1
                table[page] = None
                if len(table) > entries:
                    table.popitem(last=False)
        return misses

    def access_addresses(self, addresses: np.ndarray) -> int:
        """Access byte addresses (pages derived internally)."""
        return self.access_pages(
            np.asarray(addresses, dtype=np.int64) >> self._page_shift
        )

    def miss_rate(self) -> float:
        """Overall TLB miss rate."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def reset(self) -> None:
        """Flush all translations and counters."""
        self._table.clear()
        self.hits = 0
        self.misses = 0


class PageFaultTracker:
    """Counts page faults under a first-touch / LRU-resident-set model.

    With ``resident_limit=None`` every page faults exactly once (minor,
    first-touch faults). With a limit, the tracker evicts the least
    recently used page when the resident set overflows, so re-touching an
    evicted page faults again (major-fault behaviour).
    """

    def __init__(self, page_bytes: int = 4096, resident_limit: Optional[int] = None):
        self.page_bytes = require_positive(page_bytes, "page_bytes")
        if resident_limit is not None:
            require_positive(resident_limit, "resident_limit")
        self.resident_limit = resident_limit
        self._page_shift = (page_bytes - 1).bit_length()
        self._resident: "OrderedDict[int, None]" = OrderedDict()
        self.faults = 0

    def touch_addresses(self, addresses: np.ndarray) -> int:
        """Touch byte addresses; returns the batch fault count."""
        return self.touch_pages(
            np.asarray(addresses, dtype=np.int64) >> self._page_shift
        )

    def touch_pages(self, pages: np.ndarray) -> int:
        """Touch page numbers; returns the batch fault count."""
        resident = self._resident
        limit = self.resident_limit
        faults = 0
        for page in pages.tolist():
            if page in resident:
                resident.move_to_end(page)
            else:
                faults += 1
                resident[page] = None
                if limit is not None and len(resident) > limit:
                    resident.popitem(last=False)
        self.faults += faults
        return faults

    def reset(self) -> None:
        """Forget all pages and zero the fault counter."""
        self._resident.clear()
        self.faults = 0
