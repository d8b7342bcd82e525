"""Trace-driven set-associative cache with fill/eviction event reporting.

This is the substrate the Bloom-filter signature unit instruments: every L2
miss produces a *fill* event attributed to the requesting core, every
replacement produces an *eviction* event, and both carry the physical slot
``set*ways + way`` so presence-bit indexing (Section 5.3) works too.

Performance notes (this is the simulation hot loop):

* LRU state lives in flat int64 arrays indexed by slot ``set*ways +
  way``: the block and owner of each way, and per set the valid-way
  count and the ways in recency order. Ways fill in order and a miss
  in a full set refills the LRU way, so a set's valid ways are always
  ``0 .. lens[s]-1``; a hit or fill moves one entry of the recency row
  and nothing else.
* :meth:`access_batch` hands each batch to the compiled kernel
  (:mod:`repro.cache.native`) in one call and returns fresh event
  arrays, so callers (signature unit, timing model) stay vectorised.
* The scalar loop (:meth:`_access_batch_lru`) runs on the same arrays
  when the kernel is unavailable and is the oracle the differential
  tests pin the kernel to. A dict from resident block to slot replaces
  the per-set scan, which keeps it as fast as a list-per-set loop.
* Other replacement policies keep a dense tag array and the generic
  per-access policy loop.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cache import native
from repro.cache.config import CacheConfig
from repro.cache.replacement import make_policy
from repro.cache.stats import CacheStats
from repro.errors import ConfigurationError
from repro.utils.validation import require_positive

__all__ = ["AccessResult", "SetAssociativeCache"]

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one access batch.

    Attributes
    ----------
    hits, misses:
        Counts for this batch.
    fills, fill_slots:
        Block addresses inserted by misses and their physical slots
        (``set*ways + way``), in access order.
    evictions, evict_slots:
        Replaced block addresses and their slots, in eviction order.
    evict_fill_pos:
        For each eviction, the index into ``fills`` of the miss that caused
        it — lets exact-mode consumers replay the true interleaving.
    """

    hits: int
    misses: int
    fills: np.ndarray
    fill_slots: np.ndarray
    evictions: np.ndarray
    evict_slots: np.ndarray
    evict_fill_pos: np.ndarray

    @property
    def accesses(self) -> int:
        """Total accesses in the batch."""
        return self.hits + self.misses


class SetAssociativeCache:
    """A set-associative cache shared by ``num_cores`` requesters.

    Parameters
    ----------
    config:
        Geometry + replacement policy.
    num_cores:
        Number of distinct requesters (for stats and fill attribution).
    seed:
        Seed for the random replacement policy (ignored for LRU/PLRU).
    """

    def __init__(self, config: CacheConfig, num_cores: int = 1, seed: int = 0):
        self.config = config
        self.geometry = config.geometry
        self.num_cores = require_positive(num_cores, "num_cores")
        g = self.geometry
        self.num_sets = g.num_sets
        self.ways = g.ways
        self._set_mask = self.num_sets - 1
        self._lru = config.replacement == "lru"
        self._kernel: Optional[native.LruKernel] = None
        if self._lru:
            self._policy = None
            # Block and owner per slot, each set's ways MRU first, and
            # each set's valid-way count. Never resized: the kernel
            # holds their addresses.
            lines = self.num_sets * self.ways
            self._blocks = array("q", bytes(8 * lines))
            self._owners = array("q", bytes(8 * lines))
            self._order = array("q", bytes(8 * lines))
            self._lens = array("q", bytes(8 * self.num_sets))
            # Scalar path only: resident block -> slot.
            self._where: Dict[int, int] = {}
            lib = native.load()
            if lib is not None:
                self._kernel = native.LruKernel(
                    lib,
                    (self._blocks, self._owners, self._order, self._lens),
                    self._set_mask,
                    self.ways,
                )
        else:
            self._policy = make_policy(
                config.replacement, self.num_sets, self.ways, seed=seed
            )
            # Generic path keeps a dense tag array: -1 = invalid.
            self._tags = np.full((self.num_sets, self.ways), -1, dtype=np.int64)
            self._tag_owner = np.full((self.num_sets, self.ways), -1, dtype=np.int64)
        self.stats = CacheStats(num_cores=self.num_cores)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def contains(self, block: int) -> bool:
        """True iff *block* currently resides in the cache."""
        s = block & self._set_mask
        if self._lru:
            base = s * self.ways
            return block in self._blocks[base : base + self._lens[s]]
        return bool((self._tags[s] == block).any())

    def occupancy_by_core(self) -> np.ndarray:
        """Number of resident lines last filled by each core."""
        if self._lru:
            owners = self._resident(self._owners)
            return np.bincount(owners, minlength=self.num_cores).astype(np.int64)
        counts = np.zeros(self.num_cores, dtype=np.int64)
        valid = self._tags >= 0
        for c in range(self.num_cores):
            counts[c] = int((self._tag_owner[valid] == c).sum())
        return counts

    def resident_blocks(self) -> np.ndarray:
        """All resident block addresses (unordered)."""
        if self._lru:
            return self._resident(self._blocks)
        return self._tags[self._tags >= 0].astype(np.int64)

    def footprint_lines(self) -> int:
        """Number of valid lines (the true occupancy figures 2/5 compare to)."""
        if self._lru:
            return sum(self._lens)
        return int((self._tags >= 0).sum())

    def _resident(self, state: "array[int]") -> np.ndarray:
        """The valid-way entries of a per-slot LRU state array."""
        rows = np.frombuffer(state, dtype=np.int64).reshape(self.num_sets, self.ways)
        lens = np.frombuffer(self._lens, dtype=np.int64)
        return rows[np.arange(self.ways) < lens[:, None]]

    # ------------------------------------------------------------------
    # access paths
    # ------------------------------------------------------------------
    def access_one(self, core: int, block: int) -> Tuple[bool, Optional[int]]:
        """Access one block; returns ``(hit, evicted_block_or_None)``."""
        result = self.access_batch(core, np.asarray([block], dtype=np.int64))
        evicted = int(result.evictions[0]) if len(result.evictions) else None
        return result.hits == 1, evicted

    def access_batch(self, core: int, blocks: np.ndarray) -> AccessResult:
        """Access a sequence of block addresses in order.

        Returns hit/miss counts and the fill/eviction event arrays the
        signature unit consumes. Statistics are updated as a side effect.
        """
        if not 0 <= core < self.num_cores:
            raise ConfigurationError(
                f"core {core} out of range for {self.num_cores}-core cache"
            )
        if self._kernel is not None:
            result = self._access_batch_native(core, blocks)
        elif self._lru:
            result = self._access_batch_lru(core, blocks)
        else:
            result = self._access_batch_generic(core, blocks)
        self.stats.record(core, result.hits, result.misses, len(result.evictions))
        return result

    def _access_batch_native(self, core: int, blocks: np.ndarray) -> AccessResult:
        hits, fills, evicts = self._kernel.access(core, blocks)
        return AccessResult(
            hits=hits,
            misses=0 if fills is None else fills.shape[1],
            fills=_EMPTY if fills is None else fills[0],
            fill_slots=_EMPTY if fills is None else fills[1],
            evictions=_EMPTY if evicts is None else evicts[0],
            evict_slots=_EMPTY if evicts is None else evicts[1],
            evict_fill_pos=_EMPTY if evicts is None else evicts[2],
        )

    def _access_batch_lru(self, core: int, blocks: np.ndarray) -> AccessResult:
        set_mask = self._set_mask
        ways = self.ways
        resident = self._blocks
        owners = self._owners
        order = self._order
        lens = self._lens
        where = self._where
        hits = 0
        fills: List[int] = []
        fill_slots: List[int] = []
        evictions: List[int] = []
        evict_slots: List[int] = []
        evict_fill_pos: List[int] = []
        for block in blocks.tolist():
            slot = where.get(block)
            if slot is None:
                # Miss: refill the LRU way if the set is full, else the
                # next free way; either way it becomes the MRU.
                base = (block & set_mask) * ways
                n = lens[block & set_mask]
                if n == ways:
                    end = base + n - 1
                    slot = base + order[end]
                    victim = resident[slot]
                    del where[victim]
                    evictions.append(victim)
                    evict_slots.append(slot)
                    evict_fill_pos.append(len(fills))
                else:
                    end = slot = base + n
                    lens[block & set_mask] = n + 1
                order[base + 1 : end + 1] = order[base:end]
                order[base] = slot - base
                resident[slot] = block
                owners[slot] = core
                where[block] = slot
                fills.append(block)
                fill_slots.append(slot)
            else:
                hits += 1
                way = slot % ways
                base = slot - way
                if order[base] != way:
                    # Valid ways lead the row, so the first match is live.
                    i = base + order[base : base + ways].index(way)
                    order[base + 1 : i + 1] = order[base:i]
                    order[base] = way
        return AccessResult(
            hits=hits,
            misses=len(fills),
            fills=np.asarray(fills, dtype=np.int64) if fills else _EMPTY,
            fill_slots=np.asarray(fill_slots, dtype=np.int64) if fills else _EMPTY,
            evictions=np.asarray(evictions, dtype=np.int64) if evictions else _EMPTY,
            evict_slots=np.asarray(evict_slots, dtype=np.int64) if evictions else _EMPTY,
            evict_fill_pos=(
                np.asarray(evict_fill_pos, dtype=np.int64) if evictions else _EMPTY
            ),
        )

    def _access_batch_generic(self, core: int, blocks: np.ndarray) -> AccessResult:
        policy = self._policy
        tags = self._tags
        owners = self._tag_owner
        set_mask = self._set_mask
        ways = self.ways
        hits = 0
        fills: List[int] = []
        fill_slots: List[int] = []
        evictions: List[int] = []
        evict_slots: List[int] = []
        evict_fill_pos: List[int] = []
        for block in blocks.tolist():
            s = block & set_mask
            row = tags[s]
            way = -1
            for w in range(ways):
                if row[w] == block:
                    way = w
                    break
            if way >= 0:
                hits += 1
                policy.on_access(s, way)
                continue
            # Miss: prefer an invalid way, else ask the policy for a victim.
            way = -1
            for w in range(ways):
                if row[w] < 0:
                    way = w
                    break
            if way < 0:
                way = policy.victim(s)
                evictions.append(int(row[way]))
                evict_slots.append(s * ways + way)
                evict_fill_pos.append(len(fills))
            tags[s, way] = block
            owners[s, way] = core
            policy.on_access(s, way)
            fills.append(block)
            fill_slots.append(s * ways + way)
        return AccessResult(
            hits=hits,
            misses=len(fills),
            fills=np.asarray(fills, dtype=np.int64) if fills else _EMPTY,
            fill_slots=np.asarray(fill_slots, dtype=np.int64) if fills else _EMPTY,
            evictions=np.asarray(evictions, dtype=np.int64) if evictions else _EMPTY,
            evict_slots=np.asarray(evict_slots, dtype=np.int64) if evictions else _EMPTY,
            evict_fill_pos=(
                np.asarray(evict_fill_pos, dtype=np.int64) if evictions else _EMPTY
            ),
        )

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Invalidate all lines and zero statistics."""
        if self._lru:
            # Zeroed in place: the kernel holds the arrays' addresses.
            for state in (self._blocks, self._owners, self._order, self._lens):
                np.frombuffer(state, dtype=np.int64).fill(0)
            self._where.clear()
        else:
            self._tags.fill(-1)
            self._tag_owner.fill(-1)
            self._policy.reset()
        self.stats.reset()

    def __repr__(self) -> str:
        return (
            f"SetAssociativeCache({self.geometry}, cores={self.num_cores}, "
            f"policy={self.config.replacement!r})"
        )
