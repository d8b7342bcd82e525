"""Classic Bloom filter and Counting Bloom Filter (paper Section 2.4).

These are the textbook structures the paper builds on before splitting the
CBF into a shared counter array plus per-core bit vectors (that split lives
in :mod:`repro.core.signature`). They are used directly by unit tests, by
the saturation ablation, and as a reference model.

Query semantics follow the paper: a query returns a **true miss** when the
element is definitely absent; any other outcome is *inconclusive* (may be a
false hit).
"""

from __future__ import annotations

import math
from typing import Iterable, List

import numpy as np

from repro.core.hashes import HashFunction, make_hash_family
from repro.errors import CounterSaturationError
from repro.utils.bitvec import BitVector
from repro.utils.validation import require_positive

__all__ = ["BloomFilter", "CountingBloomFilter", "false_positive_rate"]


def false_positive_rate(num_entries: int, num_hashes: int, inserted: int) -> float:
    """Analytical Bloom false-positive probability ``(1 - e^{-kn/m})^k``.

    The textbook bound for a filter of ``m = num_entries`` slots, ``k =
    num_hashes`` independent hash functions and ``n = inserted`` distinct
    elements. This is the *alias-rate* ceiling the property tests (and the
    adversarial suite's alias-pressure estimate) compare the empirical CBF
    behaviour against: a uniformly-hashed workload stays at or below it,
    while a constructed signature-aliasing workload concentrates far above
    it on the targeted indices.
    """
    require_positive(num_entries, "num_entries")
    require_positive(num_hashes, "num_hashes")
    if inserted < 0:
        raise ValueError(f"inserted must be >= 0, got {inserted}")
    if inserted == 0:
        return 0.0
    return (1.0 - math.exp(-num_hashes * inserted / num_entries)) ** num_hashes


class BloomFilter:
    """The original Bloom filter: k hash functions over one bit vector.

    No deletion support — the paper's stated motivation for moving to the
    counting variant.
    """

    def __init__(self, num_entries: int, num_hashes: int = 1, kind: str = "xor"):
        self.num_entries = require_positive(num_entries, "num_entries")
        self.num_hashes = require_positive(num_hashes, "num_hashes")
        self.hashes: List[HashFunction] = make_hash_family(
            kind, num_entries, num_hashes
        )
        self.bits = BitVector(num_entries)

    def insert(self, block: int) -> None:
        """Record *block* in the filter."""
        for h in self.hashes:
            self.bits.set(h.hash_one(block))

    def insert_many(self, blocks: np.ndarray) -> None:
        """Record every block in *blocks* (vectorised)."""
        arr = np.asarray(blocks, dtype=np.int64)
        for h in self.hashes:
            self.bits.set_many(h.hash_many(arr))

    def query(self, block: int) -> bool:
        """True = inconclusive (possibly present); False = true miss."""
        return all(self.bits.test(h.hash_one(block)) for h in self.hashes)

    def occupancy_weight(self) -> int:
        """Number of ones in the bit vector (paper's occupancy metric)."""
        return self.bits.popcount()

    def saturation(self) -> float:
        """Fraction of bits set — 1.0 means the filter conveys nothing."""
        return self.bits.popcount() / self.num_entries

    def clear(self) -> None:
        """Reset the filter to empty."""
        self.bits.zero()


class CountingBloomFilter:
    """Counting Bloom Filter: per-entry counters enable deletion.

    Parameters
    ----------
    num_entries:
        Counter-array size.
    num_hashes:
        Number of hash functions, ``k``. Per the paper, when several hash
        indices of one address collide the counter is bumped only once.
    counter_bits:
        Counter width ``L``; counters saturate at ``2**L - 1``.
    strict:
        If True, saturation or underflow raises
        :class:`repro.errors.CounterSaturationError` instead of clamping.
    """

    def __init__(
        self,
        num_entries: int,
        num_hashes: int = 1,
        counter_bits: int = 3,
        kind: str = "xor",
        strict: bool = False,
    ):
        self.num_entries = require_positive(num_entries, "num_entries")
        self.num_hashes = require_positive(num_hashes, "num_hashes")
        self.counter_bits = require_positive(counter_bits, "counter_bits")
        self.counter_max = (1 << counter_bits) - 1
        self.strict = strict
        self.hashes: List[HashFunction] = make_hash_family(
            kind, num_entries, num_hashes
        )
        self.counters = np.zeros(num_entries, dtype=np.int64)
        self.saturation_events = 0
        self.underflow_events = 0

    # ------------------------------------------------------------------
    def _indices_one(self, block: int) -> List[int]:
        """Deduplicated hash indices for one address."""
        seen = []
        for h in self.hashes:
            idx = h.hash_one(block)
            if idx not in seen:
                seen.append(idx)
        return seen

    def insert(self, block: int) -> None:
        """Increment the counters for *block* (once per distinct index)."""
        for idx in self._indices_one(block):
            if self.counters[idx] >= self.counter_max:
                self.saturation_events += 1
                if self.strict:
                    raise CounterSaturationError(
                        f"counter {idx} saturated at {self.counter_max}"
                    )
            else:
                self.counters[idx] += 1

    def delete(self, block: int) -> None:
        """Decrement the counters for *block* (once per distinct index)."""
        for idx in self._indices_one(block):
            if self.counters[idx] <= 0:
                self.underflow_events += 1
                if self.strict:
                    raise CounterSaturationError(f"counter {idx} underflowed")
            else:
                self.counters[idx] -= 1

    def query(self, block: int) -> bool:
        """True = inconclusive (possibly present); False = true miss."""
        return all(self.counters[idx] > 0 for idx in self._indices_one(block))

    def insert_many(self, blocks: Iterable[int]) -> None:
        """Insert every block in order (exact per-element semantics)."""
        for block in blocks:
            self.insert(int(block))

    def occupancy_weight(self) -> int:
        """Number of non-zero counters."""
        return int(np.count_nonzero(self.counters))

    def saturation(self) -> float:
        """Fraction of counters pinned at ``counter_max``.

        A filter whose counters are mostly saturated has stopped counting:
        inserts no longer change state and deletes under-report. This is
        the raw signal behind the adversarial *footprint bomb* detector
        (see :func:`repro.core.signature.signature_confidence`).
        """
        return int(np.count_nonzero(self.counters >= self.counter_max)) / (
            self.num_entries
        )

    def decay(self, shift: int = 1) -> None:
        """Age every counter by an arithmetic right-shift of *shift* bits.

        Halving (the default) is the classic CBF aging scheme: stale
        contributions fade geometrically while recently-reinserted entries
        recover on their next insert. A right shift of a non-negative
        integer can never underflow, so this is always safe to call — the
        property suite pins ``counters >= 0`` and monotone non-increase
        under repeated decay.
        """
        require_positive(shift, "shift")
        np.right_shift(self.counters, shift, out=self.counters)

    def clear(self) -> None:
        """Reset all counters and event tallies."""
        self.counters.fill(0)
        self.saturation_events = 0
        self.underflow_events = 0
