"""Packed bit vectors used for Bloom-filter signatures.

A :class:`BitVector` stores ``n`` bits packed into a ``numpy`` ``uint64``
array. All bulk operations (set/clear many indices, boolean combinations,
popcount) are vectorised; single-bit operations are also provided for the
exact-semantics signature mode.

The signature metrics of the paper (Section 3.1) are boolean algebra over
these vectors:

* ``RBV  = CF & ~LF``           (newly-set bits since the last snapshot)
* ``occupancy = popcount(RBV)``
* ``symbiosis = popcount(RBV ^ CF_other)``
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.utils.validation import require_positive

__all__ = ["BitVector"]

_WORD_BITS = 64


def _popcount_words(words: np.ndarray) -> int:
    """Total number of set bits across a uint64 array."""
    # View as bytes and unpack: C-speed popcount without external deps.
    return int(np.unpackbits(words.view(np.uint8)).sum())


class BitVector:
    """A fixed-size bit vector packed into uint64 words.

    Parameters
    ----------
    size:
        Number of bits. Need not be a multiple of 64; bits past ``size``
        are kept zero by masking after every mutating operation.
    """

    __slots__ = ("size", "_words", "_tail_mask")

    def __init__(self, size: int):
        self.size = require_positive(size, "size")
        nwords = (self.size + _WORD_BITS - 1) // _WORD_BITS
        self._words = np.zeros(nwords, dtype=np.uint64)
        tail_bits = self.size - (nwords - 1) * _WORD_BITS
        if tail_bits == _WORD_BITS:
            self._tail_mask = np.uint64(0xFFFFFFFFFFFFFFFF)
        else:
            self._tail_mask = np.uint64((1 << tail_bits) - 1)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_indices(cls, size: int, indices: Iterable[int]) -> "BitVector":
        """Build a vector with exactly the given bit *indices* set."""
        vec = cls(size)
        vec.set_many(np.asarray(list(indices), dtype=np.int64))
        return vec

    @classmethod
    def _from_words(cls, size: int, words: np.ndarray) -> "BitVector":
        vec = cls(size)
        vec._words = words
        vec._mask_tail()
        return vec

    def copy(self) -> "BitVector":
        """Return an independent copy of this vector."""
        return BitVector._from_words(self.size, self._words.copy())

    # ------------------------------------------------------------------
    # single-bit operations
    # ------------------------------------------------------------------
    def set(self, index: int) -> None:
        """Set bit *index* to 1."""
        self._check_index(index)
        self._words[index >> 6] |= np.uint64(1 << (index & 63))

    def clear(self, index: int) -> None:
        """Clear bit *index* to 0."""
        self._check_index(index)
        self._words[index >> 6] &= np.uint64(~(1 << (index & 63)) & 0xFFFFFFFFFFFFFFFF)

    def test(self, index: int) -> bool:
        """Return True iff bit *index* is set."""
        self._check_index(index)
        return bool(self._words[index >> 6] >> np.uint64(index & 63) & np.uint64(1))

    # ------------------------------------------------------------------
    # bulk operations
    # ------------------------------------------------------------------
    def set_many(self, indices: np.ndarray) -> None:
        """Set every bit listed in *indices* (duplicates allowed)."""
        if len(indices) == 0:
            return
        idx = np.asarray(indices, dtype=np.int64)
        self._check_indices(idx)
        words = idx >> 6
        bits = np.left_shift(np.uint64(1), (idx & 63).astype(np.uint64))
        np.bitwise_or.at(self._words, words, bits)

    def clear_many(self, indices: np.ndarray) -> None:
        """Clear every bit listed in *indices* (duplicates allowed)."""
        if len(indices) == 0:
            return
        idx = np.asarray(indices, dtype=np.int64)
        self._check_indices(idx)
        words = idx >> 6
        bits = np.left_shift(np.uint64(1), (idx & 63).astype(np.uint64))
        inv = np.bitwise_not(bits)
        np.bitwise_and.at(self._words, words, inv)

    def test_many(self, indices: np.ndarray) -> np.ndarray:
        """Return a boolean array: for each index, whether the bit is set."""
        idx = np.asarray(indices, dtype=np.int64)
        if len(idx) == 0:
            return np.zeros(0, dtype=bool)
        self._check_indices(idx)
        words = self._words[idx >> 6]
        return ((words >> (idx & 63).astype(np.uint64)) & np.uint64(1)).astype(bool)

    def zero(self) -> None:
        """Clear the entire vector."""
        self._words.fill(0)

    def fill(self) -> None:
        """Set the entire vector to all ones."""
        self._words.fill(0xFFFFFFFFFFFFFFFF)
        self._mask_tail()

    def load_from(self, other: "BitVector") -> None:
        """Overwrite this vector's contents with *other*'s (snapshot copy)."""
        self._check_same_size(other)
        np.copyto(self._words, other._words)

    # ------------------------------------------------------------------
    # boolean algebra (new vectors)
    # ------------------------------------------------------------------
    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_same_size(other)
        return BitVector._from_words(self.size, self._words & other._words)

    def __or__(self, other: "BitVector") -> "BitVector":
        self._check_same_size(other)
        return BitVector._from_words(self.size, self._words | other._words)

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check_same_size(other)
        return BitVector._from_words(self.size, self._words ^ other._words)

    def __invert__(self) -> "BitVector":
        return BitVector._from_words(self.size, np.bitwise_not(self._words))

    def andnot(self, other: "BitVector") -> "BitVector":
        """Return ``self & ~other`` — the paper's RBV when self=CF, other=LF."""
        self._check_same_size(other)
        return BitVector._from_words(
            self.size, self._words & np.bitwise_not(other._words)
        )

    # ------------------------------------------------------------------
    # aggregate queries
    # ------------------------------------------------------------------
    def popcount(self) -> int:
        """Number of set bits (the paper's 'occupancy weight' when on an RBV)."""
        return _popcount_words(self._words)

    def xor_popcount(self, other: "BitVector") -> int:
        """popcount(self ^ other) — the paper's symbiosis metric."""
        self._check_same_size(other)
        return _popcount_words(self._words ^ other._words)

    def to_indices(self) -> np.ndarray:
        """Return the sorted array of set-bit indices."""
        bits = np.unpackbits(self._words.view(np.uint8), bitorder="little")
        return np.nonzero(bits[: self.size])[0].astype(np.int64)

    def to_bool_array(self) -> np.ndarray:
        """Return the vector as a dense boolean numpy array of length size."""
        bits = np.unpackbits(self._words.view(np.uint8), bitorder="little")
        return bits[: self.size].astype(bool)

    # ------------------------------------------------------------------
    # dunder plumbing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.size == other.size and bool(
            np.array_equal(self._words, other._words)
        )

    def __hash__(self) -> int:  # pragma: no cover - mutable, but tests want sets
        raise TypeError("BitVector is mutable and unhashable")

    def __iter__(self) -> Iterator[bool]:
        return iter(self.to_bool_array().tolist())

    def __repr__(self) -> str:
        return f"BitVector(size={self.size}, popcount={self.popcount()})"

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _mask_tail(self) -> None:
        self._words[-1] &= self._tail_mask

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise IndexError(f"bit index {index} out of range [0, {self.size})")

    def _check_indices(self, indices: np.ndarray) -> None:
        if len(indices) and (indices.min() < 0 or indices.max() >= self.size):
            raise IndexError(
                f"bit indices out of range [0, {self.size}): "
                f"min={indices.min()}, max={indices.max()}"
            )

    def _check_same_size(self, other: "BitVector") -> None:
        if self.size != other.size:
            raise ValueError(
                f"bit vector size mismatch: {self.size} vs {other.size}"
            )
