"""Unit and property tests for repro.utils.bitvec.BitVector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.bitvec import BitVector


class TestConstruction:
    def test_new_vector_is_empty(self):
        vec = BitVector(100)
        assert vec.popcount() == 0
        assert len(vec) == 100

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            BitVector(0)

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            BitVector(-5)

    def test_from_indices(self):
        vec = BitVector.from_indices(64, [0, 5, 63])
        assert vec.popcount() == 3
        assert vec.test(0) and vec.test(5) and vec.test(63)
        assert not vec.test(1)

    def test_copy_is_independent(self):
        a = BitVector.from_indices(32, [1, 2])
        b = a.copy()
        b.set(7)
        assert not a.test(7)
        assert b.test(7)


class TestSingleBitOps:
    def test_set_then_test(self):
        vec = BitVector(70)
        vec.set(69)
        assert vec.test(69)

    def test_clear(self):
        vec = BitVector.from_indices(70, [69])
        vec.clear(69)
        assert not vec.test(69)
        assert vec.popcount() == 0

    def test_set_is_idempotent(self):
        vec = BitVector(16)
        vec.set(3)
        vec.set(3)
        assert vec.popcount() == 1

    @pytest.mark.parametrize("index", [-1, 70, 1000])
    def test_out_of_range_raises(self, index):
        vec = BitVector(70)
        with pytest.raises(IndexError):
            vec.set(index)
        with pytest.raises(IndexError):
            vec.clear(index)
        with pytest.raises(IndexError):
            vec.test(index)


class TestBulkOps:
    def test_set_many_with_duplicates(self):
        vec = BitVector(128)
        vec.set_many(np.array([1, 1, 1, 64, 127]))
        assert vec.popcount() == 3

    def test_clear_many(self):
        vec = BitVector.from_indices(128, range(10))
        vec.clear_many(np.array([0, 2, 4, 6, 8]))
        assert vec.to_indices().tolist() == [1, 3, 5, 7, 9]

    def test_test_many(self):
        vec = BitVector.from_indices(64, [2, 40])
        result = vec.test_many(np.array([2, 3, 40]))
        assert result.tolist() == [True, False, True]

    def test_empty_arrays_are_noops(self):
        vec = BitVector(64)
        vec.set_many(np.array([], dtype=np.int64))
        vec.clear_many(np.array([], dtype=np.int64))
        assert vec.test_many(np.array([], dtype=np.int64)).shape == (0,)
        assert vec.popcount() == 0

    def test_bulk_out_of_range_raises(self):
        vec = BitVector(64)
        with pytest.raises(IndexError):
            vec.set_many(np.array([0, 64]))

    def test_zero_and_fill(self):
        vec = BitVector(100)
        vec.fill()
        assert vec.popcount() == 100
        vec.zero()
        assert vec.popcount() == 0

    def test_fill_respects_tail_mask(self):
        # 70 bits -> second word only has 6 valid bits.
        vec = BitVector(70)
        vec.fill()
        assert vec.popcount() == 70
        assert vec.to_indices().tolist() == list(range(70))

    def test_load_from_snapshots(self):
        a = BitVector.from_indices(64, [1, 2, 3])
        b = BitVector(64)
        b.load_from(a)
        assert b == a
        a.set(10)
        assert not b.test(10)


class TestBooleanAlgebra:
    def test_and(self):
        a = BitVector.from_indices(64, [1, 2, 3])
        b = BitVector.from_indices(64, [2, 3, 4])
        assert (a & b).to_indices().tolist() == [2, 3]

    def test_or(self):
        a = BitVector.from_indices(64, [1])
        b = BitVector.from_indices(64, [2])
        assert (a | b).to_indices().tolist() == [1, 2]

    def test_xor(self):
        a = BitVector.from_indices(64, [1, 2])
        b = BitVector.from_indices(64, [2, 3])
        assert (a ^ b).to_indices().tolist() == [1, 3]

    def test_invert_respects_size(self):
        a = BitVector.from_indices(70, [0])
        inv = ~a
        assert inv.popcount() == 69
        assert not inv.test(0)

    def test_andnot_is_rbv_semantics(self):
        cf = BitVector.from_indices(64, [1, 2, 3, 4])
        lf = BitVector.from_indices(64, [1, 2])
        rbv = cf.andnot(lf)
        assert rbv.to_indices().tolist() == [3, 4]

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            BitVector(64) & BitVector(65)

    def test_xor_popcount_matches_materialised(self):
        a = BitVector.from_indices(200, [0, 50, 150])
        b = BitVector.from_indices(200, [50, 100])
        assert a.xor_popcount(b) == (a ^ b).popcount() == 3


class TestDunder:
    def test_equality(self):
        assert BitVector.from_indices(64, [5]) == BitVector.from_indices(64, [5])
        assert BitVector.from_indices(64, [5]) != BitVector.from_indices(64, [6])
        assert BitVector(64) != BitVector(65)

    def test_eq_other_type(self):
        assert BitVector(8) != "not a vector"

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(BitVector(8))

    def test_iter_and_bool_array(self):
        vec = BitVector.from_indices(5, [0, 4])
        assert list(vec) == [True, False, False, False, True]
        assert vec.to_bool_array().tolist() == [True, False, False, False, True]

    def test_repr(self):
        assert "popcount=2" in repr(BitVector.from_indices(8, [0, 1]))


@st.composite
def vec_and_indices(draw):
    size = draw(st.integers(min_value=1, max_value=300))
    indices = draw(st.lists(st.integers(min_value=0, max_value=size - 1), max_size=50))
    return size, indices


class TestProperties:
    @given(vec_and_indices())
    @settings(max_examples=100, deadline=None)
    def test_popcount_matches_set_of_indices(self, case):
        size, indices = case
        vec = BitVector(size)
        vec.set_many(np.asarray(indices, dtype=np.int64))
        assert vec.popcount() == len(set(indices))
        assert sorted(set(indices)) == vec.to_indices().tolist()

    @given(vec_and_indices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_boolean_ops_match_python_sets(self, case, data):
        size, idx_a = case
        idx_b = data.draw(
            st.lists(st.integers(min_value=0, max_value=size - 1), max_size=50)
        )
        a = BitVector.from_indices(size, idx_a)
        b = BitVector.from_indices(size, idx_b)
        sa, sb = set(idx_a), set(idx_b)
        assert set((a & b).to_indices().tolist()) == sa & sb
        assert set((a | b).to_indices().tolist()) == sa | sb
        assert set((a ^ b).to_indices().tolist()) == sa ^ sb
        assert set(a.andnot(b).to_indices().tolist()) == sa - sb
        assert a.xor_popcount(b) == len(sa ^ sb)

    @given(vec_and_indices())
    @settings(max_examples=60, deadline=None)
    def test_set_then_clear_roundtrip(self, case):
        size, indices = case
        vec = BitVector(size)
        arr = np.asarray(indices, dtype=np.int64)
        vec.set_many(arr)
        vec.clear_many(arr)
        assert vec.popcount() == 0

    @given(vec_and_indices())
    @settings(max_examples=60, deadline=None)
    def test_invert_involution(self, case):
        size, indices = case
        vec = BitVector.from_indices(size, indices)
        assert ~~vec == vec
        assert (~vec).popcount() == size - vec.popcount()
