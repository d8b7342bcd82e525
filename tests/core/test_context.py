"""Tests for the per-process (2+N)-entry signature context (Sec 3.2)."""

import numpy as np
import pytest

from repro.core.context import SignatureContext, SignatureSample
from repro.errors import SignatureError


def sample(core=0, occupancy=10, symbiosis=(5, 20)):
    return SignatureSample(
        core=core, occupancy=occupancy, symbiosis=np.asarray(symbiosis, dtype=np.int64)
    )


class TestSignatureSample:
    def test_interference_is_reciprocal(self):
        s = sample(symbiosis=(4, 2))
        assert s.interference().tolist() == [0.25, 0.5]

    def test_interference_clamps_zero(self):
        s = sample(symbiosis=(0, 1))
        assert s.interference()[0] == 1.0

    def test_frozen(self):
        with pytest.raises(AttributeError):
            sample().core = 3


class TestSignatureContext:
    def test_initial_state_invalid(self):
        ctx = SignatureContext(2)
        assert not ctx.valid
        assert ctx.last_core is None

    def test_update_latest_sample_wins_by_default(self):
        ctx = SignatureContext(2)
        ctx.update(sample(core=0, occupancy=10, symbiosis=(1, 2)))
        ctx.update(sample(core=1, occupancy=30, symbiosis=(3, 4)))
        assert ctx.last_core == 1
        assert ctx.occupancy == 30.0
        assert ctx.symbiosis.tolist() == [3.0, 4.0]
        assert ctx.samples_seen == 2

    def test_smoothing_blends(self):
        ctx = SignatureContext(2, smoothing=0.5)
        ctx.update(sample(occupancy=10, symbiosis=(10, 10)))
        ctx.update(sample(occupancy=20, symbiosis=(20, 20)))
        assert ctx.occupancy == pytest.approx(15.0)
        assert ctx.symbiosis.tolist() == [15.0, 15.0]

    def test_first_sample_not_smoothed(self):
        ctx = SignatureContext(2, smoothing=0.1)
        ctx.update(sample(occupancy=40))
        assert ctx.occupancy == 40.0

    def test_invalid_smoothing(self):
        with pytest.raises(SignatureError):
            SignatureContext(2, smoothing=0.0)
        with pytest.raises(SignatureError):
            SignatureContext(2, smoothing=1.5)

    def test_core_out_of_range_rejected(self):
        ctx = SignatureContext(2)
        with pytest.raises(SignatureError):
            ctx.update(sample(core=2))

    def test_symbiosis_length_mismatch_rejected(self):
        ctx = SignatureContext(3)
        with pytest.raises(SignatureError):
            ctx.update(sample(symbiosis=(1, 2)))

    def test_interference_with_core(self):
        ctx = SignatureContext(2)
        ctx.update(sample(symbiosis=(4, 0)))
        assert ctx.interference_with_core(0) == 0.25
        assert ctx.interference_with_core(1) == 1.0
        with pytest.raises(SignatureError):
            ctx.interference_with_core(5)

    def test_repr(self):
        assert "SignatureContext" in repr(SignatureContext(2))
