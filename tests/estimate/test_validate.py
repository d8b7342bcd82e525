"""Tests for the cross-validation harness."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.estimate.validate import (
    MAPPING_ALGORITHMS,
    ValidationSummary,
    candidate_mappings,
    degradation_matrix,
    validate_mixes,
)
from repro.perf.experiment import PairwiseResult
from repro.perf.machine import core2duo


def toy_pairwise():
    """Two heavy interferers (a, b) and two light ones (c, d)."""
    names = ("a", "b", "c", "d")
    solo = {n: 100.0 for n in names}
    pair = {}
    for i, x in enumerate(names):
        for y in names[i + 1 :]:
            heavy = {"a", "b"} <= {x, y}
            slowdown = 160.0 if heavy else 105.0
            pair[(x, y)] = {x: slowdown, y: slowdown}
    return PairwiseResult(names=names, solo_times=solo, pair_times=pair)


class TestDegradationMatrix:
    def test_symmetric_nonnegative(self):
        names, w = degradation_matrix(toy_pairwise())
        assert names == ("a", "b", "c", "d")
        assert (w >= 0).all()
        assert np.allclose(w, w.T)
        assert (np.diag(w) == 0).all()
        # a-b is the dominant edge.
        assert w[0, 1] == w.max()


class TestCandidateMappings:
    def test_splits_the_heavy_pair(self):
        _, w = degradation_matrix(toy_pairwise())
        maps = candidate_mappings(w)
        assert set(maps) == set(MAPPING_ALGORITHMS)
        for algo, groups in maps.items():
            flat = sorted(i for g in groups for i in g)
            assert flat == [0, 1, 2, 3], algo
            assert all(len(g) == 2 for g in groups), algo
            # No algorithm co-locates the two heavy interferers.
            assert (0, 1) not in groups, algo

    def test_rejects_odd_mixes(self):
        with pytest.raises(ConfigurationError):
            candidate_mappings(np.zeros((3, 3)))


class TestValidateMixes:
    def test_end_to_end_summary(self):
        mixes = [("mcf", "milc", "astar", "povray")]
        summary = validate_mixes(
            core2duo(), mixes, instructions=60_000, seed=0
        )
        assert summary.backends() == ["analytical"]
        for backend in summary.backends():
            agreed, total = summary.agreement(backend)
            assert total == 1
            assert 0 <= agreed <= 1
            assert summary.miss_rate_mae(backend) >= 0.0
            assert summary.miss_rate_mape(backend) >= 0.0
        d = summary.to_dict()
        for backend, row in d.items():
            assert row["mixes"] == 1
            assert len(row["disagreeing_mixes"]) == 1 - row["mapping_agreement"]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_mixes(
                core2duo(),
                [("mcf", "milc", "astar", "povray")],
                backends=("psychic",),
                instructions=60_000,
            )

    def test_empty_summary_rejects_lookup(self):
        summary = ValidationSummary(records=())
        with pytest.raises(ConfigurationError):
            summary.agreement("analytical")
