"""Tests for the backend dispatch seam (``estimate_mix``)."""

import pytest

from repro.errors import ConfigurationError
from repro.estimate.dispatch import (
    BACKENDS,
    as_mapping,
    estimate_mix,
    make_exact_simulator,
)
from repro.perf.machine import core2duo
from repro.perf.runner import build_tasks
from repro.perf.simulator import SimulationResult
from repro.sched.affinity import Mapping
from repro.telemetry import MetricsRegistry, TelemetryContext, Tracer, use


def mix(instructions=60_000):
    return build_tasks(["mcf", "povray"], instructions=instructions, seed=0)


class TestAsMapping:
    def test_passthrough_and_none(self):
        m = Mapping.from_groups([[0], [1]])
        assert as_mapping(m) is m
        assert as_mapping(None) is None

    def test_normalises_groups(self):
        assert as_mapping([[1], [0]]) == Mapping.from_groups([[1], [0]])


class TestEstimateMix:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            estimate_mix(core2duo(), mix(), backend="magic")

    def test_rejects_retired_sampled_backend(self):
        assert BACKENDS == ("exact", "analytical")
        with pytest.raises(ConfigurationError, match="sampled"):
            estimate_mix(core2duo(), mix(), backend="sampled")

    def test_exact_backend_has_no_report(self):
        """The seam returns a plain result, never a (result, report) pair."""
        result = estimate_mix(core2duo(), mix(), backend="exact")
        assert isinstance(result, SimulationResult)
        assert result.wall_cycles > 0

    def test_exact_matches_direct_simulator(self):
        machine = core2duo()
        direct = make_exact_simulator(machine, mix()).run()
        via_seam = estimate_mix(machine, mix(), backend="exact")
        assert via_seam.l2_miss_rate == direct.l2_miss_rate
        assert via_seam.wall_cycles == direct.wall_cycles

    def test_analytical_backend_has_no_report(self):
        """The seam returns a plain result, never a (result, report) pair."""
        result = estimate_mix(core2duo(), mix(), backend="analytical")
        assert isinstance(result, SimulationResult)
        assert 0.0 <= result.l2_miss_rate <= 1.0

    def test_all_backends_share_the_result_type(self):
        types = {
            type(estimate_mix(core2duo(), mix(), backend=backend))
            for backend in BACKENDS
        }
        assert types == {SimulationResult}

    def test_emits_estimate_metrics_and_span(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        with use(TelemetryContext(tracer=tracer, metrics=registry)):
            estimate_mix(core2duo(), mix(), backend="analytical")
        snapshot = registry.snapshot()
        assert snapshot["estimate_analytical_runs_total"]["value"] == 1
        assert snapshot["estimate_refs_total"]["value"] > 0
        assert not any(name.startswith("estimate_sampled") for name in snapshot)
        assert any(s.name == "estimate.run" for s in tracer.finished)
