"""Tests for the estimate confidence gate (``EstimateGate``).

The gate is the degradation valve between the fast estimate backends
and adversarial mixes: it must catch constructed signature-aliasing
streams, footprint bombs (when a pressure envelope is configured) and
collapsed confidence — and must be a byte-identical no-op on benign
mixes and on the exact backend.
"""

import pytest

from repro.adversary import adversary_machine, adversary_mix
from repro.errors import ConfigurationError
from repro.estimate.dispatch import estimate_mix
from repro.estimate.gate import EstimateGate
from repro.perf.runner import default_signature_config
from repro.telemetry import MetricsRegistry, TelemetryContext, use

MACHINE = adversary_machine()
SIG = default_signature_config(MACHINE)


def alias_gate(**overrides):
    """The suite's alias-only gate configuration (see HARDENED_DEFAULTS)."""
    kwargs = dict(
        min_confidence=0.0,
        max_pressure=float("inf"),
        min_alias_ratio=0.05,
        capacity=SIG.num_entries,
        num_hashes=SIG.num_hashes,
    )
    kwargs.update(overrides)
    return EstimateGate(**kwargs)


def mix(kind, instructions=30_000):
    return adversary_mix(kind, MACHINE, instructions=instructions, seed=3)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(min_confidence=1.5),
            dict(max_pressure=0.0),
            dict(min_alias_ratio=-0.1),
            dict(capacity=1),
            dict(num_hashes=0),
            dict(probe_accesses=0),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            EstimateGate(**kwargs)


class TestEvaluate:
    def test_benign_mix_is_inside_the_envelope(self):
        assert alias_gate().evaluate(MACHINE, mix("benign")) is None

    def test_aliasing_mix_trips_the_alias_check(self):
        event = alias_gate().evaluate(MACHINE, mix("aliasing"))
        assert event is not None
        assert event["action"] == "fallback-exact-backend"
        assert "signature-aliasing stream detected" in event["reasons"]
        flagged = event["tasks"]
        assert "alias-scan" in flagged
        assert flagged["alias-scan"]["check"] == "alias_ratio"
        assert flagged["alias-scan"]["alias_ratio"] < 0.05
        # The benign victims in the same mix are never named.
        assert "victim-hot" not in flagged and "victim-chase" not in flagged

    def test_pressure_envelope_catches_the_bomb_when_armed(self):
        event = alias_gate(max_pressure=2.0).evaluate(
            MACHINE, mix("saturating")
        )
        assert event is not None
        assert any("pressure" in r for r in event["reasons"])

    def test_confidence_floor_catches_the_bomb_when_armed(self):
        event = alias_gate(min_confidence=0.5).evaluate(
            MACHINE, mix("saturating")
        )
        assert event is not None
        assert any("confidence" in r for r in event["reasons"])

    def test_probe_restores_generator_state(self):
        tasks = mix("aliasing")
        fresh = mix("aliasing")
        alias_gate().evaluate(MACHINE, tasks)
        for probed, pristine in zip(tasks, fresh):
            batch = probed.generator.next_batch(64)
            assert (batch == pristine.generator.next_batch(64)).all()


class TestDispatchWiring:
    def test_untripped_gate_is_byte_identical(self):
        tasks = mix("benign", instructions=15_000)
        gated = estimate_mix(
            MACHINE, tasks, backend="analytical", gate=alias_gate()
        )
        plain = estimate_mix(MACHINE, tasks, backend="analytical")
        assert gated.wall_cycles == plain.wall_cycles
        assert gated.l2_miss_rate == plain.l2_miss_rate

    def test_tripped_gate_reroutes_to_exact_and_books_the_event(self):
        tasks = mix("aliasing", instructions=15_000)
        gate = alias_gate()
        registry = MetricsRegistry()
        with use(TelemetryContext(metrics=registry)):
            rerouted = estimate_mix(
                MACHINE, tasks, backend="analytical", gate=gate
            )
        exact = estimate_mix(MACHINE, tasks, backend="exact")
        assert rerouted.wall_cycles == exact.wall_cycles
        assert gate.fallbacks == 1
        assert gate.events[0]["requested_backend"] == "analytical"
        snapshot = registry.snapshot()
        assert snapshot["estimate_fallback_total"]["value"] == 1
        assert snapshot["estimate_exact_runs_total"]["value"] == 1

    def test_exact_backend_never_consults_the_gate(self):
        gate = alias_gate()
        estimate_mix(
            MACHINE, mix("aliasing", instructions=15_000),
            backend="exact", gate=gate,
        )
        assert gate.fallbacks == 0 and gate.events == []
