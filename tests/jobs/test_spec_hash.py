"""Fail-loud guarantees of the spec content address.

A spec's key must cover *everything* that changes the run's result.
Two classes of silent corruption are rejected outright rather than
hashed around:

* a dataclass field with no canonical serialisation (an extension this
  version of ``to_dict`` does not know) — hashing would silently drop
  it from the content address;
* a spec dict carrying unknown keys — round-tripping it would rehash to
  a *different* address than the producer computed.
"""

from dataclasses import dataclass
from typing import Optional

import pytest

from repro.errors import ConfigurationError, JobError
from repro.jobs import RunSpec, make_run_spec, spec_key
from repro.jobs.spec import WorkloadSpec
from repro.perf.machine import core2duo


def small_spec(**kwargs):
    return make_run_spec(
        core2duo(),
        WorkloadSpec(
            kind="spec", names=("mcf", "povray"), instructions=50_000
        ),
        **kwargs,
    )


class TestUnknownFieldsFailLoudly:
    def test_unserialised_dataclass_field_rejected_at_hash_time(self):
        @dataclass(frozen=True)
        class ExtendedSpec(RunSpec):
            prefetcher: Optional[str] = "stride"

        spec = ExtendedSpec(
            machine=small_spec().machine,
            workload=small_spec().workload,
        )
        with pytest.raises(JobError, match="prefetcher"):
            spec.to_dict()
        with pytest.raises(JobError, match="prefetcher"):
            spec_key(spec)

    def test_unknown_dict_keys_rejected_on_round_trip(self):
        d = small_spec().to_dict()
        d["prefetcher"] = "stride"
        with pytest.raises(JobError, match="prefetcher"):
            RunSpec.from_dict(d)

    def test_wrong_schema_rejected(self):
        d = small_spec().to_dict()
        d["schema"] = "v999"
        with pytest.raises(JobError):
            RunSpec.from_dict(d)


class TestBackendInTheContentAddress:
    def test_default_backend_is_omitted(self):
        """Pre-backend spec dicts must keep their original keys."""
        d = small_spec().to_dict()
        assert "backend" not in d
        assert "estimator" not in d

    def test_backends_never_share_a_key(self):
        exact = small_spec()
        analytical = small_spec(backend="analytical")
        assert spec_key(exact) != spec_key(analytical)

    def test_estimator_options_enter_the_key(self):
        a = small_spec(backend="analytical", estimator={"reuse_bins": 256})
        b = small_spec(backend="analytical", estimator={"reuse_bins": 512})
        assert spec_key(a) != spec_key(b)
        assert spec_key(a) != spec_key(small_spec(backend="analytical"))

    def test_analytical_key_is_pinned(self):
        """Cached analytical outcomes stay addressable across releases."""
        spec = small_spec(backend="analytical", estimator={"reuse_bins": 256})
        assert spec_key(spec) == (
            "84e88b940d126c591f6235abb971281e383c300a6982ef020d69b149e7c71a49"
        )

    def test_round_trip_preserves_backend_and_key(self):
        spec = small_spec(backend="analytical", estimator={"reuse_bins": 64})
        rebuilt = RunSpec.from_dict(spec.to_dict())
        assert rebuilt.backend == "analytical"
        assert rebuilt.estimator == {"reuse_bins": 64}
        assert spec_key(rebuilt) == spec_key(spec)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            small_spec(backend="psychic")

    def test_estimator_on_exact_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            small_spec(estimator={"reuse_bins": 256})

    def test_unknown_estimator_knob_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="turbo"):
            small_spec(backend="analytical", estimator={"turbo": True})


class TestRetiredNamesFailLoudly:
    """The sampled backend and its options are gone; naming them is an error."""

    def test_sampled_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="sampled"):
            RunSpec(
                machine=small_spec().machine,
                workload=small_spec().workload,
                backend="sampled",
            )

    def test_sampled_backend_rejected_from_dict(self):
        d = small_spec(backend="analytical").to_dict()
        d["backend"] = "sampled"
        with pytest.raises(ConfigurationError, match="sampled"):
            RunSpec.from_dict(d)

    @pytest.mark.parametrize(
        "knob", ["window_refs", "denominator", "phase_threshold", "signature_bits"]
    )
    def test_sampled_estimator_options_rejected(self, knob):
        with pytest.raises(ConfigurationError, match=knob):
            small_spec(backend="analytical", estimator={knob: 8})
