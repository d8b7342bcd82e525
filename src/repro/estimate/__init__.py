"""Fast-path estimation backend behind the exact-simulation interface.

The exact :class:`~repro.perf.simulator.MulticoreSimulator` replays
every reference of every task through real cache state — faithful, and
by far the costliest thing the repo does. This package provides a
cheaper ``analytical`` backend that answers the same questions (per-task
user times, co-run degradations, aggregate L2 miss rate) through the
same result types, selectable per :class:`~repro.jobs.spec.RunSpec`:
one vectorised profiling pass per task (:mod:`.reuse`) feeds a
closed-form footprint/reuse-distance composition model
(:mod:`.analytical`) — no interleaved simulation at all. Machines with
private L1s are outside the model and run on the ``exact`` backend.

:mod:`.dispatch` is the single entry point (and the only module allowed
to construct the exact simulator — lint rule RPR503); :mod:`.validate`
cross-checks the analytical backend's mapping decisions and miss rates
against exact simulation. See ``docs/estimation.md`` for the selection
guide.
"""

from importlib import import_module
from typing import List

# Lazy re-exports (PEP 562). The job-spec layer imports this package for
# backend dispatch while :mod:`repro.perf.experiment` (imported by the
# analytical/validate modules) imports the job-spec layer — eager
# imports here would close that cycle. Submodules load on first
# attribute access instead.
_EXPORTS = {
    "AnalyticalModel": "repro.estimate.analytical",
    "MappingPrediction": "repro.estimate.analytical",
    "TaskPrediction": "repro.estimate.analytical",
    "analytical_simulation": "repro.estimate.analytical",
    "predicted_pairwise": "repro.estimate.analytical",
    "BACKENDS": "repro.estimate.dispatch",
    "estimate_mix": "repro.estimate.dispatch",
    "make_exact_simulator": "repro.estimate.dispatch",
    "EstimateGate": "repro.estimate.gate",
    "EstimatorOptions": "repro.estimate.options",
    "ReuseProfile": "repro.estimate.reuse",
    "profile_task": "repro.estimate.reuse",
    "profile_trace": "repro.estimate.reuse",
    "MixValidation": "repro.estimate.validate",
    "ValidationSummary": "repro.estimate.validate",
    "validate_mixes": "repro.estimate.validate",
}


def __getattr__(name: str):
    """Resolve a public name from its submodule on first access."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(import_module(module), name)


def __dir__() -> List[str]:
    """Public surface (lazy names included)."""
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "BACKENDS",
    "AnalyticalModel",
    "EstimateGate",
    "EstimatorOptions",
    "MappingPrediction",
    "MixValidation",
    "ReuseProfile",
    "TaskPrediction",
    "ValidationSummary",
    "analytical_simulation",
    "estimate_mix",
    "make_exact_simulator",
    "predicted_pairwise",
    "profile_task",
    "profile_trace",
    "validate_mixes",
]
