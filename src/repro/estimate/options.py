"""Declarative knobs of the analytical estimate backend.

An :class:`EstimatorOptions` is pure JSON-native data, carried inside a
:class:`~repro.jobs.spec.RunSpec` (its ``estimator`` field) so that the
backend configuration is part of the spec's content address: two runs
that estimate with different profile caps or reuse-bin counts must
never share a cache entry.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping, Optional

from repro.errors import ConfigurationError
from repro.utils.validation import require_positive

__all__ = ["EstimatorOptions"]


@dataclass(frozen=True)
class EstimatorOptions:
    """Configuration of the analytical backend.

    Parameters
    ----------
    profile_refs:
        Optional cap on the number of references profiled per task
        (``None`` profiles the full trace). A truncated profile is
        recorded as such in the outcome's estimate metadata.
    fixed_point_iterations:
        Iterations of the rate/miss-rate fixed point in the analytical
        co-run composition.
    reuse_bins:
        Maximum number of log-spaced reuse-time bins the analytical
        model evaluates per task. Profiles with more distinct reuse
        times than this are compressed to count-weighted bin
        representatives before the footprint composition — the
        footprint curve is smooth, so the relative volume error per bin
        is bounded by the bin's log width (``max_rt**(1/reuse_bins) -
        1``, well under 1% at the default). This is what makes a
        mapping prediction O(bins) instead of O(reuses) and lets one
        profiling pass amortise over hundreds of predicted mappings.
    """

    profile_refs: Optional[int] = None
    fixed_point_iterations: int = 5
    reuse_bins: int = 512

    def __post_init__(self) -> None:
        if self.profile_refs is not None:
            require_positive(self.profile_refs, "profile_refs")
        require_positive(self.fixed_point_iterations, "fixed_point_iterations")
        require_positive(self.reuse_bins, "reuse_bins")

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (what the run spec embeds and hashes)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Optional[Mapping[str, Any]]) -> "EstimatorOptions":
        """Rebuild from :meth:`to_dict` output (``None`` means defaults).

        Unknown keys are rejected loudly — a typo'd knob silently falling
        back to its default would poison the content-address guarantee.
        """
        if d is None:
            return cls()
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(d) - known
        if unknown:
            raise ConfigurationError(
                f"unknown estimator options: {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return cls(**dict(d))
