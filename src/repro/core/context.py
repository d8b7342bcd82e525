"""Per-process/per-VM signature context (paper Section 3.2).

For each scheduled entity the OS (or hypervisor) keeps a structure of
``2 + N`` entries, where ``N`` is the number of physical cores:

1. the ID of the last physical core that ran the entity,
2. the occupancy weight of its last Running Bit Vector,
3. ``N`` symbiosis values — one against each core's Core Filter.

The structure is refreshed on every context switch; the user-level monitor
(or Dom0) reads it through the syscall/hypercall interface to drive the
allocation algorithms. We additionally keep small exponential-moving
averages so allocation decisions are not hostage to a single noisy quantum,
and a sample counter for staleness checks; both extras are clearly separated
from the paper-mandated fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.metrics import interference_from_symbiosis
from repro.errors import SignatureError
from repro.utils.validation import require_positive

__all__ = ["SignatureSample", "SignatureContext"]


@dataclass(frozen=True)
class SignatureSample:
    """One context-switch observation for a scheduled entity.

    Attributes
    ----------
    core:
        Physical core the entity was just switched out of.
    occupancy:
        popcount of the entity's RBV.
    symbiosis:
        int64 array of length ``num_cores``: symbiosis of the RBV against
        every core's CF (including ``core`` itself).
    """

    core: int
    occupancy: int
    symbiosis: np.ndarray

    def interference(self) -> np.ndarray:
        """Per-core interference metrics (reciprocal symbiosis)."""
        return np.asarray(
            [interference_from_symbiosis(s) for s in self.symbiosis],
            dtype=np.float64,
        )


class SignatureContext:
    """The OS-side ``(2 + N)``-entry record for one process/VM.

    Parameters
    ----------
    num_cores:
        Number of physical cores ``N``.
    smoothing:
        EMA coefficient applied to occupancy and symbiosis on update;
        1.0 keeps only the latest sample (the paper's behaviour).
    """

    __slots__ = (
        "num_cores",
        "smoothing",
        "last_core",
        "occupancy",
        "symbiosis",
        "samples_seen",
    )

    def __init__(self, num_cores: int, smoothing: float = 1.0):
        self.num_cores = require_positive(num_cores, "num_cores")
        if not 0.0 < smoothing <= 1.0:
            raise SignatureError(f"smoothing must be in (0, 1], got {smoothing}")
        self.smoothing = float(smoothing)
        self.last_core: Optional[int] = None
        self.occupancy: float = 0.0
        self.symbiosis = np.zeros(num_cores, dtype=np.float64)
        self.samples_seen = 0

    def update(self, sample: SignatureSample) -> None:
        """Fold a new context-switch *sample* into the record."""
        if not 0 <= sample.core < self.num_cores:
            raise SignatureError(
                f"sample core {sample.core} out of range for {self.num_cores} cores"
            )
        if len(sample.symbiosis) != self.num_cores:
            raise SignatureError(
                f"sample has {len(sample.symbiosis)} symbiosis entries, "
                f"expected {self.num_cores}"
            )
        self.last_core = sample.core
        if self.samples_seen == 0 or self.smoothing >= 1.0:
            self.occupancy = float(sample.occupancy)
            self.symbiosis = sample.symbiosis.astype(np.float64).copy()
        else:
            a = self.smoothing
            self.occupancy = a * float(sample.occupancy) + (1 - a) * self.occupancy
            self.symbiosis = a * sample.symbiosis + (1 - a) * self.symbiosis
        self.samples_seen += 1

    @property
    def valid(self) -> bool:
        """True once at least one context switch has been observed."""
        return self.samples_seen > 0

    def interference_with_core(self, core: int) -> float:
        """Interference metric of this entity against *core*'s footprint."""
        if not 0 <= core < self.num_cores:
            raise SignatureError(f"core {core} out of range")
        return interference_from_symbiosis(self.symbiosis[core])

    def __repr__(self) -> str:
        return (
            f"SignatureContext(last_core={self.last_core}, "
            f"occupancy={self.occupancy:.1f}, samples={self.samples_seen})"
        )
