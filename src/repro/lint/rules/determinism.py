"""RPR1xx — determinism rules for the simulation core.

The paper's two-phase methodology regenerates every table from seeded
simulation: phase 1 collects signatures, phase 2 replays the chosen
schedule against modelled timing. Content-addressed result caching
(``repro.jobs.keys``) and the chaos suite's byte-identical pinning both
assume a run is a pure function of its spec — so any wall-clock read,
unseeded RNG draw, OS-entropy source, or hash-randomisation-sensitive
``hash()`` inside the core packages silently invalidates results.

These rules are scoped to :data:`~repro.lint.context.SIM_CORE_PACKAGES`
only. ``repro.jobs`` (timeout accounting needs real wall time) and
``repro.telemetry`` (span timestamps) are allowlisted *by package*;
telemetry-only timing inside the core (the simulator's guarded
``PhaseProfile`` reads) is waived per line with ``# repro: noqa[RPR101]``
— and can never be baselined.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.lint.context import ModuleContext
from repro.lint.registry import SCOPE_SIM_CORE, register
from repro.lint.violation import Violation

__all__ = ["CLOCK_CALLS", "ENTROPY_CALLS"]

#: Dotted call targets that read a clock.
CLOCK_CALLS: Tuple[str, ...] = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "time.clock_gettime_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
)

#: Dotted call targets that read OS entropy or host-unique state.
ENTROPY_CALLS: Tuple[str, ...] = (
    "os.urandom",
    "os.getrandom",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.token_urlsafe",
    "secrets.randbits",
    "secrets.randbelow",
    "secrets.choice",
    "uuid.uuid1",
    "uuid.uuid4",
)

#: ``numpy.random`` constructors that are fine *when seeded*.
_NUMPY_SEEDABLE: Tuple[str, ...] = (
    "default_rng",
    "Generator",
    "SeedSequence",
    "RandomState",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
)


def _violation(
    module: ModuleContext, node: ast.AST, code: str, message: str
) -> Violation:
    lineno = getattr(node, "lineno", 1)
    col = getattr(node, "col_offset", 0) + 1
    return Violation(
        path=module.path,
        line=lineno,
        col=col,
        code=code,
        message=message,
        source=module.source_line(lineno),
    )


def _is_unseeded(node: ast.Call) -> bool:
    """No arguments, or an explicit literal ``None`` seed."""
    if not node.args and not node.keywords:
        return True
    if node.args:
        first = node.args[0]
        return isinstance(first, ast.Constant) and first.value is None
    for keyword in node.keywords:
        if keyword.arg == "seed" and isinstance(keyword.value, ast.Constant):
            return keyword.value.value is None
    return False


@register(
    "RPR101",
    "wall-clock-in-sim-core",
    "wall-clock read inside the simulation core",
    scope=SCOPE_SIM_CORE,
    rationale=(
        "Simulated time is cycle-driven; a real clock read that leaks into "
        "results breaks bit-reproducibility across runs and machines. "
        "Wall-clock is legal in repro.jobs and repro.telemetry by package "
        "allowlist."
    ),
)
def check_wall_clock(module: ModuleContext) -> Iterator[Violation]:
    """Flag clock reads (time.*, datetime.now) in the core."""
    for node in module.nodes:
        if not isinstance(node, ast.Call):
            continue
        resolved = module.resolve_call(node)
        if resolved in CLOCK_CALLS:
            yield _violation(
                module,
                node,
                "RPR101",
                f"wall-clock call {resolved}() in simulation core; results "
                "must be a pure function of the seed (derive time from "
                "simulated cycles, or move the read behind the telemetry "
                "guard and waive it per line)",
            )


@register(
    "RPR102",
    "unseeded-rng",
    "unseeded or global-state RNG inside the simulation core",
    scope=SCOPE_SIM_CORE,
    rationale=(
        "All stochastic components must draw from an explicitly seeded "
        "generator (repro.utils.rng); the module-level random/numpy.random "
        "APIs use hidden global state and fresh OS entropy."
    ),
)
def check_unseeded_rng(module: ModuleContext) -> Iterator[Violation]:
    """Flag global-state or unseeded RNG construction/draws."""
    for node in module.nodes:
        if not isinstance(node, ast.Call):
            continue
        resolved = module.resolve_call(node)
        if resolved is None:
            continue
        if resolved == "random.Random" or resolved == "random.SystemRandom":
            if resolved == "random.SystemRandom" or _is_unseeded(node):
                yield _violation(
                    module, node, "RPR102",
                    f"{resolved}() without an explicit seed in simulation "
                    "core; pass a seed derived from the run spec",
                )
        elif resolved.startswith("random."):
            yield _violation(
                module, node, "RPR102",
                f"module-level {resolved}() uses the global RNG; draw from "
                "a seeded generator (repro.utils.rng.make_rng) instead",
            )
        elif resolved.startswith("numpy.random."):
            tail = resolved[len("numpy.random."):]
            if tail in _NUMPY_SEEDABLE:
                if _is_unseeded(node):
                    yield _violation(
                        module, node, "RPR102",
                        f"{resolved}() without a seed draws OS entropy; "
                        "pass a seed derived from the run spec",
                    )
            else:
                yield _violation(
                    module, node, "RPR102",
                    f"legacy global-state API {resolved}(); use an "
                    "explicitly seeded numpy.random.Generator",
                )


@register(
    "RPR103",
    "os-entropy-in-sim-core",
    "OS entropy / host-unique identifier inside the simulation core",
    scope=SCOPE_SIM_CORE,
    rationale=(
        "os.urandom, secrets and uuid1/uuid4 produce values that differ "
        "every run, so any influence on results or cache keys destroys "
        "reproducibility."
    ),
)
def check_entropy(module: ModuleContext) -> Iterator[Violation]:
    """Flag os.urandom/secrets/uuid entropy sources."""
    for node in module.nodes:
        if not isinstance(node, ast.Call):
            continue
        resolved = module.resolve_call(node)
        if resolved in ENTROPY_CALLS:
            yield _violation(
                module, node, "RPR103",
                f"entropy source {resolved}() in simulation core; derive "
                "identifiers from the seed (repro.utils.rng.stable_seed)",
            )


@register(
    "RPR104",
    "ordering-sensitive-hash",
    "builtin hash() inside the simulation core",
    scope=SCOPE_SIM_CORE,
    rationale=(
        "str/bytes hash() is randomised per process (PYTHONHASHSEED), so "
        "anything ordered or bucketed by it differs across workers. Use "
        "repro.core.hashes or hashlib digests."
    ),
)
def check_builtin_hash(module: ModuleContext) -> Iterator[Violation]:
    """Flag calls to the randomised builtin ``hash()``."""
    for node in module.nodes:
        if not isinstance(node, ast.Call):
            continue
        if module.resolve_call(node) == "hash":
            yield _violation(
                module, node, "RPR104",
                "builtin hash() is randomised per process "
                "(PYTHONHASHSEED); use a stable digest "
                "(repro.utils.rng.stable_seed or hashlib)",
            )
