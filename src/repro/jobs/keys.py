"""Content-addressed keys for run specifications.

A :class:`~repro.jobs.spec.RunSpec` is pure data, so two specs describing
the same simulation serialise to the same canonical JSON document and
therefore hash to the same SHA-256 key — across processes, machines and
Python hash-randomisation seeds. The key is what the result cache and the
batch deduplication are addressed by, which makes the determinism
guarantee load-bearing. The serialisation is
:func:`repro.durable.files.canonical_json` (re-exported here), the same
one every durable file in the tree is written with:

* dictionaries are serialised with sorted keys and no whitespace;
* floats use ``repr``-style shortest round-trip formatting (the CPython
  ``json`` default), so bit-identical floats produce identical text;
* NaN/Infinity are rejected (``allow_nan=False``) — a spec containing
  them has no canonical form;
* the digest is domain-separated with a versioned prefix so a schema bump
  invalidates every old key at once.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.durable.files import canonical_json

__all__ = ["SPEC_SCHEMA_VERSION", "canonical_json", "spec_key"]

#: Version of the RunSpec wire schema; bumping it invalidates all keys.
SPEC_SCHEMA_VERSION = 1

#: Domain-separation prefix folded into every digest.
_KEY_DOMAIN = b"repro.jobs.spec/v%d\x00" % SPEC_SCHEMA_VERSION


def spec_key(spec: Any) -> str:
    """SHA-256 hex key of a run spec (or any canonical-JSON-able dict).

    Accepts either a :class:`~repro.jobs.spec.RunSpec` (anything with a
    ``to_dict`` method) or a plain dictionary.
    """
    payload = spec.to_dict() if hasattr(spec, "to_dict") else spec
    digest = hashlib.sha256()
    digest.update(_KEY_DOMAIN)
    digest.update(canonical_json(payload).encode("ascii"))
    return digest.hexdigest()
