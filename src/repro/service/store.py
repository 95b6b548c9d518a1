"""Content addressing for the sweep service's shared result store.

Campaign results live in :class:`~repro.harness.sweep.ResultStore`, the
same sqlite store the sweep engine caches into, on the coordinator's
host (workers reach it only through the coordinator's HTTP API).  A
record's key is :func:`spec_record_key`: SHA-256 over the spec's
scientific content (its ``scenario-spec/v1`` dict minus ``seeds`` and
``label``), the seed, and :func:`~repro.harness.sweep.code_fingerprint`.
Two campaigns that ask the same question share results no matter how
their seed lists are chunked or what they are called — a re-submitted
campaign is a pure cache hit.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.harness.sweep import ResultStore, code_fingerprint

__all__ = ["ResultStore", "spec_record_key"]

#: Fields of a ``scenario-spec/v1`` dict that name rather than
#: parameterize the experiment; excluded from content addressing.
_NON_CONTENT_FIELDS = ("seeds", "label")


def spec_record_key(spec: Any, seed: Any) -> str:
    """Content key of one seed's result: spec-hash × code-fingerprint.

    *spec* is a :class:`~repro.harness.ScenarioSpec` or its dict form.
    ``seeds`` and ``label`` are excluded, so the key depends only on
    what is computed — variant, scenario, network, STP bounds, fault
    plan — plus the seed itself and the current source tree.
    """
    data = spec.to_dict() if hasattr(spec, "to_dict") else dict(spec)
    content = {
        name: value
        for name, value in data.items()
        if name not in _NON_CONTENT_FIELDS
    }
    material = json.dumps(
        {"spec": content, "seed": seed, "code": code_fingerprint()},
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(material.encode()).hexdigest()[:32]
