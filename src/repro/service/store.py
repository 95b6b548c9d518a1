"""Content addressing for the sweep service's shared result store.

Campaign results live in :class:`~repro.harness.sweep.ResultStore`, the
same sqlite store the sweep engine caches into, on the coordinator's
host (workers reach it only through the coordinator's HTTP API).  A
record's key is :func:`~repro.harness.sweep.spec_record_key`: SHA-256
over the spec's scientific content (its ``to_dict()`` form minus
``seeds`` and ``label``), the seed, and
:func:`~repro.harness.sweep.code_fingerprint`.  ``SweepRunner.run_spec``
keys its results the same way, so two campaigns or sweeps that ask the
same question share results no matter how their seed lists are chunked
or what they are called — a re-submitted campaign is a pure cache hit.
"""

from repro.harness.sweep import ResultStore, spec_record_key

__all__ = ["ResultStore", "spec_record_key"]
