"""Byzantine-robustness defences for the peer sampling service.

The attack artefact (PR 9) showed that the paper's generic gossip node
believes anything it is told: a 1% hub-poisoning attacker captures 41%
of the in-degree mass because forged hop-0 descriptors win every
freshness comparison.  This package holds the defence primitives the
hardened protocols build on:

- :mod:`repro.defenses.validation` -- draw-free descriptor sanity
  checks (self/duplicate rejection, hop-count bounds, forged-freshness
  capping) applied between hop increment and merge.  Reused by the
  generic node via ``ProtocolConfig(validate_descriptors=True)`` and by
  the flat-array kernel's ``receive`` step.
- :mod:`repro.defenses.sampling` -- min-wise independent samplers
  (Brahms, Bortnikov et al. 2009): keyed-hash minima over the stream of
  observed addresses converge to a uniform sample of node history that
  an attacker cannot displace by shouting louder.

Everything here is deterministic and RNG-free (samplers hash, they do
not draw), so defended protocols keep the byte-identical cross-engine
contract of the honest ones.
"""

from repro.defenses.sampling import MinWiseSampler, SamplerGroup
from repro.defenses.validation import (
    MAX_HOP_COUNT,
    MIN_RELAYED_HOPS,
    sanitize_indexed,
    sanitize_payload,
)

__all__ = [
    "MAX_HOP_COUNT",
    "MIN_RELAYED_HOPS",
    "MinWiseSampler",
    "SamplerGroup",
    "sanitize_indexed",
    "sanitize_payload",
]
