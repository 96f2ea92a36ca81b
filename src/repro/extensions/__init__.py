"""Protocols beyond the paper's 27-instance design space.

Implementations of the paper's related work (Section 9) and future-work
suggestions (Section 10), used as extra comparators by the attack
artefact and the Section 8/10 partition tests:

- :mod:`repro.extensions.cyclon` -- Cyclon's age-based shuffling (the main
  follow-on peer sampling design; drives the same simulation engines);
- :mod:`repro.extensions.second_view` -- the paper's Section 10 proposal:
  run several protocol instances concurrently ("a second view for
  gossiping membership information") and sample from the combined views;
- :mod:`repro.extensions.peerswap` -- PeerSwap's swap-based sampling
  (Guerraoui et al., arXiv 2408.03829: pointer-conserving exchanges with
  provable closeness-to-uniform -- the honest baseline for the
  adversarial experiments);
- :mod:`repro.extensions.brahms` -- Brahms' Byzantine-resilient sampler
  (Bortnikov et al. 2009: limited pushes, per-round quotas and min-wise
  sampler history -- the defended comparator for the attack artefact);
- :mod:`repro.extensions.registry` -- the name -> node-factory registry
  that makes ``brahms``/``cyclon``/``peerswap`` addressable from
  ``ExperimentPlan.protocols`` next to generic ``(peer,view,prop)``
  labels.
"""

from repro.extensions.brahms import BrahmsConfig, BrahmsNode, brahms_engine
from repro.extensions.cyclon import CyclonConfig, CyclonNode, cyclon_engine
from repro.extensions.peerswap import PeerSwapConfig, PeerSwapNode, peerswap_engine
from repro.extensions.registry import (
    EXTENSION_PROTOCOLS,
    ExtensionProtocol,
    extension_protocol,
    is_extension_protocol,
)
from repro.extensions.second_view import CombinedOverlay, CombinedSamplingService

__all__ = [
    "EXTENSION_PROTOCOLS",
    "BrahmsConfig",
    "BrahmsNode",
    "CombinedOverlay",
    "CombinedSamplingService",
    "CyclonConfig",
    "CyclonNode",
    "ExtensionProtocol",
    "PeerSwapConfig",
    "PeerSwapNode",
    "brahms_engine",
    "cyclon_engine",
    "extension_protocol",
    "is_extension_protocol",
    "peerswap_engine",
]
