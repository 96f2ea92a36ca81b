"""Shared plumbing for gossip services built on the two-method API.

Every service in this package consumes nothing but a mapping
``address -> sampling service`` where each value answers ``get_peer()``
-- the paper's contract.  :func:`sampling_services` builds that mapping
from any peer-sampling substrate the repository offers:

- a simulation engine (``cycle``/``fast``/``event``/``fast-event``/
  ``live``): one :class:`~repro.core.service.PeerSamplingService` per
  live address;
- a :class:`~repro.net.cluster.LocalCluster`: each daemon's own
  thread-safe service (shares the daemon's view lock);
- an :class:`~repro.baselines.oracle.OracleGroup`: the ideal uniform
  sampler, for baselines.

Because the services never reach past ``get_peer()``, the same service
code runs unchanged on a 10^5-node flat-array simulation and on live
UDP daemons.

Under churn a sampled address may point at a departed node (a stale
descriptor -- the paper's dead links).  The services in this package
never crash on one: a draw outside the known participant set is skipped
and counted in the result's ``stale_samples``, making staleness a
measured quantity instead of a KeyError.
"""

from __future__ import annotations

from typing import Dict, List, Protocol

from repro.core.descriptor import Address

__all__ = ["SamplingService", "participant_list", "sampling_services"]


class SamplingService(Protocol):
    """The structural contract every service consumes: ``getPeer()``."""

    def get_peer(self):  # pragma: no cover - protocol declaration
        ...


def sampling_services(source) -> Dict[Address, SamplingService]:
    """Build the ``address -> sampling service`` mapping for ``source``.

    ``source`` is any substrate with ``addresses()`` and
    ``service(address)``: an engine of the registry, a
    :class:`~repro.net.cluster.LocalCluster` (each daemon's own service
    -- the handle its gossip loop uses, so application draws serialize
    on the same lock) or an :class:`~repro.baselines.oracle.OracleGroup`.
    The mapping's iteration order is the substrate's address order,
    which is what makes service runs deterministic for a fixed seed.
    """
    return {address: source.service(address) for address in source.addresses()}


def participant_list(services) -> List[Address]:
    """The service mapping's addresses, in deterministic mapping order."""
    return list(services)
