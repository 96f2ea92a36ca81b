"""The ideal peer sampling service: uniform draws from full membership.

Analytical studies of gossip protocols assume peers are selected
"uniformly at random from the set of all nodes" (paper Section 1), which in
practice requires every node to know every other node.  :class:`OracleGroup`
implements exactly that -- a global membership registry -- and
:class:`OracleSamplingService` exposes the standard two-method API backed
by it.  The examples use the oracle as the gold standard that gossip-based
implementations are measured against.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.core.descriptor import Address
from repro.core.errors import ConfigurationError, NodeNotFoundError, NotInitializedError


class OracleGroup:
    """A global membership registry with uniform sampling.

    This plays the role of the full membership tables of traditional
    gossip implementations; its maintenance cost (every join/leave touches
    one central table) is exactly the scalability problem the paper's
    gossip-based services avoid.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._members: Dict[Address, int] = {}
        self._order: List[Address] = []
        self.rng = random.Random(seed)

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, address: Address) -> bool:
        return address in self._members

    def addresses(self) -> List[Address]:
        """All current members."""
        return list(self._order)

    def join(self, address: Address) -> None:
        """Register a member (idempotent)."""
        if address in self._members:
            return
        self._members[address] = len(self._order)
        self._order.append(address)

    def leave(self, address: Address) -> None:
        """Deregister a member (O(1): swap-remove)."""
        index = self._members.pop(address, None)
        if index is None:
            raise NodeNotFoundError(address)
        last = self._order.pop()
        if last != address:
            self._order[index] = last
            self._members[last] = index

    def sample(self, exclude: Optional[Address] = None) -> Optional[Address]:
        """One uniform member, optionally excluding one address."""
        size = len(self._order)
        if size == 0 or (size == 1 and self._order[0] == exclude):
            return None
        while True:
            candidate = self._order[self.rng.randrange(size)]
            if candidate != exclude:
                return candidate

    def service(self, address: Address) -> "OracleSamplingService":
        """A service handle for ``address`` (joins it if necessary)."""
        self.join(address)
        return OracleSamplingService(self, address)


class OracleSamplingService:
    """The two-method peer sampling API backed by global membership.

    Drop-in comparable to :class:`~repro.core.service.PeerSamplingService`:
    same ``init`` / ``get_peer`` surface, but returns *independent uniform*
    samples -- the paper's idealized baseline.
    """

    __slots__ = ("_group", "_address", "_initialized")

    def __init__(self, group: OracleGroup, address: Address) -> None:
        if address not in group:
            raise ConfigurationError(
                f"{address!r} must join the group before creating a service"
            )
        self._group = group
        self._address = address
        self._initialized = True

    @property
    def address(self) -> Address:
        """The member this service belongs to."""
        return self._address

    @property
    def initialized(self) -> bool:
        """Always ``True`` -- construction requires membership."""
        return self._initialized

    def init(self, contacts: object = ()) -> None:
        """No-op: the oracle needs no bootstrap contacts."""

    def get_peer(self) -> Optional[Address]:
        """An independent uniform sample of the other group members."""
        if self._address not in self._group:
            raise NotInitializedError(
                f"{self._address!r} is no longer a group member"
            )
        return self._group.sample(exclude=self._address)

    def get_peers(self, count: int) -> List[Address]:
        """``count`` independent uniform samples (with repetition)."""
        samples: List[Address] = []
        for _ in range(count):
            peer = self.get_peer()
            if peer is None:
                break
            samples.append(peer)
        return samples
