"""Shared population management for the simulation engines.

Both the cycle-driven and the event-driven engine manage the same kind of
node population; :class:`BaseEngine` holds that common state -- the node
table, the RNG, observers and the membership operations (add, crash,
lookup) -- while subclasses provide the execution model.
"""

from __future__ import annotations

import random
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.config import ProtocolConfig
from repro.core.descriptor import Address, NodeDescriptor
from repro.core.errors import ConfigurationError, NodeNotFoundError
from repro.core.protocol import GossipNode
from repro.core.service import PeerSamplingService
from repro.simulation.trace import Observer

if TYPE_CHECKING:  # pragma: no cover - numpy stays a call-time import
    import numpy as np

NodeFactory = Callable[[Address, random.Random], GossipNode]
"""Signature of custom node factories: ``(address, rng) -> node``."""

ViewRow = Tuple[Address, List[Address], Sequence[int]]
"""One view as ``(address, peer addresses, hop counts)``."""


def rows_of_views(
    views: Mapping[Address, Iterable[NodeDescriptor]]
) -> Iterator[ViewRow]:
    """The :data:`ViewRow` form of a ``views()`` mapping, in its key and
    entry order (the object-walking form of an engine's ``view_rows()``)."""
    for address, entries in views.items():
        yield (
            address,
            [descriptor.address for descriptor in entries],
            [descriptor.hop_count for descriptor in entries],
        )


class BaseEngine:
    """Node population, RNG and observer plumbing shared by all engines.

    Parameters
    ----------
    config:
        Protocol instance every node runs.  Ignored when ``node_factory``
        is given (which is how extension protocols such as Cyclon reuse the
        engines).
    seed:
        Seed for the engine's private :class:`random.Random`.
    rng:
        Alternatively a pre-built RNG; takes precedence over ``seed``.
    node_factory:
        Optional callable ``(address, rng) -> node`` producing objects that
        implement the :class:`~repro.core.protocol.GossipNode` exchange
        interface (``begin_exchange`` / ``handle_request`` /
        ``handle_response`` / ``view``).
    """

    def __init__(
        self,
        config: Optional[ProtocolConfig] = None,
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
        node_factory: Optional[NodeFactory] = None,
        omniscient_peer_selection: bool = True,
    ) -> None:
        if config is None and node_factory is None:
            raise ConfigurationError(
                "engine needs a ProtocolConfig or a node_factory"
            )
        self.config = config
        self.rng = rng if rng is not None else random.Random(seed)
        self._node_factory = node_factory
        self.omniscient_peer_selection = omniscient_peer_selection
        """When ``True`` (default, the paper's model) nodes select exchange
        partners only among *live* view entries, modelling the paper's
        "selectPeer() returns the address of a live node" specification (in
        practice: timeout plus reselection).  Dead descriptors still occupy
        view slots.  Set ``False`` to let nodes target crashed peers and
        waste their turn -- the ablation benchmark measures the impact."""
        self._nodes: Dict[Address, GossipNode] = {}
        self._next_auto_address = 0
        self.cycle = 0
        self.failed_exchanges = 0
        self.completed_exchanges = 0
        self._observers: List[Observer] = []
        self.reachable: Optional[Callable[[Address, Address], bool]] = None
        """Optional reachability predicate ``(sender, recipient) -> bool``.

        When set, messages between unreachable pairs are dropped; this is
        how :class:`~repro.simulation.churn.TemporaryPartition` models
        network partitions."""

    # -- population management ---------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, address: Address) -> bool:
        return address in self._nodes

    def addresses(self) -> List[Address]:
        """All live node addresses, in insertion order."""
        return list(self._nodes)

    def nodes(self) -> List[GossipNode]:
        """All live node objects, in insertion order."""
        return list(self._nodes.values())

    def node(self, address: Address) -> GossipNode:
        """The live node at ``address`` (raises if absent)."""
        try:
            return self._nodes[address]
        except KeyError:
            raise NodeNotFoundError(address) from None

    def is_alive(self, address: Address) -> bool:
        """Whether a live node exists at ``address``."""
        return address in self._nodes

    def service(self, address: Address) -> PeerSamplingService:
        """A :class:`PeerSamplingService` bound to the node at ``address``."""
        return PeerSamplingService(self.node(address))

    def _make_node(self, address: Address) -> GossipNode:
        if self._node_factory is not None:
            node = self._node_factory(address, self.rng)
        else:
            assert self.config is not None
            node = GossipNode(address, self.config, self.rng)
        if self.omniscient_peer_selection:
            try:
                node.liveness = self._nodes.__contains__
            except AttributeError:
                pass  # custom node types without liveness support
        return node

    def add_node(
        self,
        address: Optional[Address] = None,
        contacts: Iterable[Address] = (),
    ) -> Address:
        """Create a live node, optionally seeding its view with contacts.

        Contacts enter the view with hop count 0 (the out-of-band bootstrap
        of paper Section 3).  Auto-assigned addresses are consecutive
        integers.
        """
        if address is None:
            while self._next_auto_address in self._nodes:
                self._next_auto_address += 1
            address = self._next_auto_address
            self._next_auto_address += 1
        if address in self._nodes:
            raise ConfigurationError(f"node {address!r} already exists")
        node = self._make_node(address)
        self._nodes[address] = node
        contact_list = [c for c in contacts if c != address]
        if contact_list:
            PeerSamplingService(node).init(contact_list)
        self._on_node_added(address)
        return address

    def add_nodes(
        self, count: int, contacts: Iterable[Address] = ()
    ) -> List[Address]:
        """Create ``count`` nodes sharing the same contact list."""
        contact_list = list(contacts)
        return [self.add_node(contacts=contact_list) for _ in range(count)]

    def remove_node(self, address: Address) -> None:
        """Crash the node at ``address`` (other views keep its descriptors)."""
        if address not in self._nodes:
            raise NodeNotFoundError(address)
        del self._nodes[address]

    def crash_random_nodes(self, count: int) -> List[Address]:
        """Crash ``count`` uniformly random nodes; return their addresses."""
        if count > len(self._nodes):
            raise ConfigurationError(
                f"cannot crash {count} of {len(self._nodes)} nodes"
            )
        victims = self.rng.sample(list(self._nodes), count)
        for victim in victims:
            del self._nodes[victim]
        return victims

    def _on_node_added(self, address: Address) -> None:
        """Subclass hook invoked after a node joins (e.g. to start timers)."""

    # -- observers ------------------------------------------------------------

    def add_observer(self, observer: Observer) -> None:
        """Register an observer called around every cycle."""
        self._observers.append(observer)

    def remove_observer(self, observer: Observer) -> None:
        """Unregister a previously added observer."""
        self._observers.remove(observer)

    def _notify_before_cycle(self) -> None:
        for observer in self._observers:
            observer.before_cycle(self)  # type: ignore[arg-type]

    def _notify_after_cycle(self) -> None:
        for observer in self._observers:
            observer.after_cycle(self)  # type: ignore[arg-type]

    # -- introspection ------------------------------------------------------------

    def views(self) -> Dict[Address, Sequence[NodeDescriptor]]:
        """A snapshot of every node's current view entries.

        The small-N / debug API: it hands out descriptor *objects*.
        Measurements go through the array-level read interface below
        (:meth:`edge_arrays`, :meth:`view_rows`, :meth:`dead_link_count`,
        :meth:`view_sizes`), which the flat-array engines answer without
        materializing any.
        """
        return {
            address: node.view.entries for address, node in self._nodes.items()
        }

    def edge_arrays(
        self,
    ) -> "Tuple[List[Address], np.ndarray, np.ndarray]":
        """The overlay as ``(addresses, src, dst)`` index arrays.

        ``addresses`` are the live nodes in :meth:`views` key order;
        ``src[k] -> dst[k]`` is one view entry, as positions into
        ``addresses``, with entries pointing at dead nodes already
        dropped -- exactly what
        :meth:`~repro.graph.snapshot.GraphSnapshot.from_edge_arrays`
        takes.
        """
        from repro.graph.snapshot import view_edge_arrays

        return view_edge_arrays(self.views())

    def view_rows(self) -> Iterator[ViewRow]:
        """Every view as ``(address, peer addresses, hop counts)``, in
        :meth:`views` key and entry order -- the rows the canonical
        overlay digest hashes."""
        return rows_of_views(self.views())

    def view_sizes(self) -> List[int]:
        """Every node's view fill level, in :meth:`views` key order."""
        return [len(node.view) for node in self._nodes.values()]

    def dead_link_count(self) -> int:
        """Total descriptors across all views pointing at dead addresses.

        This is the quantity the self-healing experiment (paper Figure 7)
        tracks after a massive failure.
        """
        alive = self._nodes
        count = 0
        for node in self._nodes.values():
            for descriptor in node.view:
                if descriptor.address not in alive:
                    count += 1
        return count
