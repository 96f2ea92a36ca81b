"""Local-cluster harness: boot N daemons, gossip, measure, shut down.

:class:`LocalCluster` is the deployment-layer counterpart of the
simulation engines: it boots one :class:`~repro.net.daemon.GossipDaemon`
per node -- over real localhost UDP sockets or the deterministic loopback
transport -- bootstraps their views randomly (the paper's random
initialization scenario), and drives gossip either in *lockstep cycles*
(every live daemon initiates once per round; exchanges overlap in time
like real traffic but rounds are barriers, so results are comparable to
the cycle-driven engines) or *free-running* on each daemon's own jittered
wall-clock timer.

Live view snapshots feed the existing analysis pipelines unchanged:
:meth:`LocalCluster.snapshot` returns a
:class:`~repro.graph.snapshot.GraphSnapshot`, and
:meth:`LocalCluster.summary` computes the Figure-2-style metrics
(in-degree distribution, clustering coefficient, average path length)
from a *running* cluster.

Churn is injected with :meth:`kill` / :meth:`crash_random` (daemons stop
mid-flight; their descriptors decay out of other views, exactly the
self-healing dynamics of Figure 7) and :meth:`spawn` (a joiner
bootstrapped from live contacts) -- or declaratively:
:meth:`LocalCluster.run_spec` executes the membership schedule of a
:class:`~repro.workloads.spec.ScenarioSpec` (``catastrophic-failure``,
``continuous-churn``, ``churn-trace``) against
the *live* daemons, each event quantized to a lockstep round start, so
the same workload document that drives the simulation engines also
drives a real datagram cluster.
"""

from __future__ import annotations

import asyncio
import random
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import NetworkConfig, ProtocolConfig
from repro.core.descriptor import Address, NodeDescriptor
from repro.core.errors import ConfigurationError, NodeNotFoundError
from repro.core.protocol import GossipNode
from repro.core.service import PeerSamplingService
from repro.graph.metrics import topology_metrics
from repro.graph.snapshot import GraphSnapshot, view_edge_arrays
from repro.net.daemon import GossipDaemon
from repro.net.transport import (
    LoopbackNetwork,
    LoopbackTransport,
    UdpTransport,
)

__all__ = ["LocalCluster", "in_degrees", "summarize_views"]


def in_degrees(views: Dict[Address, Sequence[NodeDescriptor]]) -> np.ndarray:
    """Directed in-degrees of the live nodes, aligned with ``list(views)``.

    Entry ``i`` counts how many *other* live views hold a descriptor of
    node ``i``.  Descriptors pointing at dead addresses are ignored, like
    :class:`~repro.graph.snapshot.GraphSnapshot` construction does.
    """
    _, _, dst = view_edge_arrays(views)
    return np.bincount(dst, minlength=len(views))


def summarize_views(
    views: Dict[Address, Sequence[NodeDescriptor]],
    clustering_sample: Optional[int] = None,
    path_sources: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> Dict[str, float]:
    """Figure-2-style metrics of one view snapshot.

    Returns in-degree summary statistics (directed) plus the clustering
    coefficient and average path length of the undirected communication
    graph -- computed with the same :mod:`repro.graph` pipeline the
    simulation experiments use, from one pass over the descriptors.
    """
    addresses, src, dst = view_edge_arrays(views)
    degrees = np.bincount(dst, minlength=len(addresses))
    metrics = topology_metrics(
        GraphSnapshot.from_edge_arrays(addresses, src, dst),
        clustering_sample=clustering_sample,
        path_sources=path_sources,
        rng=rng,
    )
    return {
        "nodes": float(len(views)),
        "in_degree_mean": float(degrees.mean()) if degrees.size else 0.0,
        "in_degree_std": float(degrees.std(ddof=1)) if degrees.size > 1 else 0.0,
        "in_degree_min": float(degrees.min()) if degrees.size else 0.0,
        "in_degree_max": float(degrees.max()) if degrees.size else 0.0,
        "clustering": metrics["clustering"],
        "average_path_length": metrics["average_path_length"],
    }


class LocalCluster:
    """N gossip daemons on one machine, over UDP or loopback transports.

    Parameters
    ----------
    protocol:
        The protocol instance every daemon runs.
    n_nodes:
        Initial cluster size.
    network:
        Timing knobs shared by all daemons (jitter is drawn per daemon).
    transport:
        ``"udp"`` for real localhost sockets (ephemeral ports) or
        ``"loopback"`` for deterministic in-process delivery.
    seed:
        Seeds the master RNG that derives per-daemon RNGs, the bootstrap
        topology and the loopback network's latency/loss draws; runs with
        the same seed over the loopback transport are reproducible.
    latency / loss:
        Optional :mod:`repro.simulation.network` models applied by the
        loopback transport (ignored for UDP -- the kernel provides the
        real thing).
    host:
        Bind interface for UDP transports; defaults to the network
        config's :attr:`~repro.core.config.NetworkConfig.bind_host`.

    Usage is async-context-manager shaped but explicit: ``await start()``,
    drive, ``await stop()``.  :meth:`run` wraps an entire session for
    synchronous callers.
    """

    def __init__(
        self,
        protocol: ProtocolConfig,
        n_nodes: int,
        network: Optional[NetworkConfig] = None,
        transport: str = "udp",
        seed: Optional[int] = None,
        latency=None,
        loss=None,
        host: Optional[str] = None,
    ) -> None:
        if n_nodes < 2:
            raise ConfigurationError(
                f"a cluster needs at least 2 nodes, got {n_nodes}"
            )
        if transport not in ("udp", "loopback"):
            raise ConfigurationError(
                f"transport must be 'udp' or 'loopback', got {transport!r}"
            )
        self.protocol = protocol
        self.network_config = network if network is not None else NetworkConfig()
        self.transport_kind = transport
        self.rng = random.Random(seed)
        self.host = host if host is not None else self.network_config.bind_host
        self.daemons: Dict[Address, GossipDaemon] = {}
        self.loopback: Optional[LoopbackNetwork] = (
            LoopbackNetwork(rng=self.rng, latency=latency, loss=loss)
            if transport == "loopback"
            else None
        )
        self._initial_size = n_nodes
        self._started = False
        self._free_running = False
        self._next_loopback_id = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self, free_running: bool = False) -> None:
        """Boot all daemons and bootstrap the overlay.

        ``free_running=True`` starts each daemon's own jittered periodic
        task (wall-clock gossip); otherwise the cluster is driven in
        lockstep through :meth:`run_cycles`.
        """
        if self._started:
            return
        self._free_running = free_running
        daemons = [
            await self._boot_daemon() for _ in range(self._initial_size)
        ]
        addresses = [daemon.address for daemon in daemons]
        # The paper's random-initialization scenario: every view starts as
        # a uniform random sample of the other nodes, hop count 0.
        capacity = self.protocol.view_size
        fill = min(capacity, len(addresses) - 1)
        for daemon in daemons:
            others = self.rng.sample(addresses, fill + 1)
            contacts = [a for a in others if a != daemon.address][:fill]
            daemon.service.init(contacts)
        for daemon in daemons:
            await daemon.start(run_loop=free_running)
        self._started = True

    async def _boot_daemon(
        self, contacts: Sequence[Address] = ()
    ) -> GossipDaemon:
        if self.transport_kind == "udp":
            transport = UdpTransport(self.host, 0)
            await transport.start()  # resolve the ephemeral port
        else:
            transport = LoopbackTransport(
                self.loopback, f"node-{self._next_loopback_id}"
            )
            self._next_loopback_id += 1
            await transport.start()
        address = transport.local_address
        node = GossipNode(
            address,
            self.protocol,
            random.Random(self.rng.getrandbits(64)),
        )
        daemon = GossipDaemon(
            node,
            transport,
            self.network_config,
            rng=random.Random(self.rng.getrandbits(64)),
        )
        if contacts:
            daemon.service.init(list(contacts))
        self.daemons[address] = daemon
        return daemon

    async def stop(self) -> None:
        """Stop every daemon and release every socket/endpoint."""
        for daemon in list(self.daemons.values()):
            await daemon.stop()
        self.daemons.clear()
        self._started = False

    # -- driving -----------------------------------------------------------

    async def run_cycles(self, cycles: int) -> None:
        """Drive ``cycles`` lockstep rounds (only when not free-running).

        In each round every live daemon initiates exactly once; the
        initiations run concurrently (requests, replies and merges
        interleave on the loop like real traffic), and the round barrier
        awaits them all -- the networked analogue of the cycle model.
        """
        if self._free_running:
            raise ConfigurationError(
                "run_cycles() is for lockstep clusters; this one free-runs"
            )
        for _ in range(cycles):
            await asyncio.gather(
                *(d.run_cycle() for d in list(self.daemons.values()))
            )

    async def run_for(self, seconds: float) -> None:
        """Let a free-running cluster gossip for a wall-clock duration."""
        await asyncio.sleep(seconds)

    async def run_spec(
        self,
        spec,
        cycles: Optional[int] = None,
        on_cycle=None,
    ) -> Dict[str, int]:
        """Execute a :class:`~repro.workloads.spec.ScenarioSpec` schedule
        against the live cluster, one lockstep round per gossip cycle.

        The cluster analogue of
        :func:`repro.workloads.runtime.compile_scenario`:
        ``catastrophic-failure`` crashes the
        configured fraction, ``continuous-churn`` spawns/crashes at every
        round start, and ``churn-trace`` timelines are generated with the
        same :func:`~repro.workloads.runtime.generate_trace` the
        simulation engines replay -- quantized to round starts like the
        cycle family does.  ``partition``/``heal`` events and spec-level
        latency/loss are rejected: real transports have no oracle switch
        (configure loss/latency on the loopback network at construction
        instead).

        The cluster must be started (lockstep) and, because its
        :meth:`start` already performs the random bootstrap, only
        ``bootstrap: "random"`` specs apply -- and so no ``grow`` event,
        which a spec accepts only on an ``empty`` bootstrap.  ``cycles``
        overrides the spec's run length; ``on_cycle(cycle, cluster)`` is
        invoked after every round.  Returns churn totals.
        """
        from repro.workloads.runtime import generate_trace
        from repro.workloads.spec import (
            CatastrophicFailure,
            ChurnTrace,
            ContinuousChurn,
            Heal,
            Partition,
        )

        if not self._started or self._free_running:
            raise ConfigurationError(
                "run_spec drives a started, lockstep cluster; call "
                "await start(free_running=False) first"
            )
        if spec.bootstrap != "random":
            raise ConfigurationError(
                f"the cluster bootstraps randomly at start(); spec "
                f"bootstrap {spec.bootstrap!r} is not executable here"
            )
        if spec.latency is not None or spec.loss is not None:
            raise ConfigurationError(
                "spec-level latency/loss do not apply to a live cluster; "
                "pass latency=/loss= to LocalCluster (loopback transport) "
                "instead"
            )
        unsupported = [
            event.kind
            for event in spec.events
            if isinstance(event, (Partition, Heal))
        ]
        if unsupported:
            raise ConfigurationError(
                f"event kind(s) {sorted(set(unsupported))} need the "
                "engines' reachability oracle; a live transport cannot "
                "execute them"
            )
        total = cycles if cycles is not None else spec.cycles
        if total is None:
            raise ConfigurationError(
                "run_spec needs a cycle count (spec.cycles or cycles=)"
            )
        # Expand the schedule once; everything below is (cycle -> action).
        trace = []
        for index, event in enumerate(spec.events):
            if isinstance(event, ChurnTrace):
                trace.extend(generate_trace(event, total, index))
        trace.sort(key=lambda e: (e.time, e.key, e.action))
        sessions: Dict[tuple, Address] = {}
        churn = list(
            e for e in spec.events if isinstance(e, ContinuousChurn)
        )
        failures = [
            e for e in spec.events if isinstance(e, CatastrophicFailure)
        ]
        fired = set()
        totals = {"joined": 0, "crashed": 0}
        trace_pos = 0
        for cycle in range(total):
            for index, event in enumerate(failures):
                if index not in fired and cycle >= event.at_cycle:
                    count = int(round(len(self) * event.fraction))
                    count = min(count, max(0, len(self) - 1))
                    await self.crash_random(count)
                    totals["crashed"] += count
                    fired.add(index)
            for event in churn:
                crashes = min(
                    event.leaves_per_cycle, max(0, len(self) - 1)
                )
                if crashes:
                    await self.crash_random(crashes)
                    totals["crashed"] += crashes
                for _ in range(event.joins_per_cycle):
                    await self.spawn()
                    totals["joined"] += 1
            while trace_pos < len(trace) and trace[trace_pos].time < cycle + 1:
                entry = trace[trace_pos]
                trace_pos += 1
                if entry.action == 0:  # join
                    sessions[entry.key] = await self.spawn()
                    totals["joined"] += 1
                else:
                    address = sessions.pop(entry.key, None)
                    if address in self.daemons and len(self) > 1:
                        await self.kill(address)
                        totals["crashed"] += 1
            await self.run_cycles(1)
            if on_cycle is not None:
                on_cycle(cycle + 1, self)
        return totals

    # -- churn -------------------------------------------------------------

    async def kill(self, address: Address) -> None:
        """Crash one daemon (stop gossiping, release its endpoint).

        Other views keep its descriptors until the protocol ages them out
        -- the Figure 7 self-healing dynamics, live.
        """
        daemon = self.daemons.pop(address, None)
        if daemon is None:
            raise NodeNotFoundError(address)
        await daemon.stop()

    async def crash_random(self, count: int) -> List[Address]:
        """Crash ``count`` uniformly random daemons; return their addresses."""
        if count > len(self.daemons):
            raise ConfigurationError(
                f"cannot crash {count} of {len(self.daemons)} daemons"
            )
        victims = self.rng.sample(list(self.daemons), count)
        for victim in victims:
            await self.kill(victim)
        return victims

    async def spawn(self, contacts: Optional[Sequence[Address]] = None) -> Address:
        """Boot one joiner, bootstrapped from ``contacts`` (default: one
        random live node -- the growing scenario's single-contact join)."""
        if contacts is None:
            if not self.daemons:
                raise ConfigurationError("cannot spawn into an empty cluster")
            contacts = [self.rng.choice(list(self.daemons))]
        daemon = await self._boot_daemon(contacts)
        await daemon.start(run_loop=self._free_running)
        return daemon.address

    # -- observation -------------------------------------------------------

    def addresses(self) -> List[Address]:
        """Live daemon addresses, in boot order."""
        return list(self.daemons)

    def service(self, address: Address) -> PeerSamplingService:
        """The daemon's own service for ``address`` (shares its view lock)."""
        return self.daemons[address].service

    def __len__(self) -> int:
        return len(self.daemons)

    def views(self) -> Dict[Address, List[NodeDescriptor]]:
        """A consistent copy of every live daemon's current view."""
        result: Dict[Address, List[NodeDescriptor]] = {}
        for address, daemon in self.daemons.items():
            with daemon.service.lock:
                result[address] = [d.copy() for d in daemon.node.view]
        return result

    def snapshot(self) -> GraphSnapshot:
        """The cluster's communication graph, via the standard pipeline."""
        return GraphSnapshot.from_views(self.views())

    def summary(
        self,
        clustering_sample: Optional[int] = None,
        path_sources: Optional[int] = None,
    ) -> Dict[str, float]:
        """Figure-2-style metrics of the running overlay."""
        return summarize_views(
            self.views(),
            clustering_sample=clustering_sample,
            path_sources=path_sources,
            rng=random.Random(0),
        )

    def stats_total(self) -> Dict[str, int]:
        """Aggregated daemon counters (live daemons only)."""
        totals: Dict[str, int] = {}
        for daemon in self.daemons.values():
            for field, value in vars(daemon.stats).items():
                totals[field] = totals.get(field, 0) + value
            totals["peers_served"] = (
                totals.get("peers_served", 0) + daemon.service.samples_served
            )
        return totals

    def metrics_registry(self, address: Address):
        """The standard metrics registry for one live daemon.

        Returns :func:`repro.control.metrics.daemon_metrics` for the
        daemon at ``address`` -- serve it with
        :class:`~repro.control.metrics.MetricsServer` to scrape a
        harness-managed daemon like a deployed one.  Imported lazily:
        :mod:`repro.control` itself imports the net layer.
        """
        from repro.control.metrics import daemon_metrics

        daemon = self.daemons.get(address)
        if daemon is None:
            raise NodeNotFoundError(address)
        return daemon_metrics(daemon)

    # -- synchronous convenience ------------------------------------------

    def run(self, cycles: int) -> Dict[str, float]:
        """Boot, gossip ``cycles`` lockstep rounds, summarize, shut down.

        A synchronous one-call session for scripts and tests; returns the
        final :meth:`summary`.
        """

        async def session() -> Dict[str, float]:
            await self.start(free_running=False)
            try:
                await self.run_cycles(cycles)
                return self.summary()
            finally:
                await self.stop()

        return asyncio.run(session())
