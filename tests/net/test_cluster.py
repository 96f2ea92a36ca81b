"""End-to-end cluster tests: loopback determinism, UDP integration, churn.

The UDP tests bind real localhost sockets.  Every test carries a hard
``timeout`` marker (enforced by ``pytest-timeout`` in CI) *and* wraps its
asyncio session in ``wait_for``, so a hung daemon fails the test quickly
instead of stalling the whole workflow.
"""

import asyncio

import pytest

from repro.core.config import NetworkConfig, newscast
from repro.net.cluster import LocalCluster, in_degrees, summarize_views
from repro.simulation.engine import CycleEngine
from repro.simulation.scenarios import random_bootstrap

SESSION_DEADLINE = 60.0  # belt-and-braces in-test hard timeout, seconds
LOCKSTEP = NetworkConfig(cycle_seconds=0.01, jitter=0.0, request_timeout=2.0)
# Post-churn rounds hit the pull timeout whenever a dead peer is selected
# (no omniscient liveness in a real deployment); a short timeout keeps
# those rounds cheap.
CHURNY = NetworkConfig(cycle_seconds=0.01, jitter=0.0, request_timeout=0.2)


def run_session(coroutine):
    """Run one async cluster session under a hard deadline."""
    return asyncio.run(asyncio.wait_for(coroutine, SESSION_DEADLINE))


def cluster_views(protocol, n_nodes, cycles, transport, seed):
    async def session():
        cluster = LocalCluster(
            protocol,
            n_nodes,
            network=LOCKSTEP,
            transport=transport,
            seed=seed,
        )
        await cluster.start(free_running=False)
        try:
            await cluster.run_cycles(cycles)
            return cluster.views(), cluster.stats_total()
        finally:
            await cluster.stop()

    return run_session(session())


class TestInDegrees:
    def test_counts_incoming_descriptors(self):
        views = {
            "a": [type("D", (), {"address": "b"})()],
            "b": [type("D", (), {"address": "a"})()],
            "c": [type("D", (), {"address": "a"})()],
        }
        assert list(in_degrees(views)) == [2, 1, 0]

    def test_dead_targets_ignored(self):
        views = {"a": [type("D", (), {"address": "ghost"})()]}
        assert list(in_degrees(views)) == [0]


@pytest.mark.timeout(90)
class TestLoopbackCluster:
    def test_seed_reproducible(self):
        first, _ = cluster_views(newscast(10), 30, 15, "loopback", seed=5)
        second, _ = cluster_views(newscast(10), 30, 15, "loopback", seed=5)
        fingerprint = lambda views: {
            a: tuple((d.address, d.hop_count) for d in entries)
            for a, entries in views.items()
        }
        assert fingerprint(first) == fingerprint(second)

    def test_50_node_cluster_matches_simulator_statistics(self):
        # The ISSUE's acceptance pin: a 50-node live cluster over the
        # deterministic loopback transport converges to the same
        # in-degree summary statistics as a CycleEngine run of the same
        # experiment, within tolerance.  (Exact per-view equality is
        # pinned separately by the LiveEngine parity tests; here rounds
        # run concurrently, like real traffic.)
        protocol = newscast(view_size=15)
        views, stats = cluster_views(protocol, 50, 30, "loopback", seed=1)
        live = summarize_views(views)

        reference = CycleEngine(protocol, seed=1)
        random_bootstrap(reference, 50)
        reference.run(30)
        sim = summarize_views(reference.views())

        # Converged overlays: every view is full, so the mean in-degree
        # equals the view capacity in both worlds, exactly.
        assert live["in_degree_mean"] == pytest.approx(15.0)
        assert sim["in_degree_mean"] == pytest.approx(15.0)
        assert abs(live["in_degree_std"] - sim["in_degree_std"]) < 4.0
        assert 0.4 < live["in_degree_std"] / sim["in_degree_std"] < 1.6
        assert abs(live["clustering"] - sim["clustering"]) < 0.15
        assert (
            abs(live["average_path_length"] - sim["average_path_length"])
            < 0.15
        )
        # Every node gossiped every cycle, reliably: 50 * 30 exchanges.
        assert stats["exchanges_completed"] == 50 * 30
        assert stats["timeouts"] == 0
        assert stats["invalid_messages"] == 0

    def test_churn_heals(self):
        async def session():
            cluster = LocalCluster(
                newscast(10), 30, network=CHURNY,
                transport="loopback", seed=3,
            )
            await cluster.start(free_running=False)
            try:
                await cluster.run_cycles(10)
                victims = await cluster.crash_random(10)
                dead_refs_before = sum(
                    1
                    for entries in cluster.views().values()
                    for d in entries
                    if d.address in set(victims)
                )
                await cluster.run_cycles(20)
                dead_refs_after = sum(
                    1
                    for entries in cluster.views().values()
                    for d in entries
                    if d.address in set(victims)
                )
                return len(cluster), dead_refs_before, dead_refs_after
            finally:
                await cluster.stop()

        size, before, after = run_session(session())
        assert size == 20
        assert before > 0
        # Self-healing (Figure 7 live): stale descriptors age out.
        assert after < before / 4

    def test_spawned_joiner_integrates(self):
        async def session():
            cluster = LocalCluster(
                newscast(10), 20, network=LOCKSTEP,
                transport="loopback", seed=4,
            )
            await cluster.start(free_running=False)
            try:
                await cluster.run_cycles(5)
                joiner = await cluster.spawn()
                await cluster.run_cycles(10)
                degrees = dict(
                    zip(cluster.views(), in_degrees(cluster.views()))
                )
                return joiner, degrees
            finally:
                await cluster.stop()

        joiner, degrees = run_session(session())
        # The joiner became visible in other views.
        assert degrees[joiner] > 0


@pytest.mark.timeout(120)
class TestUdpCluster:
    def test_20_node_udp_cluster_converges_and_shuts_down(self):
        protocol = newscast(view_size=10)
        views, stats = cluster_views(protocol, 20, 10, "udp", seed=2)
        summary = summarize_views(views)
        assert summary["nodes"] == 20
        # Converged: all views full over real sockets, no message issues.
        assert summary["in_degree_mean"] == pytest.approx(10.0)
        assert stats["exchanges_completed"] == 20 * 10
        assert stats["invalid_messages"] == 0

    def test_free_running_udp_cluster(self):
        async def session():
            cluster = LocalCluster(
                newscast(8),
                10,
                network=NetworkConfig(
                    cycle_seconds=0.05, jitter=0.2, request_timeout=1.0
                ),
                transport="udp",
                seed=6,
            )
            await cluster.start(free_running=True)
            try:
                await cluster.run_for(0.6)
                return cluster.stats_total(), cluster.summary()
            finally:
                await cluster.stop()

        stats, summary = run_session(session())
        # Jittered wall-clock gossip actually happened on every daemon.
        assert stats["cycles"] >= 10
        assert stats["exchanges_completed"] >= 10
        assert summary["nodes"] == 10

    def test_lockstep_udp_exchanges_all_complete(self):
        # Every request and reply crosses a real socket as a v2 frame: no
        # codec rejects, every lockstep exchange completes.
        async def session():
            cluster = LocalCluster(
                newscast(8), 12, network=LOCKSTEP,
                transport="udp", seed=8,
            )
            await cluster.start(free_running=False)
            try:
                await cluster.run_cycles(8)
                return cluster.stats_total(), summarize_views(cluster.views())
            finally:
                await cluster.stop()

        stats, summary = run_session(session())
        assert stats["invalid_messages"] == 0
        assert stats["exchanges_completed"] == 12 * 8
        assert summary["in_degree_mean"] == pytest.approx(8.0)


@pytest.mark.timeout(90)
class TestRunSpec:
    """Declarative ScenarioSpec execution against live daemons."""

    @staticmethod
    def _spec(**overrides):
        from repro.workloads import (
            CatastrophicFailure,
            ChurnTrace,
            ScenarioSpec,
        )

        defaults = dict(
            name="live-churn",
            bootstrap="random",
            cycles=8,
            events=(
                ChurnTrace(rate=0.5, session_length=4.0, trace_seed=2),
                CatastrophicFailure(at_cycle=5, fraction=0.3),
            ),
        )
        defaults.update(overrides)
        return ScenarioSpec(**defaults)

    def test_spec_schedule_executes_on_loopback(self):
        spec = self._spec()

        async def session():
            cluster = LocalCluster(
                newscast(8), 16, network=CHURNY,
                transport="loopback", seed=7,
            )
            await cluster.start(free_running=False)
            try:
                sizes = []
                totals = await cluster.run_spec(
                    spec, on_cycle=lambda c, cl: sizes.append(len(cl))
                )
                return totals, sizes, len(cluster)
            finally:
                await cluster.stop()

        totals, sizes, final = run_session(session())
        assert len(sizes) == 8
        assert totals["crashed"] > 0
        # the 30% crash at cycle 5 is visible in the population curve
        assert min(sizes[5:]) < max(sizes[:5])
        assert final == sizes[-1]

    def test_same_seed_replays_same_churn(self):
        spec = self._spec()

        async def session(seed):
            cluster = LocalCluster(
                newscast(8), 12, network=CHURNY,
                transport="loopback", seed=seed,
            )
            await cluster.start(free_running=False)
            try:
                totals = await cluster.run_spec(spec)
                return totals, len(cluster)
            finally:
                await cluster.stop()

        first = run_session(session(3))
        second = run_session(session(3))
        assert first == second

    def test_partition_events_rejected(self):
        from repro.core.errors import ConfigurationError
        from repro.workloads import Heal, Partition, ScenarioSpec

        spec = ScenarioSpec(
            name="split",
            cycles=6,
            events=(Partition(at_cycle=1), Heal(at_cycle=3)),
        )

        async def session():
            cluster = LocalCluster(
                newscast(8), 8, network=LOCKSTEP,
                transport="loopback", seed=1,
            )
            await cluster.start(free_running=False)
            try:
                with pytest.raises(ConfigurationError, match="oracle"):
                    await cluster.run_spec(spec)
            finally:
                await cluster.stop()

        run_session(session())

    def test_requires_started_lockstep_cluster(self):
        from repro.core.errors import ConfigurationError

        async def session():
            cluster = LocalCluster(
                newscast(8), 8, network=LOCKSTEP,
                transport="loopback", seed=1,
            )
            with pytest.raises(ConfigurationError, match="lockstep"):
                await cluster.run_spec(self._spec())

        run_session(session())
