"""The services on the flat-array engine at N = 10^4.

The services consume only ``get_peer()``, so the substrate is
swappable: that every engine of a family serves the same ``get_peer()``
draws for a seed is pinned by the conformance suite
(``tests/simulation/test_conformance.py``); this module pins the other
half of the claim -- the same service classes carry a 10^4-node
flat-array overlay.
"""

import random

import pytest

from repro.core.config import newscast
from repro.services import (
    AntiEntropyBroadcast,
    PushPullAveraging,
    RandomWalkSearch,
    sampling_services,
    scatter_key,
)
from repro.simulation.fast import FastCycleEngine
from repro.simulation.scenarios import random_bootstrap


class TestLargeScaleFastEngine:
    @pytest.fixture(scope="class")
    def services(self):
        # A few cycles is enough structure for the epidemic processes
        # to work with.
        engine = FastCycleEngine(newscast(view_size=12), seed=9)
        random_bootstrap(engine, n_nodes=10_000)
        engine.run(5)
        return sampling_services(engine)

    def test_broadcast_covers_ten_thousand_nodes(self, services):
        result = AntiEntropyBroadcast(services, fanout=3).run()
        assert result.n_nodes == 10_000
        assert result.covered
        assert result.rounds < 40

    def test_averaging_converges_at_scale(self, services):
        result = PushPullAveraging(
            services, rounds=8, rng=random.Random(6)
        ).run()
        assert result.n_nodes == 10_000
        assert result.variances[-1] < result.variances[0] / 50

    def test_search_finds_replicated_keys_at_scale(self, services):
        addresses = sorted(services)
        holders = scatter_key(addresses, 100, random.Random(7))
        result = RandomWalkSearch(
            services, holders, ttl=256, rng=random.Random(8)
        ).run(queries=40)
        assert result.hit_rate > 0.7
