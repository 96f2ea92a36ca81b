"""Unit and behavioural tests for the sampling-quality toolkit."""

import random

import pytest

from repro.baselines.oracle import OracleGroup
from repro.core.config import ProtocolConfig, newscast
from repro.simulation.engine import CycleEngine
from repro.simulation.scenarios import random_bootstrap
from repro.stats.sampling_quality import (
    chi_square_uniformity,
    sample_frequencies,
    total_variation_from_uniform,
)


class _FixedService:
    """Always returns the same peer (maximally non-uniform)."""

    def __init__(self, peer):
        self.peer = peer

    def get_peer(self):
        return self.peer


class _EmptyService:
    def get_peer(self):
        return None


class TestSampleFrequencies:
    def test_counts_hits(self):
        counts = sample_frequencies([_FixedService("a")], 10)
        assert counts == {"a": 10}

    def test_skips_none(self):
        assert sample_frequencies([_EmptyService()], 5) == {}

    def test_pools_across_services(self):
        counts = sample_frequencies(
            [_FixedService("a"), _FixedService("b")], 3
        )
        assert counts == {"a": 3, "b": 3}


class TestChiSquare:
    def test_uniform_counts_give_statistic_near_one(self):
        population = list(range(50))
        rng = random.Random(0)
        counts = {}
        for _ in range(5000):
            counts[rng.randrange(50)] = counts.get(rng.randrange(50), 0) + 1
        # Direct uniform draws: normalized chi2 close to 1.
        counts = {}
        for _ in range(5000):
            key = rng.randrange(50)
            counts[key] = counts.get(key, 0) + 1
        assert chi_square_uniformity(counts, population) < 2.0

    def test_concentrated_counts_explode(self):
        population = list(range(50))
        counts = {0: 1000}
        assert chi_square_uniformity(counts, population) > 100

    def test_validation(self):
        with pytest.raises(ValueError):
            chi_square_uniformity({}, ["only"])
        with pytest.raises(ValueError):
            chi_square_uniformity({}, ["a", "b"])


class TestTotalVariation:
    def test_uniform_is_zero(self):
        population = ["a", "b", "c", "d"]
        counts = {a: 25 for a in population}
        assert total_variation_from_uniform(counts, population) == 0.0

    def test_concentrated_approaches_one(self):
        population = list(range(100))
        assert total_variation_from_uniform({0: 500}, population) == pytest.approx(
            0.99
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            total_variation_from_uniform({}, [])
        with pytest.raises(ValueError):
            total_variation_from_uniform({}, ["a"])


class TestDegenerateInputGuards:
    """Regression tests: degenerate inputs fail eagerly, not mid-sweep."""

    def test_sample_frequencies_rejects_zero_calls(self):
        with pytest.raises(ValueError, match="calls_per_service"):
            sample_frequencies([_FixedService("a")], 0)
        with pytest.raises(ValueError, match="calls_per_service"):
            sample_frequencies([], -3)


class TestCrossEngineAgreement:
    def test_honest_tv_and_chi_square_identical_on_cycle_and_fast(self):
        # The sampling-distance numbers the attack artefact reports must
        # not depend on which cycle-family engine ran the overlay: same
        # seed, same final views, same post-run get_peer draw sequence.
        from repro.experiments.common import make_engine
        from repro.services import sampling_services

        def distances(engine_name):
            engine = make_engine(
                newscast(view_size=8), seed=4, engine=engine_name
            )
            random_bootstrap(engine, 80)
            engine.run(20)
            services = sampling_services(engine)
            counts = sample_frequencies(
                list(services.values()), calls_per_service=15
            )
            population = engine.addresses()
            return (
                total_variation_from_uniform(counts, population),
                chi_square_uniformity(counts, population),
            )

        cycle = distances("cycle")
        fast = distances("fast")
        assert cycle == fast


def _quality(services, calls_per_service):
    """``(normalized chi-square, total variation, coverage)`` of the
    pooled ``get_peer`` stream of ``{address: service}``."""
    population = list(services)
    counts = sample_frequencies(list(services.values()), calls_per_service)
    covered = sum(1 for a in population if counts.get(a, 0) > 0)
    return (
        chi_square_uniformity(counts, population),
        total_variation_from_uniform(counts, population),
        covered / len(population),
    )


class TestEndToEnd:
    def test_oracle_sampling_is_nearly_uniform(self):
        group = OracleGroup(seed=1)
        addresses = [f"n{i}" for i in range(60)]
        chi, tv, coverage = _quality(
            {a: group.service(a) for a in addresses}, calls_per_service=40
        )
        assert chi < 2.0
        assert tv < 0.15
        assert coverage == 1.0

    def test_protocols_cover_the_population_head_balances_hits(self):
        # Every studied service reaches (almost) every node; head view
        # selection balances the hit distribution better than rand.
        labels = (
            "(rand,head,pushpull)",
            "(rand,rand,pushpull)",
            "(rand,rand,push)",
            "(tail,head,pushpull)",
        )
        reports = {}
        for label in labels:
            engine = CycleEngine(ProtocolConfig.from_label(label, 12), seed=6)
            random_bootstrap(engine, 300)
            engine.run(40)
            services = {a: engine.service(a) for a in engine.addresses()}
            reports[label] = _quality(services, calls_per_service=20)
        for label, (_, _, coverage) in reports.items():
            assert coverage >= 0.9, label
        head = reports["(rand,head,pushpull)"]
        rand = reports["(rand,rand,pushpull)"]
        assert head[0] < rand[0]
        assert head[2] >= rand[2]
