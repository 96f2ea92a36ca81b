"""Unit and behavioural tests for the sampling-quality toolkit."""

import random

import pytest

from repro.baselines.oracle import OracleGroup
from repro.core.config import ProtocolConfig, newscast
from repro.simulation.engine import CycleEngine
from repro.simulation.scenarios import random_bootstrap
from repro.stats.sampling_quality import (
    SamplingQualityReport,
    chi_square_uniformity,
    evaluate_sampling_quality,
    repeat_probability,
    sample_frequencies,
    total_variation_from_uniform,
)


class _FixedService:
    """Always returns the same peer (maximally non-uniform)."""

    def __init__(self, peer):
        self.peer = peer

    def get_peer(self):
        return self.peer


class _CyclingService:
    """Cycles deterministically through a list of peers."""

    def __init__(self, peers):
        self.peers = list(peers)
        self.index = 0

    def get_peer(self):
        peer = self.peers[self.index % len(self.peers)]
        self.index += 1
        return peer


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


class TestRepeatProbability:
    def test_fixed_service_always_repeats(self):
        assert repeat_probability(_FixedService("a"), 50) == 1.0

    def test_cycling_service_never_repeats_within_window(self):
        service = _CyclingService(["a", "b", "c", "d"])
        assert repeat_probability(service, 40, window=1) == 0.0

    def test_window_widens_detection(self):
        # Cycling a,b repeats at window 2 for every sample after the second
        # (the first observed sample has only one predecessor).
        service = _CyclingService(["a", "b"])
        assert repeat_probability(service, 40, window=2) > 0.9

    def test_empty_service(self):
        assert repeat_probability(_EmptyService(), 10) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            repeat_probability(_FixedService("a"), 1)


class TestDegenerateInputGuards:
    """Regression tests: degenerate inputs fail eagerly, not mid-sweep."""

    def test_sample_frequencies_rejects_zero_calls(self):
        with pytest.raises(ValueError, match="calls_per_service"):
            sample_frequencies([_FixedService("a")], 0)
        with pytest.raises(ValueError, match="calls_per_service"):
            sample_frequencies([], -3)

    def test_repeat_probability_rejects_bad_window(self):
        with pytest.raises(ValueError, match="window"):
            repeat_probability(_FixedService("a"), 10, window=0)

    def test_evaluate_rejects_empty_service_mapping(self):
        with pytest.raises(ValueError, match="at least one service"):
            evaluate_sampling_quality({})

    def test_evaluate_rejects_single_node_population(self):
        with pytest.raises(ValueError, match="single-node"):
            evaluate_sampling_quality({"only": _FixedService("only")})

    def test_two_services_are_accepted(self):
        services = {
            "a": _FixedService("b"),
            "b": _FixedService("a"),
        }
        report = evaluate_sampling_quality(services, calls_per_service=5)
        assert report.n_population == 2
        assert report.coverage == 1.0


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


class TestEndToEnd:
    def test_oracle_sampling_is_nearly_uniform(self):
        group = OracleGroup(seed=1)
        addresses = [f"n{i}" for i in range(60)]
        services = {a: group.service(a) for a in addresses}
        report = evaluate_sampling_quality(services, calls_per_service=40)
        assert isinstance(report, SamplingQualityReport)
        assert report.normalized_chi_square < 2.0
        assert report.total_variation < 0.15
        assert report.coverage == 1.0
        # Uniform sampling over 59 peers: immediate repeats are rare.
        assert report.repeat_probability_window1 < 0.15

    def test_gossip_sampling_is_visibly_non_uniform(self):
        # The paper's core result, at the API level: a gossip-backed
        # service shows more temporal correlation than the oracle (samples
        # come from a c-sized view, not the whole population).
        engine = CycleEngine(newscast(view_size=10), seed=2)
        random_bootstrap(engine, 60)
        engine.run(25)
        services = {a: engine.service(a) for a in engine.addresses()}
        gossip = evaluate_sampling_quality(services, calls_per_service=40)

        group = OracleGroup(seed=3)
        oracle_services = {
            a: group.service(a) for a in engine.addresses()
        }
        oracle = evaluate_sampling_quality(
            oracle_services, calls_per_service=40
        )
        assert (
            gossip.repeat_probability_window1
            > 2 * oracle.repeat_probability_window1
        )
        assert gossip.coverage == 1.0

    def test_protocols_cover_the_population_but_repeat_themselves(self):
        # Every studied service reaches (almost) every node, yet repeats
        # far more often than independent uniform draws; head view
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
            reports[label] = evaluate_sampling_quality(
                services, calls_per_service=20
            )
        group = OracleGroup(seed=7)
        oracle = evaluate_sampling_quality(
            {i: group.service(i) for i in range(300)}, calls_per_service=20
        )
        for label, report in reports.items():
            assert report.coverage >= 0.9, label
            assert (
                report.repeat_probability_window1
                > 2 * oracle.repeat_probability_window1
            ), label
        head = reports["(rand,head,pushpull)"]
        rand = reports["(rand,rand,pushpull)"]
        assert head.normalized_chi_square < rand.normalized_chi_square
        assert head.coverage >= rand.coverage
