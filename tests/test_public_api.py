"""The package's public surface: imports, exports, version."""

import repro


def test_version():
    assert repro.__version__ == "1.9.0"


def test_c_source_ships_next_to_its_loader():
    # package data: the installed module compiles this file at first use
    import os

    from repro.simulation import _fastcore

    assert os.path.dirname(_fastcore._SOURCE_PATH) == os.path.dirname(
        os.path.abspath(_fastcore.__file__)
    )
    assert os.path.isfile(_fastcore._SOURCE_PATH)


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_top_level_workflow():
    engine = repro.CycleEngine(repro.newscast(view_size=8), seed=0)
    from repro.simulation.scenarios import random_bootstrap

    random_bootstrap(engine, 50)
    engine.run(5)
    service = engine.service(engine.addresses()[0])
    assert isinstance(service, repro.PeerSamplingService)
    assert service.get_peer() in engine


def test_named_protocols_exported():
    assert repro.newscast().label == "(rand,head,pushpull)"
    assert repro.lpbcast().label == "(rand,rand,push)"
    assert len(repro.STUDIED_PROTOCOLS) == 8
    assert len(repro.ALL_PROTOCOLS) == 27


def test_subpackages_importable():
    import repro.baselines
    import repro.control
    import repro.core
    import repro.experiments
    import repro.extensions
    import repro.graph
    import repro.simulation
    import repro.stats
    import repro.workloads

    assert repro.control.SeedService is not None
    assert repro.control.IntroducerClient is not None

    assert repro.graph.GraphSnapshot is not None
    assert repro.stats.autocorrelation is not None
    assert repro.workloads.ScenarioSpec is repro.ScenarioSpec


def test_adversary_exports_one_indexed_policy():
    import repro.adversary as adversary

    for name in adversary.__all__:
        assert getattr(adversary, name) is not None, name
    assert "IndexedAdversary" in adversary.__all__
    # the two re-inlined adversarial loops are gone, not kept beside it
    assert not hasattr(adversary, "FastAdversary")
    assert not hasattr(adversary, "FastEventAdversary")


def test_declarative_workflow():
    runtime = repro.prepare_run(
        repro.ScenarioSpec(bootstrap="random", cycles=5),
        repro.newscast(view_size=8),
        n_nodes=50,
        seed=0,
    )
    runtime.run_to_end()
    assert runtime.engine.cycle == 5
    assert len(runtime.engine) == 50
