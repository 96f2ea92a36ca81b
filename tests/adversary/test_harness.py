"""Placement, attack window and installation dispatch."""

import pytest

from repro.adversary import place_attackers
from repro.core.errors import ConfigurationError
from repro.workloads import (
    AdversarySpec,
    ScenarioSpec,
    prepare_run,
    views_digest,
)
from repro.core.config import ProtocolConfig

CONFIG = ProtocolConfig.from_label("(rand,head,pushpull)", 6)


def run_digest(spec, engine="cycle", n_nodes=40, seed=5):
    runtime = prepare_run(spec, CONFIG, n_nodes=n_nodes, seed=seed,
                          engine=engine)
    runtime.run_to_end()
    digest = views_digest(runtime.engine)
    close = getattr(runtime.engine, "close", None)
    if close is not None:
        close()
    return digest, runtime


class TestPlacement:
    ADDRESSES = [f"node{i}" for i in range(100)]

    def test_explicit_indices_resolve_in_order(self):
        spec = AdversarySpec(kind="hub", attackers=(5, 0, 99))
        attackers, victims = place_attackers(spec, self.ADDRESSES)
        assert attackers == ("node5", "node0", "node99")
        assert victims == ()

    def test_out_of_range_index(self):
        spec = AdversarySpec(kind="hub", attackers=(100,))
        with pytest.raises(ConfigurationError, match="out of range"):
            place_attackers(spec, self.ADDRESSES)

    def test_fraction_is_deterministic_and_seeded(self):
        spec = AdversarySpec(kind="hub", fraction=0.1, placement_seed=3)
        first, _ = place_attackers(spec, self.ADDRESSES)
        second, _ = place_attackers(spec, self.ADDRESSES)
        assert first == second
        assert len(first) == 10
        moved, _ = place_attackers(spec.replace(placement_seed=4),
                                   self.ADDRESSES)
        assert moved != first

    def test_fraction_rounds_to_zero(self):
        spec = AdversarySpec(kind="hub", fraction=0.001)
        attackers, _ = place_attackers(spec, self.ADDRESSES)
        assert attackers == ()

    def test_fraction_never_samples_victims(self):
        spec = AdversarySpec(kind="eclipse", fraction=0.5, victims=(0, 1, 2))
        attackers, victims = place_attackers(spec, self.ADDRESSES)
        assert victims == ("node0", "node1", "node2")
        assert not set(attackers) & set(victims)


class TestInstallation:
    def attacked(self, **adversary_kwargs):
        return ScenarioSpec(
            name="attacked",
            bootstrap="random",
            cycles=10,
            adversary=AdversarySpec(**adversary_kwargs),
        )

    def test_fraction_zero_is_byte_identical_to_honest(self):
        honest = ScenarioSpec(name="honest", bootstrap="random", cycles=10)
        attacked = self.attacked(kind="hub", fraction=0.0)
        for engine in ("cycle", "fast"):
            ref, _ = run_digest(honest, engine)
            got, runtime = run_digest(attacked, engine)
            assert got == ref
            assert runtime.adversary.attackers == ()

    def test_handle_exposes_placement(self):
        _, runtime = run_digest(self.attacked(kind="hub", fraction=0.1))
        handle = runtime.adversary
        assert len(handle.attackers) == 4
        assert handle.spec.kind == "hub"
        assert set(handle.attackers) <= set(runtime.engine.addresses())

    def test_window_bounds_attack(self):
        windowed = self.attacked(
            kind="hub", fraction=0.2, start_cycle=4, stop_cycle=7
        )
        always = self.attacked(kind="hub", fraction=0.2)
        honest = ScenarioSpec(name="honest", bootstrap="random", cycles=10)
        w, _ = run_digest(windowed)
        a, _ = run_digest(always)
        h, _ = run_digest(honest)
        assert w != a and w != h  # on for part of the run, off for the rest

    def test_closed_window_restores_honest_behavior(self):
        # All exchanges after stop_cycle are honest: the attacker wrapper
        # must pass through, not keep poisoning.
        spec = self.attacked(kind="drop", fraction=0.2, stop_cycle=1)
        _, runtime = run_digest(spec)
        assert runtime.adversary.state.active is False

    @pytest.mark.parametrize("engine", ("fast", "fast-event"))
    def test_flat_engines_install_the_indexed_policy(self, engine):
        from repro.adversary import IndexedAdversary

        spec = self.attacked(kind="hub", fraction=0.1)
        runtime = prepare_run(
            spec, CONFIG, n_nodes=20, seed=1, engine=engine
        )
        assert isinstance(runtime.engine.adversary, IndexedAdversary)
        runtime.run_to_end()
        # no stop_cycle: the window stays open to the end of the run.
        assert runtime.engine.adversary.active is True

    @pytest.mark.parametrize(
        "accelerate", (None, False), ids=("default-core", "pure-python")
    )
    @pytest.mark.parametrize("engine", ("fast", "fast-event"))
    def test_never_opened_window_is_the_honest_run(self, engine, accelerate):
        # The honest backends pay nothing for hooks they do not have: a
        # placement whose window never opens leaves the backend choice,
        # every draw and every counter exactly as without it.
        honest = ScenarioSpec(name="honest", bootstrap="random", cycles=10)
        dormant = self.attacked(kind="hub", fraction=0.2, start_cycle=99)
        outcomes = []
        for spec in (honest, dormant):
            runtime = prepare_run(
                spec, CONFIG, n_nodes=40, seed=5, engine=engine,
                accelerate=accelerate,
            )
            runtime.run_to_end()
            run = runtime.engine
            outcomes.append((
                views_digest(run),
                run.completed_exchanges,
                run.failed_exchanges,
                getattr(run, "messages_sent", None),
                getattr(run, "messages_lost", None),
                run.rng.getstate(),
                run._backend()[1:],
            ))
        assert outcomes[0] == outcomes[1]
        assert run.adversary is not None and run._backend()[0] is None

    def test_event_node_engine_wraps_attacker_nodes(self):
        from repro.adversary import AdversarialNode

        spec = self.attacked(kind="hub", fraction=0.2)
        runtime = prepare_run(
            spec, CONFIG, n_nodes=20, seed=1, engine="event"
        )
        attackers = set(runtime.adversary.attackers)
        assert attackers
        for address in attackers:
            assert isinstance(
                runtime.engine._nodes[address], AdversarialNode
            )

    def test_window_flag_primed_for_cycle_zero(self):
        # The event engines fire their first before_cycle observer at
        # boundary 1; an attack starting at cycle 0 must already be
        # active during the first cycle's events.
        spec = self.attacked(kind="hub", fraction=0.2, start_cycle=0)
        runtime = prepare_run(
            spec, CONFIG, n_nodes=20, seed=1, engine="fast-event"
        )
        assert runtime.adversary.state.active is True
        delayed = self.attacked(kind="hub", fraction=0.2, start_cycle=3)
        runtime = prepare_run(
            delayed, CONFIG, n_nodes=20, seed=1, engine="event"
        )
        assert runtime.adversary.state.active is False

    def test_unsupported_engine_rejected_eagerly(self):
        spec = self.attacked(kind="hub", fraction=0.1)
        with pytest.raises(ConfigurationError, match="engine"):
            prepare_run(
                spec, CONFIG, n_nodes=20, seed=1, engine="fast-sharded"
            )
