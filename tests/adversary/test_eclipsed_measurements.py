"""Regression: attack measurements on degenerate (eclipsed) populations.

A fully successful attack can leave every honest ``getPeer()`` stream
pointing at attackers -- and churn can then remove those attackers, so
none of the sampled addresses is in the current population.  The
``sampling-distance`` and ``indegree-concentration`` measurements must
report such runs (``None`` distances, zero shares) instead of dividing
by zero or raising from the chi-square/TV helpers.
"""

from repro.core.config import ProtocolConfig
from repro.workloads import AdversarySpec, ScenarioSpec, prepare_run
from repro.workloads.measure import read_now


def attacked_runtime(n_nodes=12, attackers=tuple(range(8)), cycles=15):
    spec = ScenarioSpec(
        name="saturated",
        bootstrap="random",
        cycles=cycles,
        adversary=AdversarySpec(kind="hub", attackers=attackers),
    )
    runtime = prepare_run(
        spec,
        ProtocolConfig.from_label("(rand,head,pushpull)", 6),
        n_nodes=n_nodes,
        seed=3,
        engine="cycle",
    )
    runtime.run_to_end()
    return runtime


def test_attacked_run_reports_distances():
    runtime = attacked_runtime()
    result = read_now(runtime, "sampling-distance")
    assert result["population"] == 12
    assert result["honest_callers"] == 4
    assert result["total_variation"] is not None
    assert result["normalized_chi_square"] is not None


def test_dead_attackers_leave_distances_undefined_not_crashing():
    """The regression proper: honest views saturated with attackers,
    then every attacker churned out.  Honest samples all point outside
    the surviving population, so the in-population sample total is zero
    and the distances must be reported as None."""
    runtime = attacked_runtime()
    for address in runtime.adversary.attackers:
        runtime.engine.remove_node(address)
    result = read_now(runtime, "sampling-distance")
    assert result["population"] == 4
    assert result["honest_callers"] == 4
    # 100 samples were drawn, every one pointing at a dead attacker:
    # the population has >= 2 members, so only the in-population total
    # (zero here) keeps the distance helpers from being called.
    assert result["samples"] == 100
    assert result["total_variation"] is None
    assert result["normalized_chi_square"] is None


def test_zero_in_population_samples_guarded():
    """Force the exact zero-total case: a population disjoint from every
    sampled address."""
    runtime = attacked_runtime(n_nodes=10, attackers=tuple(range(9)))
    # 1 honest node whose view only ever saw attackers; removing them
    # leaves a 1-node population -- below the 2-node distance floor.
    for address in runtime.adversary.attackers:
        runtime.engine.remove_node(address)
    result = read_now(runtime, "sampling-distance")
    assert result["population"] == 1
    assert result["total_variation"] is None
    assert result["normalized_chi_square"] is None


def test_indegree_concentration_on_emptied_population():
    runtime = attacked_runtime(n_nodes=10, attackers=tuple(range(9)))
    for address in list(runtime.engine.addresses()):
        runtime.engine.remove_node(address)
    result = read_now(runtime, "indegree-concentration")
    assert result["total_links"] == 0
    assert result["attacker_share"] == 0.0
    assert result["max_indegree_share"] == 0.0
