"""The attack artefact: sweep structure, the f=0 honesty anchor and the
resistance ordering of the six designs."""

import pytest

from repro.experiments import attack, table2
from repro.experiments.common import Scale

TINY = Scale(
    name="tiny",
    n_nodes=80,
    view_size=6,
    cycles=15,
    growth_cycles=3,
    runs=1,
    traced_nodes=5,
    removal_repeats=1,
    metrics_every=5,
    clustering_sample=30,
    path_sources=10,
)

SMALL = Scale(
    name="small",
    n_nodes=200,
    view_size=10,
    cycles=20,
    growth_cycles=3,
    runs=1,
    traced_nodes=5,
    removal_repeats=1,
    metrics_every=5,
    clustering_sample=30,
    path_sources=10,
)
"""The smallest scale at which the resistance ordering holds: at TINY,
PeerSwap's f=0.1 share dips below 0.5 and the generic's f=0.01 share
falls below Brahms'."""


@pytest.fixture(scope="module")
def result():
    return attack.run(scale=TINY, seed=0)


@pytest.fixture(scope="module")
def small_rows():
    rows = attack.run(scale=SMALL, seed=0).rows
    return {(row.protocol, row.fraction): row for row in rows}


def _protocol(rows, predicate):
    return next(p for p, _ in rows if predicate(p))


class TestSweepStructure:
    def test_protocol_and_fraction_grid(self, result):
        assert len(result.rows) == 6 * len(attack.FRACTIONS)
        protocols = {row.protocol for row in result.rows}
        assert any(p == "(rand,head,pushpull)" for p in protocols)
        assert any(";H" in p for p in protocols)  # the healer variant
        assert any(p.startswith("cyclon(") for p in protocols)
        assert any(p.startswith("peerswap(") for p in protocols)
        assert any(p.startswith("brahms(") for p in protocols)
        assert any(p.endswith(";V") for p in protocols)  # validated generic
        for row in result.rows:
            assert row.fraction in attack.FRACTIONS

    def test_extensions_pinned_to_cycle_engine(self, result):
        for row in result.rows:
            if row.protocol.startswith(("cyclon(", "peerswap(", "brahms(")):
                assert row.engine == "cycle"

    def test_honest_rows_reference_no_attackers(self, result):
        for row in result.rows:
            if row.fraction == 0.0:
                assert row.attacker_share == 0.0

    def test_attacked_rows_concentrate_indegree(self, result):
        # At f=0.1 hub poisoning must visibly capture in-degree on the
        # generic protocol relative to its honest baseline.
        by_key = {(r.protocol, r.fraction): r for r in result.rows}
        generic = [p for p, _ in by_key if p == "(rand,head,pushpull)"][0]
        honest = by_key[(generic, 0.0)]
        attacked = by_key[(generic, 0.1)]
        assert attacked.attacker_share > 10 * max(
            honest.attacker_share, 0.01
        )
        assert attacked.total_variation > honest.total_variation

    def test_brahms_resists_the_flood(self, result):
        # At f=0.1 -- where every undefended design loses most of its
        # links -- the defended sampler keeps the attacker share small.
        by_key = {(r.protocol, r.fraction): r for r in result.rows}
        brahms = next(p for p, _ in by_key if p.startswith("brahms("))
        generic = by_key[("(rand,head,pushpull)", 0.1)]
        defended = by_key[(brahms, 0.1)]
        assert defended.attacker_share < generic.attacker_share / 2
        assert defended.total_variation < generic.total_variation

    def test_sampling_distance_reported_everywhere(self, result):
        for row in result.rows:
            assert row.total_variation is not None
            assert row.chi_square is not None

    def test_report_renders(self, result):
        report = attack.report(result)
        assert "tiny" in report
        assert "peerswap" in report
        assert len(report.splitlines()) >= 3 + len(result.rows)

    def test_summary_dict_is_json_ready(self, result):
        import json

        payload = attack.summary_dict(result)
        assert json.loads(json.dumps(payload)) == payload
        assert len(payload["rows"]) == len(result.rows)


class TestHonestAnchor:
    def test_f0_generic_cell_reproduces_table2(self, result):
        """Acceptance criterion: the honest generic run IS the table2
        cell -- same scenario, scale, engine, and seed -- so its degree
        statistic matches table2's bit for bit."""
        reference = table2.run(scale=TINY, seed=0)
        table2_row = next(
            row
            for row in reference.rows
            if row.label == "(rand,head,pushpull)"
        )
        attack_row = next(
            row
            for row in result.rows
            if row.protocol == "(rand,head,pushpull)"
            and row.fraction == 0.0
        )
        assert (
            attack_row.mean_degree
            == table2_row.dynamics.final_cycle_mean_degree
        )

    def test_same_seed_is_deterministic(self):
        first = attack.run(scale=TINY, seed=2)
        second = attack.run(scale=TINY, seed=2)
        assert first.rows == second.rows


class TestResistanceOrdering:
    """Hub poisoning captures every undefended design at f=0.1; Brahms
    resists, and at f=0.01 ranks below the generic protocol and no worse
    than Cyclon (Guerraoui et al.'s comparison of PeerSwap, Brahms and
    Cyclon)."""

    GENERIC = "(rand,head,pushpull)"

    def test_honest_rows_are_attacker_free_and_near_uniform(self, small_rows):
        for (protocol, fraction), row in small_rows.items():
            if fraction == 0.0:
                assert row.attacker_share == 0.0, protocol
                assert row.total_variation < 0.5, protocol

    def test_undefended_designs_are_captured_at_f_0_1(self, small_rows):
        brahms = _protocol(small_rows, lambda p: p.startswith("brahms("))
        undefended = {p for p, _ in small_rows} - {brahms}
        assert len(undefended) == 5
        for protocol in undefended:
            honest = small_rows[(protocol, 0.0)]
            attacked = small_rows[(protocol, 0.1)]
            assert attacked.attacker_share > 0.5, protocol
            assert attacked.total_variation > honest.total_variation, protocol
            assert attacked.chi_square > honest.chi_square, protocol

    def test_brahms_keeps_the_share_below_half_at_f_0_1(self, small_rows):
        brahms = _protocol(small_rows, lambda p: p.startswith("brahms("))
        assert small_rows[(brahms, 0.1)].attacker_share < 0.5

    def test_defences_beat_the_generic_at_f_0_01(self, small_rows):
        brahms = _protocol(small_rows, lambda p: p.startswith("brahms("))
        cyclon = _protocol(small_rows, lambda p: p.startswith("cyclon("))
        validated = _protocol(small_rows, lambda p: p.endswith(";V"))
        generic = small_rows[(self.GENERIC, 0.01)].attacker_share
        defended = small_rows[(brahms, 0.01)].attacker_share
        assert defended < generic
        assert defended <= small_rows[(cyclon, 0.01)].attacker_share
        assert small_rows[(validated, 0.01)].attacker_share < generic
