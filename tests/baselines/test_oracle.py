"""Unit tests for the ideal uniform sampling baseline."""

import pytest

from repro.baselines.oracle import OracleGroup, OracleSamplingService
from repro.core.errors import (
    ConfigurationError,
    NodeNotFoundError,
    NotInitializedError,
)


class TestOracleGroup:
    def test_join_and_len(self):
        group = OracleGroup(seed=0)
        group.join("a")
        group.join("b")
        assert len(group) == 2
        assert "a" in group

    def test_join_idempotent(self):
        group = OracleGroup(seed=0)
        group.join("a")
        group.join("a")
        assert len(group) == 1

    def test_leave(self):
        group = OracleGroup(seed=0)
        for member in "abc":
            group.join(member)
        group.leave("b")
        assert "b" not in group
        assert set(group.addresses()) == {"a", "c"}

    def test_leave_unknown_raises(self):
        with pytest.raises(NodeNotFoundError):
            OracleGroup().leave("ghost")

    def test_leave_last_member(self):
        group = OracleGroup(seed=0)
        group.join("a")
        group.leave("a")
        assert len(group) == 0

    def test_sample_excludes_caller(self):
        group = OracleGroup(seed=1)
        group.join("me")
        group.join("other")
        assert all(
            group.sample(exclude="me") == "other" for _ in range(20)
        )

    def test_sample_empty_group(self):
        assert OracleGroup().sample() is None

    def test_sample_single_member_excluded(self):
        group = OracleGroup(seed=0)
        group.join("me")
        assert group.sample(exclude="me") is None

    def test_sample_is_uniform(self):
        group = OracleGroup(seed=2)
        members = [f"n{i}" for i in range(10)]
        for member in members:
            group.join(member)
        counts = {m: 0 for m in members}
        trials = 10000
        for _ in range(trials):
            counts[group.sample()] += 1
        expected = trials / len(members)
        for count in counts.values():
            assert abs(count - expected) < expected * 0.2


class TestOracleSamplingService:
    def test_service_requires_membership(self):
        group = OracleGroup()
        with pytest.raises(ConfigurationError):
            OracleSamplingService(group, "ghost")

    def test_group_service_helper_joins(self):
        group = OracleGroup(seed=0)
        service = group.service("a")
        assert "a" in group
        assert service.address == "a"
        assert service.initialized

    def test_get_peer_excludes_self(self):
        group = OracleGroup(seed=3)
        service = group.service("me")
        group.join("other")
        assert all(service.get_peer() == "other" for _ in range(20))

    def test_get_peer_after_leave_raises(self):
        group = OracleGroup(seed=0)
        service = group.service("me")
        group.leave("me")
        with pytest.raises(NotInitializedError):
            service.get_peer()

    def test_init_is_noop(self):
        group = OracleGroup(seed=0)
        service = group.service("me")
        service.init(["whatever"])  # must not raise or change anything
        assert len(group) == 1

    def test_get_peers(self):
        group = OracleGroup(seed=4)
        service = group.service("me")
        for member in "abc":
            group.join(member)
        samples = service.get_peers(50)
        assert len(samples) == 50
        assert set(samples) <= {"a", "b", "c"}

    def test_get_peers_alone(self):
        group = OracleGroup(seed=0)
        service = group.service("me")
        assert service.get_peers(5) == []
