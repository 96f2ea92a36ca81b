"""Unit tests for protocol configurations."""

import pytest

from repro.core.config import (
    ALL_PROTOCOLS,
    DEFAULT_VIEW_SIZE,
    STUDIED_PROTOCOLS,
    ProtocolConfig,
    iter_all_protocols,
    lpbcast,
    newscast,
    studied_protocols,
)
from repro.core.errors import ConfigurationError
from repro.core.policies import PeerSelection, Propagation, ViewSelection


class TestProtocolConfig:
    def test_label_round_trip(self):
        config = ProtocolConfig(
            PeerSelection.RAND, ViewSelection.HEAD, Propagation.PUSHPULL
        )
        assert config.label == "(rand,head,pushpull)"
        assert ProtocolConfig.from_label(config.label) == config

    def test_from_label_without_parentheses(self):
        config = ProtocolConfig.from_label("tail,rand,push")
        assert config.peer_selection is PeerSelection.TAIL
        assert config.view_selection is ViewSelection.RAND
        assert config.propagation is Propagation.PUSH

    def test_from_label_custom_view_size(self):
        assert ProtocolConfig.from_label("(rand,head,push)", 7).view_size == 7

    def test_from_label_invalid(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig.from_label("nonsense")
        with pytest.raises(ConfigurationError):
            ProtocolConfig.from_label("(rand,head)")
        with pytest.raises(ConfigurationError):
            ProtocolConfig.from_label("(rand,head,teleport)")

    def test_view_size_validation(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(
                PeerSelection.RAND,
                ViewSelection.HEAD,
                Propagation.PUSH,
                view_size=0,
            )

    def test_policy_type_validation(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig("rand", ViewSelection.HEAD, Propagation.PUSH)
        with pytest.raises(ConfigurationError):
            ProtocolConfig(PeerSelection.RAND, "head", Propagation.PUSH)
        with pytest.raises(ConfigurationError):
            ProtocolConfig(PeerSelection.RAND, ViewSelection.HEAD, "push")


    def test_push_pull_properties(self):
        assert newscast().push and newscast().pull
        assert lpbcast().push and not lpbcast().pull

    def test_replace(self):
        base = newscast()
        changed = base.replace(view_size=9)
        assert changed.view_size == 9
        assert base.view_size == DEFAULT_VIEW_SIZE
        assert changed.peer_selection is base.peer_selection

    def test_frozen(self):
        with pytest.raises(Exception):
            newscast().view_size = 99

    def test_hashable(self):
        assert len({newscast(), newscast(), lpbcast()}) == 2


class TestHealerSwapper:
    def test_defaults_are_zero(self):
        config = newscast()
        assert config.healer == 0
        assert config.swapper == 0

    def test_negative_values_rejected(self):
        with pytest.raises(ConfigurationError):
            newscast().replace(healer=-1)
        with pytest.raises(ConfigurationError):
            newscast().replace(swapper=-2)

    def test_label_unchanged_when_zero(self):
        assert newscast().label == "(rand,head,pushpull)"

    def test_label_includes_nonzero_parameters(self):
        config = newscast().replace(healer=1, swapper=3)
        assert config.label == "(rand,head,pushpull);H1S3"

    def test_label_round_trips_through_from_label(self):
        config = newscast().replace(healer=1, swapper=3)
        assert ProtocolConfig.from_label(config.label) == config

    def test_replace_round_trip(self):
        config = newscast().replace(healer=2, swapper=1)
        assert config.healer == 2
        assert config.swapper == 1
        assert config.replace(healer=0, swapper=0) == newscast()


class TestNamedProtocols:
    def test_newscast_is_rand_head_pushpull(self):
        assert newscast().label == "(rand,head,pushpull)"

    def test_lpbcast_is_rand_rand_push(self):
        assert lpbcast().label == "(rand,rand,push)"

    def test_defaults_use_paper_view_size(self):
        assert newscast().view_size == 30
        assert DEFAULT_VIEW_SIZE == 30


class TestProtocolSets:
    def test_studied_set_has_eight_instances(self):
        assert len(STUDIED_PROTOCOLS) == 8
        labels = {p.label for p in STUDIED_PROTOCOLS}
        assert len(labels) == 8

    def test_studied_set_excludes_rejected_dimensions(self):
        for config in STUDIED_PROTOCOLS:
            assert config.peer_selection is not PeerSelection.HEAD
            assert config.view_selection is not ViewSelection.TAIL
            assert config.propagation is not Propagation.PULL

    def test_studied_set_contains_named_protocols(self):
        labels = {p.label for p in STUDIED_PROTOCOLS}
        assert newscast().label in labels
        assert lpbcast().label in labels

    def test_studied_protocols_view_size(self):
        for config in studied_protocols(12):
            assert config.view_size == 12

    def test_all_protocols_cover_full_design_space(self):
        assert len(ALL_PROTOCOLS) == 27
        assert len({p.label for p in ALL_PROTOCOLS}) == 27

    def test_iter_all_protocols_matches_constant(self):
        assert tuple(iter_all_protocols()) == ALL_PROTOCOLS


class TestValidationFlag:
    def test_validated_label_round_trip(self):
        config = ProtocolConfig.from_label("(rand,head,pushpull);v")
        assert config.validate_descriptors is True
        assert config.label == "(rand,head,pushpull);V"
        assert ProtocolConfig.from_label(config.label) == config

    def test_validation_composes_with_healer_swapper(self):
        config = ProtocolConfig.from_label("(tail,rand,pushpull);h2s2;v")
        assert config.healer == 2 and config.swapper == 2
        assert config.validate_descriptors is True
        assert config.label == "(tail,rand,pushpull);H2S2;V"
        assert ProtocolConfig.from_label(config.label) == config

    def test_validation_defaults_off(self):
        assert ProtocolConfig.from_label(
            "(rand,head,pushpull)"
        ).validate_descriptors is False

    def test_replace_toggles_validation(self):
        config = ProtocolConfig.from_label("(rand,head,pushpull)")
        defended = config.replace(validate_descriptors=True)
        assert defended.label.endswith(";V")
        assert defended.replace(validate_descriptors=False) == config

    @pytest.mark.parametrize(
        "label",
        [
            "(rand,head,pushpull);x",
            "(rand,head,pushpull);v;v",
            "(rand,head,pushpull);vh2s2",  # wrong suffix order
            "(rand,head,pushpull);validate",
        ],
    )
    def test_unknown_defence_suffixes_rejected(self, label):
        with pytest.raises(ConfigurationError):
            ProtocolConfig.from_label(label)


class TestNetworkConfigAuthKey:
    def test_default_is_unkeyed(self):
        from repro.core.config import NetworkConfig

        assert NetworkConfig().auth_key is None

    def test_accepts_non_empty_bytes(self):
        from repro.core.config import NetworkConfig

        assert NetworkConfig(auth_key=b"secret").auth_key == b"secret"

    @pytest.mark.parametrize("key", [b"", "secret", 42, ["k"]])
    def test_rejects_non_bytes_and_empty(self, key):
        from repro.core.config import NetworkConfig

        with pytest.raises(ConfigurationError, match="auth_key"):
            NetworkConfig(auth_key=key)


class TestNetworkConfigWireVersion:
    def test_default_is_v2(self):
        from repro.core.config import NetworkConfig

        assert NetworkConfig().wire_version == 2

    @pytest.mark.parametrize("version", [0, 1, 3])
    def test_only_v2_accepted(self, version):
        from repro.core.config import NetworkConfig

        with pytest.raises(ConfigurationError, match="wire_version"):
            NetworkConfig(wire_version=version)
