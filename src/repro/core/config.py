"""Protocol configurations: points in the paper's 3x3x3 design space.

A :class:`ProtocolConfig` fixes the three policies plus the view capacity
``c``.  The module also names the instances the paper highlights:

- :func:`newscast` -- ``(rand, head, pushpull)`` (paper Section 3);
- :func:`lpbcast` -- ``(rand, rand, push)``, the membership component of
  lightweight probabilistic broadcast;
- :data:`STUDIED_PROTOCOLS` -- the eight instances the evaluation keeps
  after discarding ``(head,*,*)``, ``(*,tail,*)`` and ``(*,*,pull)``
  (paper Section 4.3);
- :data:`ALL_PROTOCOLS` -- the full 27-instance space, used by the
  preliminary-experiment reproductions.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Iterator, Tuple

from repro.core.errors import ConfigurationError
from repro.core.policies import (
    PeerSelection,
    Propagation,
    ViewSelection,
    parse_peer_selection,
    parse_propagation,
    parse_view_selection,
)

DEFAULT_VIEW_SIZE = 30
"""The paper's view capacity ``c`` (Section 4.3)."""

_LABEL_RE = re.compile(
    r"^\(?\s*(?P<ps>[a-z]+)\s*,\s*(?P<vs>[a-z]+)\s*,\s*(?P<vp>[a-z-]+)\s*\)?"
    r"(?:\s*;\s*h(?P<healer>\d+)s(?P<swapper>\d+))?"
    r"(?:\s*;\s*(?P<validate>v))?$"
)


@dataclasses.dataclass(frozen=True)
class ProtocolConfig:
    """An instance of the generic peer sampling protocol.

    Parameters
    ----------
    peer_selection:
        Which view entry the active thread gossips with.
    view_selection:
        Which descriptors survive truncation after a merge.
    propagation:
        ``push``, ``pull`` or ``pushpull``.
    view_size:
        The view capacity ``c`` (default 30, the paper's setting).
    keep_self_descriptors:
        If ``True``, a node's own descriptor may enter its view through
        merges.  The default ``False`` matches Newscast and the reference
        implementations; ``TestAblations`` in
        ``tests/simulation/test_engine.py`` measures the difference.
    healer:
        The *healer* parameter ``H`` of the authors' later formalization
        (Jelasity et al., ACM TOCS 2007, "Gossip-based Peer Sampling").
        When a merge buffer overflows the capacity, up to ``H`` of the
        *oldest* descriptors (highest hop count) are dropped before the
        view-selection truncation runs, accelerating dead-link removal.
        The default 0 reproduces the Middleware 2004 protocol exactly.
    swapper:
        The *swapper* parameter ``S`` (same formalization): after the
        healer step, up to ``S`` descriptors that survive from the node's
        *own previous view* -- the entries it just sent to its exchange
        partner, freshest first -- are dropped, biasing the view towards
        received entries ("swap" semantics).  Default 0, see ``healer``.
    validate_descriptors:
        If ``True``, received payloads are passed through
        :func:`repro.defenses.validation.sanitize_payload` between the
        hop increment and the merge: entries naming the receiver,
        duplicates, and out-of-range hop counts are dropped, and relayed
        entries claiming forged hop-0 freshness are floored to hop 2.
        Honest traffic is unaffected; hub-style poisoning loses its
        age-race advantage.  Default ``False`` (the paper's node trusts
        everything).
    """

    peer_selection: PeerSelection
    view_selection: ViewSelection
    propagation: Propagation
    view_size: int = DEFAULT_VIEW_SIZE
    keep_self_descriptors: bool = False
    healer: int = 0
    swapper: int = 0
    validate_descriptors: bool = False

    def __post_init__(self) -> None:
        if self.view_size < 1:
            raise ConfigurationError(
                f"view_size must be >= 1, got {self.view_size}"
            )
        if self.healer < 0:
            raise ConfigurationError(
                f"healer (H) must be >= 0, got {self.healer}"
            )
        if self.swapper < 0:
            raise ConfigurationError(
                f"swapper (S) must be >= 0, got {self.swapper}"
            )
        if not isinstance(self.peer_selection, PeerSelection):
            raise ConfigurationError(
                f"peer_selection must be a PeerSelection, got "
                f"{self.peer_selection!r}"
            )
        if not isinstance(self.view_selection, ViewSelection):
            raise ConfigurationError(
                f"view_selection must be a ViewSelection, got "
                f"{self.view_selection!r}"
            )
        if not isinstance(self.propagation, Propagation):
            raise ConfigurationError(
                f"propagation must be a Propagation, got {self.propagation!r}"
            )

    # -- convenience ------------------------------------------------------

    @property
    def push(self) -> bool:
        """Whether the initiator sends its view (paper's ``push`` flag)."""
        return self.propagation.push

    @property
    def pull(self) -> bool:
        """Whether the initiator receives a view (paper's ``pull`` flag)."""
        return self.propagation.pull

    @property
    def label(self) -> str:
        """The paper's tuple notation, e.g. ``(rand,head,pushpull)``.

        Nonzero healer/swapper parameters are appended as ``;H<h>S<s>``
        and descriptor validation as ``;V`` (neither is part of the
        Middleware 2004 design space).
        """
        base = (
            f"({self.peer_selection.value},{self.view_selection.value},"
            f"{self.propagation.value})"
        )
        if self.healer or self.swapper:
            base = f"{base};H{self.healer}S{self.swapper}"
        if self.validate_descriptors:
            base = f"{base};V"
        return base

    def replace(self, **changes: object) -> "ProtocolConfig":
        """Return a copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    @classmethod
    def from_label(
        cls, label: str, view_size: int = DEFAULT_VIEW_SIZE
    ) -> "ProtocolConfig":
        """Parse the paper's tuple notation.

        Round-trips :attr:`label` exactly, including the ``;H<h>S<s>``
        suffix of nonzero healer/swapper configurations and the ``;V``
        descriptor-validation suffix.

        >>> ProtocolConfig.from_label("(rand,head,pushpull)").label
        '(rand,head,pushpull)'
        >>> ProtocolConfig.from_label("(rand,head,pushpull);H1S3").swapper
        3
        >>> ProtocolConfig.from_label(
        ...     "(rand,head,pushpull);V").validate_descriptors
        True
        """
        match = _LABEL_RE.match(label.strip().lower())
        if match is None:
            raise ConfigurationError(f"cannot parse protocol label: {label!r}")
        try:
            return cls(
                peer_selection=parse_peer_selection(match.group("ps")),
                view_selection=parse_view_selection(match.group("vs")),
                propagation=parse_propagation(match.group("vp")),
                view_size=view_size,
                healer=int(match.group("healer") or 0),
                swapper=int(match.group("swapper") or 0),
                validate_descriptors=match.group("validate") is not None,
            )
        except ValueError as exc:
            raise ConfigurationError(
                f"cannot parse protocol label: {label!r}"
            ) from exc


@dataclasses.dataclass(frozen=True)
class NetworkConfig:
    """Timing and wire parameters of a *deployed* protocol instance.

    The simulation engines abstract time into cycles; the networked daemon
    (:mod:`repro.net`) needs real-time equivalents of the paper's model
    plus the failure-handling knobs a deployment cannot avoid:

    Parameters
    ----------
    cycle_seconds:
        Target wall-clock length of one gossip cycle (the paper's ``T``).
    jitter:
        Fraction of ``cycle_seconds`` by which each wait is uniformly
        perturbed (``+/- jitter * cycle_seconds``).  Desynchronizes the
        active threads of a cluster started at the same instant, exactly
        like the random phase offsets the event-driven engine models.
    request_timeout:
        Seconds the active thread waits for a pull reply before giving the
        exchange up.  Replies arriving after the timeout are *dropped*, not
        merged -- a late merge would resurrect descriptors the view
        selection already aged past.
    wire_version:
        The version stamp written into every gossip frame.  Only
        :data:`repro.core.codec.WIRE_FORMAT_V2` exists; any other value is
        a :class:`~repro.core.errors.ConfigurationError`.
    bind_host:
        Interface the UDP transport binds to.  The default loopback
        address keeps accidental exposure impossible; a real deployment
        overrides it deliberately.
    auth_key:
        Optional shared HMAC key.  When set, the daemon wraps every
        outgoing gossip frame in a signed envelope
        (:func:`repro.core.codec.encode_signed_message`) and *requires*
        a valid signature on every incoming one -- unsigned or
        forged frames are counted (``DaemonStats.auth_failures``) and
        dropped before they can touch the view.  ``None`` (default)
        keeps the open wire format.
    """

    cycle_seconds: float = 1.0
    jitter: float = 0.1
    request_timeout: float = 0.5
    wire_version: int = 2
    bind_host: str = "127.0.0.1"
    auth_key: "bytes | None" = None

    def __post_init__(self) -> None:
        from repro.core.codec import WIRE_FORMAT_V2

        if self.auth_key is not None and (
            not isinstance(self.auth_key, bytes) or not self.auth_key
        ):
            raise ConfigurationError(
                f"auth_key must be a non-empty bytes value or None, "
                f"got {self.auth_key!r}"
            )
        if self.cycle_seconds <= 0:
            raise ConfigurationError(
                f"cycle_seconds must be > 0, got {self.cycle_seconds}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )
        if self.request_timeout <= 0:
            raise ConfigurationError(
                f"request_timeout must be > 0, got {self.request_timeout}"
            )
        if self.wire_version != WIRE_FORMAT_V2:
            raise ConfigurationError(
                f"wire_version must be {WIRE_FORMAT_V2}, "
                f"got {self.wire_version}"
            )

    def replace(self, **changes: object) -> "NetworkConfig":
        """Return a copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]


def newscast(view_size: int = DEFAULT_VIEW_SIZE) -> ProtocolConfig:
    """The Newscast protocol: ``(rand, head, pushpull)``."""
    return ProtocolConfig(
        PeerSelection.RAND, ViewSelection.HEAD, Propagation.PUSHPULL, view_size
    )


def lpbcast(view_size: int = DEFAULT_VIEW_SIZE) -> ProtocolConfig:
    """The Lpbcast membership component: ``(rand, rand, push)``."""
    return ProtocolConfig(
        PeerSelection.RAND, ViewSelection.RAND, Propagation.PUSH, view_size
    )


def _studied(view_size: int) -> Tuple[ProtocolConfig, ...]:
    instances = []
    for ps in (PeerSelection.RAND, PeerSelection.TAIL):
        for vs in (ViewSelection.HEAD, ViewSelection.RAND):
            for vp in (Propagation.PUSH, Propagation.PUSHPULL):
                instances.append(ProtocolConfig(ps, vs, vp, view_size))
    return tuple(instances)


STUDIED_PROTOCOLS: Tuple[ProtocolConfig, ...] = _studied(DEFAULT_VIEW_SIZE)
"""The eight instances retained by the paper's evaluation (Section 4.3)."""


def studied_protocols(view_size: int = DEFAULT_VIEW_SIZE) -> Tuple[ProtocolConfig, ...]:
    """The eight studied instances at an arbitrary view size."""
    return _studied(view_size)


def iter_all_protocols(
    view_size: int = DEFAULT_VIEW_SIZE,
) -> Iterator[ProtocolConfig]:
    """Iterate over the full 27-instance design space."""
    for ps in PeerSelection:
        for vs in ViewSelection:
            for vp in Propagation:
                yield ProtocolConfig(ps, vs, vp, view_size)


ALL_PROTOCOLS: Tuple[ProtocolConfig, ...] = tuple(iter_all_protocols())
"""All 27 combinations of the three policy dimensions at the paper's ``c``."""
