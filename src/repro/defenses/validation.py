"""Descriptor sanity validation: reject what a correct peer never sends.

A correct Figure-1 node, after the receiver's hop increment, produces
payloads with a very particular shape: at most ``view_size + 1``
entries, no entry naming the receiver (peers never advertise *your*
address back at you profitably), no duplicate addresses, hop counts
``>= 1``, and -- crucially -- only the *sender's own* descriptor can
carry the minimum hop count of 1.  Every relayed descriptor has been
incremented at least twice (once when the sender received it, once by
us), so a non-sender entry claiming hop < 2 is a forged timestamp: the
hub attacker's whole trick is advertising accomplices at hop 0 so
age-based selection always prefers them.

``sanitize_payload`` / ``sanitize_indexed`` enforce those invariants on
*received, already-incremented* payloads.  Honest traffic passes
through unchanged (the rules are exactly the invariants honest senders
maintain), so validation composes with the byte-identity contract:
enabling it never changes an honest run's RNG draw sequence differently
across engines, because sanitisation itself draws nothing.

Both variants apply the same rules in the same order and must stay in
lockstep -- the object form serves :class:`~repro.core.protocol.GossipNode`
(cycle / event / live engines), the indexed form serves the flat-array
kernel's one ``receive`` step.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.descriptor import Address, NodeDescriptor

__all__ = [
    "MAX_HOP_COUNT",
    "MIN_RELAYED_HOPS",
    "sanitize_indexed",
    "sanitize_payload",
]

MAX_HOP_COUNT = 1 << 20
"""Upper bound on a plausible hop count.

Descriptors age by +1 per exchange; after the longest supported runs
(10^5 cycles) honest hop counts stay far below 2^20.  Anything larger
is either corruption or an attacker probing integer edge cases."""

MIN_RELAYED_HOPS = 2
"""Minimum believable hop count for a *relayed* (non-sender) entry.

Post-increment, the sender's self-descriptor arrives at hop 1; every
other entry was in the sender's view (hop >= 1 there) and is
incremented on receipt, so hop >= 2.  Relayed entries claiming fresher
are floored up to this value, neutralising forged hop-0 timestamps
without dropping the (possibly real) address."""


def sanitize_payload(
    payload: Sequence[NodeDescriptor],
    receiver: Address,
    sender: Address,
    view_size: int,
) -> List[NodeDescriptor]:
    """Validate a received payload *after* the hop increment, before merge.

    Returns the surviving descriptors (the originals, except floored
    relayed-freshness entries which are rebuilt).  Rules, in order per
    entry: truncate past ``view_size + 1`` survivors, drop entries
    naming the receiver, drop duplicate addresses (first occurrence
    wins), drop hop counts outside ``[0, MAX_HOP_COUNT]``, floor
    non-sender entries below ``MIN_RELAYED_HOPS``.
    """
    out: List[NodeDescriptor] = []
    seen = set()
    limit = view_size + 1
    for descriptor in payload:
        if len(out) >= limit:
            break
        address = descriptor.address
        if address == receiver or address in seen:
            continue
        hops = descriptor.hop_count
        if hops < 0 or hops > MAX_HOP_COUNT:
            continue
        if address != sender and hops < MIN_RELAYED_HOPS:
            descriptor = NodeDescriptor(address, MIN_RELAYED_HOPS)
        seen.add(address)
        out.append(descriptor)
    return out


def sanitize_indexed(
    ids: Sequence[int],
    hops: Sequence[int],
    receiver: int,
    sender: int,
    view_size: int,
) -> Tuple[List[int], List[int]]:
    """``sanitize_payload`` over the flat-array engines' parallel lists.

    Mirrors the object form rule-for-rule (same order, same outcomes)
    over interned integer ids; returns the surviving ``(ids, hops)``.
    """
    out_ids: List[int] = []
    out_hops: List[int] = []
    seen = set()
    limit = view_size + 1
    for index in range(len(ids)):
        if len(out_ids) >= limit:
            break
        address = ids[index]
        if address == receiver or address in seen:
            continue
        hop = hops[index]
        if hop < 0 or hop > MAX_HOP_COUNT:
            continue
        if address != sender and hop < MIN_RELAYED_HOPS:
            hop = MIN_RELAYED_HOPS
        seen.add(address)
        out_ids.append(address)
        out_hops.append(hop)
    return out_ids, out_hops
