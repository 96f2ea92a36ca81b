"""The exchange kernel's step-level contract.

``FlatArrayEngine.select`` / ``payload`` / ``receive`` are Figure 1
written once for every array-backed executor, and ``k_select`` /
``k_payload`` / ``k_receive`` in ``_fastcore.c`` are their C mirror.
This module pins both, step by step and draw for draw, to the reference
node's ``begin_exchange`` / ``handle_request`` / ``handle_response`` on
a hand-built population that has seen churn -- through the event
engine's step calling convention, which exposes exactly one step per
call: ``FastEventEngine._steps`` (the Python steps) and the exported
``fc_event_begin`` / ``fc_event_deliver`` that ``fc_event_run``
dispatches to (the C steps, driven by the local ``c_steps``).  It also
pins each attack hook to the point where
:class:`~repro.adversary.AdversarialNode` intercepts.  The engine-pair
differential suites then only have to show that an executor *schedules*
these steps like its reference engine does.
"""

from array import array
from functools import partial

import pytest

from repro.adversary import AdversarialNode, AdversaryState, IndexedAdversary
from repro.core.config import ProtocolConfig
from repro.core.descriptor import NodeDescriptor
from repro.simulation._fastcore import Accelerator, load_accelerator
from repro.simulation.engine import CycleEngine
from repro.simulation.fast_event import FastEventEngine
from repro.workloads import AdversarySpec

HAVE_ACCEL = load_accelerator() is not None

VIEW_SIZE = 4

# (address, hop count) rows, hop-count ordered like PartialView keeps them.
VIEWS = {
    0: [(1, 0), (2, 1), (3, 1), (5, 4)],
    1: [(0, 2), (2, 2), (4, 3), (6, 3)],
    2: [(0, 1), (1, 1)],
    3: [(5, 0), (4, 2), (0, 2), (7, 5)],
    4: [(2, 1), (6, 1), (1, 2), (3, 3)],
    5: [(0, 0)],
    6: [(7, 1), (5, 1), (2, 2), (0, 6)],
    7: [(2, 1), (5, 2)],  # after the crashes: dead references only
}


def churned(engine_class, config, omniscient, **kwargs):
    """The same churned population on either engine.

    Nodes 2 and 5 crash (their descriptors stay behind in other views),
    node 8 joins afterwards (on the flat store it recycles a freed row)
    and node 9 joins with an empty view.
    """
    engine = engine_class(
        config, seed=11, omniscient_peer_selection=omniscient, **kwargs
    )
    for address in VIEWS:
        engine.add_node(address)
    for address, rows in VIEWS.items():
        engine.node(address).view.replace(
            [NodeDescriptor(peer, hops) for peer, hops in rows]
        )
    engine.remove_node(2)
    engine.remove_node(5)
    engine.add_node(8, contacts=[0, 1, 6, 7])
    engine.add_node(9)
    return engine


def population(label, omniscient, accelerate=False):
    config = ProtocolConfig.from_label(label, VIEW_SIZE)
    reference = churned(CycleEngine, config, omniscient)
    # lockstep phases: joining draws nothing, like on the cycle reference
    flat = churned(
        FastEventEngine, config, omniscient,
        accelerate=accelerate, lockstep_phases=True,
    )
    assert flat._free_rows == [] and len(flat._vlen) == len(VIEWS)  # recycled
    return reference, flat


def state_of(engine):
    rows = {
        address: [(d.address, d.hop_count) for d in view]
        for address, view in engine.views().items()
    }
    return rows, engine.rng.getstate()


def c_steps(flat):
    """The exported C steps as a ``(begin, deliver)`` pair like
    ``FastEventEngine._steps``, one step per call, bracketed the way
    ``fc_event_run`` brackets a whole slice: register the buffers, move
    the MT state into the core, step, move it back -- so the Python
    ``Random`` is comparable between any two steps."""
    accel, ctx = flat._accel, flat._ctx

    def step(call, *args):
        flat._accel_setup(accel)
        flat._event_setup(accel)
        version, internal, gauss = flat.rng.getstate()
        state = array("q", internal)
        pointer = Accelerator.pointer(state.buffer_info()[0])
        accel.load_state(ctx, pointer)
        try:
            return call(ctx, *args)
        finally:
            accel.store_state(ctx, pointer)
            flat.rng.setstate((version, tuple(state), gauss))

    return partial(step, accel.event_begin), partial(step, accel.event_deliver)


def in_lockstep(reference, flat, nodes, steps):
    """One initiation per live node on both sides, compared per step.

    ``steps`` is a ``(begin, deliver)`` pair in the dispatch loops'
    calling convention: ``begin`` is select + request payload,
    ``deliver`` is reply payload + receive, buffers travel through the
    engine's message slots.
    """
    begin, deliver = steps
    id_of = flat._id_of
    pull = flat.config.pull
    stride = flat._slot_stride
    request_slot, reply_slot = flat._new_slot(), flat._new_slot()

    def shipped(slot, sender):
        flat._m_src[slot] = sender  # the loop's send tail records it
        off = slot * stride
        end = off + flat._m_len[slot]
        return flat._m_ids[off:end].tolist(), flat._m_hops[off:end].tolist()

    def arrived(payload):
        # what the receiver holds after its increaseHopCount
        return (
            [id_of[d.address] for d in payload],
            [d.hop_count + 1 for d in payload],
        )

    exchanges = 0
    for address in reference.addresses():
        i = id_of[address]
        exchange = nodes[address].begin_exchange()
        p = begin(i, request_slot)
        assert state_of(flat) == state_of(reference), address
        if exchange is None:
            assert p == -1, address
            continue
        assert flat._addr_of[p] == exchange.peer, address
        assert shipped(request_slot, i) == arrived(exchange.payload), address
        if exchange.peer not in reference:
            assert not flat._alive[p]  # non-omniscient: the message is lost
            continue
        response = nodes[exchange.peer].handle_request(
            address, exchange.payload
        )
        deliver(p, request_slot, reply_slot if pull else -1)
        assert (response is None) == (not pull), address
        if response is not None:
            assert shipped(reply_slot, p) == arrived(response), address
        assert state_of(flat) == state_of(reference), address
        if response is not None:
            nodes[address].handle_response(exchange.peer, response)
            deliver(i, reply_slot, -1)
            assert state_of(flat) == state_of(reference), address
        exchanges += 1
    return exchanges


# The C steps neither validate nor take hooks: _backend() never selects
# them for a ``;v`` protocol or inside an attack window.
STEP_BACKENDS = (
    pytest.param(False, "", id="python-plain"),
    pytest.param(False, ";v", id="python-validating"),
    pytest.param(
        True, "", id="c-plain",
        marks=pytest.mark.skipif(
            not HAVE_ACCEL, reason="no C compiler available"
        ),
    ),
)


@pytest.mark.parametrize("accelerate, validate", STEP_BACKENDS)
@pytest.mark.parametrize("propagation", ("push", "pull", "pushpull"))
@pytest.mark.parametrize(
    "omniscient", (True, False), ids=("omniscient", "non-omniscient")
)
@pytest.mark.parametrize("peer_selection", ("head", "rand", "tail"))
def test_steps_agree_with_the_reference_node(
    peer_selection, omniscient, propagation, accelerate, validate
):
    label = f"({peer_selection},rand,{propagation}){validate}"
    reference, flat = population(label, omniscient, accelerate)
    nodes = {
        address: reference.node(address) for address in reference.addresses()
    }
    steps = c_steps(flat) if accelerate else flat._steps(None)
    for _ in range(3):  # dead references age and decay across rounds
        assert in_lockstep(reference, flat, nodes, steps) > 0


ATTACKERS = (1, 4)
VICTIMS = (0, 3)


def attacked_population(kind, label, omniscient=True):
    reference, flat = population(label, omniscient)
    spec = AdversarySpec(
        kind=kind, attackers=ATTACKERS,
        victims=VICTIMS if kind == "eclipse" else (),
    )
    states = [
        AdversaryState(
            spec, ATTACKERS, spec.victims and VICTIMS, rng=engine.rng,
            is_alive=engine.is_alive, view_size=VIEW_SIZE,
        )
        for engine in (reference, flat)
    ]
    for state in states:
        state.active = True
    nodes = {
        address: AdversarialNode(reference.node(address), states[0])
        if address in ATTACKERS
        else reference.node(address)
        for address in reference.addresses()
    }
    return reference, flat, nodes, IndexedAdversary(flat, states[1])


@pytest.mark.parametrize("validate", ("", ";v"), ids=("plain", "validating"))
@pytest.mark.parametrize("propagation", ("push", "pull", "pushpull"))
@pytest.mark.parametrize("kind", ("hub", "eclipse", "tamper", "drop"))
def test_hooks_agree_with_the_adversarial_node(kind, propagation, validate):
    label = f"(rand,rand,{propagation}){validate}"
    reference, flat, nodes, hooks = attacked_population(kind, label)
    steps = flat._steps(hooks)
    assert in_lockstep(reference, flat, nodes, steps) > 0
    for victim in VICTIMS:  # eclipse falls back to the honest selection
        reference.remove_node(victim)
        flat.remove_node(victim)
    assert in_lockstep(reference, flat, nodes, steps) > 0


def test_eclipse_retarget_draws_only_for_a_live_victim():
    _, flat, _, hooks = attacked_population("eclipse", "(head,rand,pushpull)")
    draws = []

    def draw(n):
        draws.append(n)
        return 0

    attacker = flat._id_of[ATTACKERS[0]]
    assert flat.select(attacker, draw, hooks) == flat._id_of[VICTIMS[0]]
    assert draws == [len(VICTIMS)]  # head selection itself draws nothing
    honest = flat._id_of[6]
    assert flat.select(honest, draw, hooks) == flat._id_of[7]
    for victim in VICTIMS:
        flat.remove_node(victim)
    assert flat.select(attacker, draw, hooks) == flat._id_of[4]
    assert draws == [len(VICTIMS)]


def test_dropping_responder_still_ships_the_empty_reply():
    _, flat, _, hooks = attacked_population("drop", "(rand,rand,pushpull)")
    attacker = flat._id_of[ATTACKERS[0]]
    honest = flat._id_of[0]
    before = state_of(flat)
    assert flat.payload(attacker, honest, True, hooks) == ([], [])
    request = flat.payload(honest, attacker, False, hooks)
    flat.receive(attacker, honest, *request, hooks)
    assert state_of(flat) == before  # swallowed unmerged, nothing drawn
    flat.receive(honest, attacker, [], [], hooks)
    assert state_of(flat) == before  # the empty reply merges to a no-op


class Spy:
    """Hooks that change nothing and record where they are consulted."""

    def __init__(self, attackers, drops=False):
        self.attackers = frozenset(attackers)
        self.drops = drops
        self.calls = []

    def retarget(self, peer, draw):
        self.calls.append(("retarget", peer))
        return peer

    def rewrite(self, sender, receiver, ids, hops, reply):
        self.calls.append(("rewrite", sender, receiver, len(ids), reply))
        return ids, hops


def test_each_hook_is_consulted_once_where_the_wrapper_intercepts():
    _, flat = population("(head,rand,pushpull)", omniscient=True)
    draw = flat.rng.randrange
    id_of = flat._id_of
    node, peer, bystander = id_of[6], id_of[7], id_of[0]
    spy = Spy(attackers=(node, peer, id_of[9]))
    # no exchange starts: nothing to retarget (empty view; dead-only view)
    assert flat.select(id_of[9], draw, spy) == -1
    assert flat.select(peer, draw, spy) == -1
    assert spy.calls == []
    # an attacker's exchange starts: one retarget, after the honest selection
    assert flat.select(node, draw, spy) == peer
    assert spy.calls == [("retarget", peer)]
    # an attacker's buffer passes rewrite exactly once before it leaves
    spy.calls.clear()
    request = flat.payload(node, peer, False, spy)
    reply = flat.payload(peer, node, True, spy)
    assert spy.calls == [
        ("rewrite", node, peer, len(request[0]), False),
        ("rewrite", peer, node, len(reply[0]), True),
    ]
    # honest nodes never reach a hook, whatever the policy says
    spy.calls.clear()
    withholding = Spy(attackers=(peer,), drops=True)
    flat.select(bystander, draw, withholding)
    buffer = flat.payload(bystander, peer, False, withholding)
    before = state_of(flat)
    flat.receive(node, bystander, *buffer, withholding)
    assert withholding.calls == [] and state_of(flat) != before
    # a withholding attacker discards what it is handed, unread
    before = state_of(flat)
    flat.receive(peer, node, list(request[0]), list(request[1]), withholding)
    assert state_of(flat) == before
    flat.receive(peer, node, *request, spy)
    assert state_of(flat) != before
