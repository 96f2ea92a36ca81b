"""Byzantine fault injection for peer sampling runs.

The paper's evaluation assumes every node runs Figure 1 honestly; this
package measures what happens when a fraction of them does not.  It
injects adversarial behaviors into the existing engines without touching
the honest protocol code:

- :mod:`repro.adversary.behaviors` -- the attack policies themselves,
  expressed on the node contract (``begin_exchange`` /
  ``handle_request`` / ``handle_response``): **hub poisoning**
  (over-advertise the attacker set with fresh hop-0 descriptors in every
  exchange), **eclipse** (retarget exchanges at a victim set and answer
  its pulls with attacker-only descriptors), **tampering** (zero the hop
  counts of exchanged buffers) and **dropping** (swallow exchanged
  buffers);
- :mod:`repro.adversary.harness` -- deterministic attacker placement
  (seeded fraction or explicit targets) and the per-engine installers:
  node wrapping on :class:`~repro.simulation.engine.CycleEngine`,
  :class:`~repro.simulation.event_engine.EventEngine` and
  :class:`~repro.net.engine.LiveEngine`, one hook policy
  (:class:`~repro.adversary.harness.IndexedAdversary`) on the exchange
  steps of :class:`~repro.simulation.fast.FastCycleEngine` and
  :class:`~repro.simulation.fast_event.FastEventEngine`.

Scenario specs opt in through their ``adversary`` block
(:class:`~repro.workloads.spec.AdversarySpec`); the damage is quantified
by the ``indegree-concentration``, ``eclipse-exposure`` and
``sampling-distance`` plan measurements and swept by the ``attack``
experiment artefact.

Determinism contract: given one spec, seed and placement, a run is
byte-identical across the ``cycle``, ``fast`` and ``live`` engines and,
separately, across the ``event`` and ``fast-event`` engines -- the
adversarial paths consume the engine RNG in exactly the order the
honest paths do (pinned by ``tests/adversary/``).
"""

from repro.adversary.behaviors import AdversarialNode, AdversaryState
from repro.adversary.harness import (
    AdversaryHandle,
    AttackWindow,
    IndexedAdversary,
    install_adversary,
    place_attackers,
)

__all__ = [
    "AdversarialNode",
    "AdversaryHandle",
    "AdversaryState",
    "AttackWindow",
    "IndexedAdversary",
    "install_adversary",
    "place_attackers",
]
