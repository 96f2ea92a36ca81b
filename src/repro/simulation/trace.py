"""Observers: per-cycle hooks around the engines' cycles.

An :class:`Observer` registered with an engine is invoked around every
cycle.  The scenario events compile to observers
(:mod:`repro.workloads.runtime`), and so do the per-cycle measurements
(:mod:`repro.workloads.measure`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.simulation.engine import CycleEngine


class Observer:
    """Base class for engine observers; both hooks default to no-ops.

    ``before_cycle`` runs before any exchange of the upcoming cycle (the
    engine's ``cycle`` attribute still holds the number of *completed*
    cycles).  ``after_cycle`` runs after all exchanges, with ``cycle``
    already incremented.
    """

    def before_cycle(self, engine: "CycleEngine") -> None:
        """Called before the exchanges of each cycle."""

    def after_cycle(self, engine: "CycleEngine") -> None:
        """Called after the exchanges of each cycle."""
