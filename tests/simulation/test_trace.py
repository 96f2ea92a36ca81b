"""Unit tests for the observer hooks (the measurements built on them are
tested in ``tests/workloads/test_measure.py``)."""

from repro.simulation.trace import Observer


class TestObserverBase:
    def test_hooks_are_noops(self):
        observer = Observer()
        observer.before_cycle(None)
        observer.after_cycle(None)
