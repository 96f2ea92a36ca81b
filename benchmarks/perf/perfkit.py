"""Measurement kit of the performance ledger: spans, sample statistics,
resource hygiene and the host block.

Nothing here knows a workload.  Everything is measured from outside the
program, around calls into its public functions; the program itself
carries no spans (that is a later issue).
"""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(PERF_DIR))
OUT_DIR = os.path.join(PERF_DIR, "out")


def confine_to_checkout() -> None:
    """Make ``repro`` importable and keep every write inside the checkout.

    The C core is compiled at first use into ``$XDG_CACHE_HOME`` through
    a temporary file; both are pointed below ``out/`` so that a run
    builds the program from source inside its own checkout and leaves
    ``~/.cache`` and ``/tmp`` alone.  Exported through ``os.environ`` so
    the shard workers and the ledger's children inherit it.
    """
    src = os.path.join(REPO_ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    inherited = os.environ.get("PYTHONPATH")
    if src not in (inherited or "").split(os.pathsep):
        os.environ["PYTHONPATH"] = (
            src + os.pathsep + inherited if inherited else src
        )
    cache = os.path.join(OUT_DIR, "cache")
    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(cache, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = cache
    os.environ["TMPDIR"] = tmp


# -- spans -------------------------------------------------------------------


class Tracer:
    """In-memory span recorder: name, start, end, parent, workload, pass.

    Disabled (the untraced run) it still hands back the elapsed time of
    the wrapped call -- the end-to-end metrics are those very durations
    -- but keeps nothing.
    """

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.pass_index = 0
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator["Elapsed"]:
        elapsed = Elapsed()
        index = None
        if self.enabled:
            index = len(self.spans)
            self.spans.append(
                {
                    "name": name,
                    "start": 0.0,
                    "end": 0.0,
                    "parent": self._stack[-1] if self._stack else None,
                    "workload": self.workload,
                    "pass": self.pass_index,
                }
            )
            self._stack.append(index)
        start = time.perf_counter()
        try:
            yield elapsed
        finally:
            end = time.perf_counter()
            elapsed.seconds = end - start
            if index is not None:
                self._stack.pop()
                self.spans[index]["start"] = start
                self.spans[index]["end"] = end


class Elapsed:
    """Duration of a finished span (read it after the ``with`` block)."""

    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds = 0.0


def self_times(spans: Sequence[Dict[str, object]]) -> List[float]:
    """Each span's duration minus the part its direct children cover.

    ``parent`` is an index into ``spans``.  Children of one parent never
    overlap here (one thread opens and closes them in order), so the
    covered part is the plain sum of their durations.
    """
    result = [float(s["end"]) - float(s["start"]) for s in spans]
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            result[parent] -= float(span["end"]) - float(span["start"])
    return result


def self_time_by_name(spans: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Total self time per span name (a layer's own share of a run)."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[str(span["name"])] = totals.get(str(span["name"]), 0.0) + own
    return totals


# -- sample statistics -------------------------------------------------------

_TAIL_PERCENTILES = (99, 95, 90, 75)


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the ``p``-th percentile among ``n``."""
    return max(1, int(-(-n * p // 100)))  # ceil


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    return ordered[_rank(len(ordered), p) - 1]


def tail(samples: Iterable[float]) -> Tuple[str, float]:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it.

    A sample too small to support any of them (fewer than 40 values)
    reports its maximum, labelled as such.
    """
    ordered = sorted(samples)
    for p in _TAIL_PERCENTILES:
        rank = _rank(len(ordered), p)
        if len(ordered) - rank >= 10:
            return f"p{p}", ordered[rank - 1]
    return "max", ordered[-1]


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """Median, supported tail and n of one timing sample set."""
    label, value = tail(samples)
    return {
        "median": statistics.median(samples),
        "tail": label,
        "tail_value": value,
        "n": len(samples),
    }


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


# -- resource hygiene --------------------------------------------------------


def shm_segments() -> frozenset:
    """Names currently present in ``/dev/shm`` (empty where absent)."""
    try:
        return frozenset(os.listdir("/dev/shm"))
    except OSError:
        return frozenset()


def open_sockets() -> int:
    """Socket descriptors this process holds."""
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            if os.readlink(f"/proc/self/fd/{fd}").startswith("socket:"):
                count += 1
        except OSError:
            pass  # the descriptor of the listing itself, already closed
    return count


def _processes() -> Iterator[Tuple[int, str, int, int]]:
    """(pid, state, parent pid, process group) of every process."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # gone between the listing and the read
        yield int(entry), fields[0], int(fields[1]), int(fields[2])


def child_processes() -> List[int]:
    """Live (non-zombie) direct children of this process.

    The multiprocessing resource tracker is left out: it is spawned on
    the first shared-memory use and lives, by design, until the
    interpreter exits.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker._resource_tracker, "_pid", None)
    me = os.getpid()
    return [
        pid
        for pid, state, parent, _ in _processes()
        if parent == me and state != "Z" and pid != tracker
    ]


def process_group_members(group: int) -> List[int]:
    """Live (non-zombie) processes of process group ``group``."""
    return [
        pid
        for pid, state, _, pgrp in _processes()
        if pgrp == group and state != "Z"
    ]


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if one runs, and reap it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


class Hygiene:
    """Snapshot of leakable resources; :meth:`leaks` names what grew."""

    def __init__(self) -> None:
        self.segments = shm_segments()
        self.sockets = open_sockets()
        self.children = frozenset(child_processes())

    def leaks(self) -> List[str]:
        problems = []
        segments = sorted(shm_segments() - self.segments)
        if segments:
            problems.append(f"/dev/shm gained {segments}")
        survivors = sorted(set(child_processes()) - self.children)
        if survivors:
            problems.append(f"child processes survive: {survivors}")
        sockets = open_sockets()
        if sockets > self.sockets:
            problems.append(
                f"{sockets - self.sockets} socket(s) stayed open"
            )
        return problems


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


# -- host block --------------------------------------------------------------


def host_block(c_core: bool) -> Dict[str, object]:
    """What a result set must record to be comparable with another."""
    try:
        commit = subprocess.run(
            ["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "python_minor": "%d.%d" % sys.version_info[:2],
        "platform": platform.platform(),
        "c_core": c_core,
        "commit": commit or "unknown",
    }
