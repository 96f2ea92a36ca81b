"""The performance ledger's one command.

    python benchmarks/perf/run.py --seed S [--runs 3] [--trace]
        Run every workload, each run in a fresh child process with a
        hard timeout, runs interleaved across workloads; check the
        outputs; print every metric by name with its unit; write the
        result set to benchmarks/perf/out/.  With --trace, one traced
        child per workload follows and yields the per-layer metrics and
        out/trace.json.  --update-golden rewrites golden.json.

    python benchmarks/perf/run.py compare A.json B.json
        Apply the benchmark's own bounds to two result sets.

    python benchmarks/perf/run.py --workload W --seed S --seconds T --trace 0|1
        One workload in this process (what the children above and the
        benchmark driver run); the last line of standard output is the
        result object BENCHMARK.json's contract asks for.

Exits non-zero, naming the workload, when a correctness or hygiene check
fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import signal
import statistics
import subprocess
import sys
import time

import perfkit

CHILD_TIMEOUT_S = 170
"""Hard limit of one child; the contract allows a run 180 s."""
PROGRAM_LOADS = 3
"""Samples of the program's load time behind ``setup_s``: this process's
own and fresh interpreters'."""
GROUP_EXIT_GRACE_S = 3.0
"""How long the rest of a child's process group may outlive it."""


def run_single(args) -> int:
    try:
        return _run_single(args)
    finally:
        # Otherwise the tracker outlives this process by some
        # milliseconds: every process a run starts has ended, and been
        # waited for, when the run exits.
        perfkit.stop_resource_tracker()


def _run_single(args) -> int:
    started = time.perf_counter()
    try:
        import perfledger
        import perfloads
    except ImportError as error:
        print(f"cannot import the program under test: {error}", file=sys.stderr)
        return 2
    c_core, accel_load_s = perfloads.load_core()
    load_s = time.perf_counter() - started
    if args.program_load:
        print(load_s)
        return 0

    def program_load():
        """The load happens once per process, so the other samples of it
        come from fresh interpreters; like the set-up proper it is a
        median."""
        loads = [load_s]
        for _ in range(PROGRAM_LOADS - 1):
            fresh = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--program-load"],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                check=True,
            )
            loads.append(float(fresh.stdout))
        return statistics.median(loads), accel_load_s

    if not c_core:
        print(
            f"{args.workload}: the C core is unavailable (no C compiler, or "
            "REPRO_NO_ACCEL is set); the workloads are sized for it",
            file=sys.stderr,
        )
        return 2
    benchmark = perfledger.load_benchmark()
    if args.workload not in perfloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    golden = None
    if not args.update_golden:
        golden = perfledger.golden_fingerprint(
            perfledger.load_golden(),
            "%d.%d" % sys.version_info[:2],
            args.seed,
            args.workload,
        )
    try:
        run = perfledger.run_workload(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            program_load=program_load,
            golden=golden,
        )
    except perfloads.CheckFailed as failure:
        print(f"{args.workload}: FAILED: {failure}", file=sys.stderr)
        return 1
    run["host"] = perfkit.host_block(c_core)
    if args.detail:  # a ledger child: the parent merges the spans
        perfledger.save_json(args.detail, run)
    elif args.trace:
        perfledger.save_json(
            os.path.join(perfkit.OUT_DIR, "trace.json"), run["spans"]
        )
    for metric, entry in perfledger.contract_metrics(run, benchmark).items():
        print(f"{args.workload} {metric} {entry['value']:.6g} {entry['unit']}")
    print(perfledger.contract_line(run, benchmark))
    return 0


def _child(
    workload: str, seed: int, seconds: int, trace: bool, tag: str,
    update_golden: bool,
):
    """One workload in a fresh process group, killed as a group on
    timeout, reaped either way; returns its detailed run result."""
    detail = os.path.join(perfkit.OUT_DIR, f"run-{workload}-{tag}.json")
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
        "--detail", detail,
    ]
    if update_golden:
        command.append("--update-golden")
    segments = perfkit.shm_segments()
    process = subprocess.Popen(
        command, stdout=subprocess.DEVNULL, start_new_session=True
    )
    try:
        code = process.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # A child that failed half-way leaves its multiprocessing
        # resource tracker to notice the exit through a pipe and follow.
        deadline = time.monotonic() + GROUP_EXIT_GRACE_S
        survivors = perfkit.process_group_members(process.pid)
        while (
            survivors
            and process.poll() is not None
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
            survivors = perfkit.process_group_members(process.pid)
        if process.poll() is None or survivors:
            os.killpg(process.pid, signal.SIGKILL)
        process.wait()
    if code is None:
        raise SystemExit(f"{workload}: timed out after {CHILD_TIMEOUT_S} s")
    if code != 0:
        raise SystemExit(f"{workload}: child exited with code {code}")
    if survivors:
        raise SystemExit(f"{workload}: processes survived the run: {survivors}")
    leaked = sorted(perfkit.shm_segments() - segments)
    if leaked:
        raise SystemExit(f"{workload}: /dev/shm gained {leaked}")
    import perfledger

    return perfledger.load_json(detail)


def run_ledger(args) -> int:
    import perfledger
    import perfloads

    benchmark = perfledger.load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    runs = []
    # Interleaved: the box drifts by 20 % for a minute at a time, so
    # every workload gets a run in every stretch.
    for index in range(args.runs):
        for name in names:
            print(f"run {index} {name} ...", file=sys.stderr)
            runs.append(
                _child(
                    name, args.seed, seconds, False, f"r{index}",
                    args.update_golden,
                )
            )
    host = runs[0]["host"]
    sets = {
        "results": perfledger.build_result_set(runs, host, args.seed, benchmark)
    }
    if args.trace:
        traced = []
        for name in names:
            print(f"traced {name} ...", file=sys.stderr)
            traced.append(
                _child(
                    name, args.seed, seconds, True, "traced",
                    args.update_golden,
                )
            )
        sets["traced"] = perfledger.build_result_set(
            traced, host, args.seed, benchmark
        )
        perfledger.save_json(
            os.path.join(perfkit.OUT_DIR, "trace.json"),
            [span for run in traced for span in run["spans"]],
        )
    for label, result_set in sets.items():
        result_set["sizes"] = dataclasses.asdict(perfloads.Sizes())
        path = os.path.join(args.out or perfkit.OUT_DIR, f"{label}.json")
        perfledger.save_json(path, result_set)
        print(f"== {label} ({path})")
        print("\n".join(perfledger.report_lines(result_set, benchmark)))
    if args.update_golden:
        perfledger.update_golden(sets["results"])
    return 0


def run_compare(paths) -> int:
    import perfledger

    base, new = (perfledger.load_json(path) for path in paths)
    try:
        rows, agree = perfledger.compare(
            base, new, perfledger.load_benchmark()
        )
    except ValueError as refusal:
        print(refusal, file=sys.stderr)
        return 2
    print("\n".join(rows))
    return 0 if agree else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    perfkit.confine_to_checkout()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return run_compare(argv[1:])
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help="with --workload: repeat passes while another fits",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1)
    )
    parser.add_argument(
        "--runs", type=int, default=3,
        help="without --workload: runs of each workload, interleaved",
    )
    parser.add_argument("--out", help="directory for the result sets")
    parser.add_argument("--update-golden", action="store_true")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument(
        "--program-load", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.workload or args.program_load:
        return run_single(args)
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
