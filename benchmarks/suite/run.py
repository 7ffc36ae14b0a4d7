#!/usr/bin/env python3
"""One benchmark for the whole stack: four workloads, end-to-end
metrics, and a traced per-layer ledger.

Run from the repository root::

    python3 benchmarks/suite/run.py --workload fleet_rollout --seed 3
    python3 benchmarks/suite/run.py --workload all --trace
    python3 benchmarks/suite/run.py --list

Workload names, metric names, units and bounds come from the root
``BENCHMARK.json``; batch sizes, the expected digests and the
calibration note from ``catalogue.json`` next to this file.  A run
without ``--trace`` measures the end-to-end metrics for ``--seconds``;
``--trace`` re-drives a fixed prefix of the workload step by step and
reports the per-layer metrics instead.  Every metric is printed as
``metric <name> <value> <unit>``, and the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is non-zero when any output is wrong.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter
from typing import Dict, List, Tuple

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")
#: scratch checkpoint directories of the rollout.  They live inside the
#: checkout, not in the system temp dir: the benchmark writes nowhere
#: else, and the fsynced records then land on the disk that holds the
#: program, as a campaign's would, not on a tmpfs that makes fsync free.
#: Each run removes its own directory and, when it is empty, this one.
WORK_DIR = os.path.join(SUITE_DIR, ".work")

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


class CatalogueError(Exception):
    """``BENCHMARK.json`` and ``catalogue.json`` disagree or are malformed."""


def load_catalogue() -> Tuple[dict, dict]:
    """Read and cross-check ``BENCHMARK.json`` and ``catalogue.json``."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(SUITE_DIR, "catalogue.json"), encoding="utf-8") as fh:
        catalogue = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if names != list(catalogue["workloads"]):
        raise CatalogueError(
            f"BENCHMARK.json workloads {names} != catalogue.json workloads "
            f"{list(catalogue['workloads'])}"
        )
    seen = set(names)
    for metric in bench["end_to_end"] + bench["per_layer"]:
        name = metric["name"]
        if not NAME.match(name) or not UNIT.match(metric["unit"]):
            raise CatalogueError(f"bad metric name or unit: {metric}")
        if name in seen:
            raise CatalogueError(f"name {name!r} used twice")
        seen.add(name)
    return bench, catalogue


def print_catalogue(bench: dict, catalogue: dict) -> None:
    for workload in bench["workloads"]:
        entry = catalogue["workloads"][workload["name"]]
        print(f"workload {workload['name']}: {workload['why']}")
        for mode in ("full", "smoke"):
            print(f"  {mode}: {entry[mode]['batch']} {entry['batch_unit']} "
                  f"per batch, {entry[mode]['trace_batches']} traced "
                  f"batch(es), expected sha256 "
                  f"{entry['expected_sha256'].get(mode, '-')}")
        for name, value in catalogue["calibration"]["workloads"].get(
                workload["name"], {}).items():
            print(f"  calibration {name}: median {value['median']:g}, "
                  f"IQR {value['iqr']:g}")
    host = catalogue["host"]
    print(f"untraced seconds rescaled to a reference loop of {host['rounds']} "
          f"rounds at {host['rounds_per_s']} rounds/s")
    for kind in ("end_to_end", "per_layer"):
        for metric in bench[kind]:
            bound = metric.get("bound")
            extra = f", bound {bound:.0%}" if bound is not None else ""
            print(f"{kind} {metric['name']} [{metric['unit']}] "
                  f"{metric['better']} is better{extra}")


def peak_rss_mib() -> float:
    """Peak RSS of this process and its reaped children (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def reference_speed(rounds: int) -> float:
    """Rounds per second of a fixed loop over builtins alone (dict
    updates and a small heap, the kernel's staple operations).  It
    shares no code with the program, so only the host changes its speed.
    """
    heap: List[Tuple[int, int]] = []
    table: Dict[int, int] = {}
    start = perf_counter()
    for i in range(rounds):
        key = i * 7919 & 1023
        table[key] = table.get(key, 0) + 1
        heapq.heappush(heap, (key, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return rounds / (perf_counter() - start)


def measure(workload, seconds: float, expected: str,
            host: dict) -> Tuple[Dict[str, float], int, List[str]]:
    """Untraced run: time batches in a closed loop for ``seconds``, with
    a cold set-up timed before the first batch and after each one; check
    batch 0 against its reference path and, when given, the expected
    digest.

    A shared host slows everything it runs by up to 40 % for a minute at
    a time, longer than a run, so the raw seconds of two runs of the same
    code differ by more than a regression worth catching.  The reference
    loop is therefore timed between every two timed steps, and each step's
    seconds are rescaled to a host on which the loop runs at
    ``host["rounds_per_s"]``, by the mean loop speed just before and just
    after the step.
    """
    from workloads import digest_sha256

    problems: List[str] = []
    setups: List[float] = []
    rates: List[float] = []
    raw_rates: List[float] = []
    speeds = [reference_speed(host["rounds"])]
    attempted = 0
    measured = 0.0

    def rescaled(elapsed: float) -> float:
        speeds.append(reference_speed(host["rounds"]))
        return elapsed * (speeds[-2] + speeds[-1]) / (2.0 * host["rounds_per_s"])

    try:
        setups.append(rescaled(workload.setup()))
        index = 0
        while index == 0 or measured < seconds:
            items, digest, elapsed = workload.run_batch(index)
            if index == 0:
                first = digest_sha256(digest)
            attempted += items
            measured += elapsed
            raw_rates.append(items / elapsed)
            rates.append(items / rescaled(elapsed))
            index += 1
            # spread the set-up samples over the run, like the batches
            setups.append(rescaled(workload.setup()))
        reference = digest_sha256(workload.reference(0))
        print(f"sha256 batch0 {first} reference {reference} "
              f"expected {expected or '-'}")
        if reference != first:
            problems.append("batch 0 differs from its reference path")
        if expected and expected != first:
            problems.append("batch 0 differs from the expected digest")
        print(f"batches {index} items {attempted} measured {measured:.3f} s; "
              f"median set-up {statistics.median(setups):.4f} s of "
              f"{len(setups)}")
        print(f"host: reference loop median {statistics.median(speeds):.0f} "
              f"rounds/s of {len(speeds)} (rescaled to "
              f"{host['rounds_per_s']}); unrescaled median "
              f"{statistics.median(raw_rates):.4g} items/s")
    except Exception:  # noqa: BLE001 - reported as a failed run
        traceback.print_exc()
        problems.append("workload raised")
    workload.close()  # reap pool workers before reading their peak RSS
    metrics = {
        "items_per_s": statistics.median(rates) if rates else 0.0,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mib": peak_rss_mib(),
    }
    return metrics, attempted, problems


def trace(workload) -> Tuple[Dict[str, float], int, List[str]]:
    """Traced run: the step-by-step prefix must reproduce the entry
    point's digests byte for byte."""
    from ledger import Ledger
    from workloads import digest_sha256

    problems: List[str] = []
    ledger = Ledger()
    try:
        traced = workload.trace(ledger)
        ledger.finish()
        entry = workload.trace_reference(ledger)
        for index, (mine, theirs) in enumerate(zip(traced, entry)):
            mine, theirs = digest_sha256(mine), digest_sha256(theirs)
            print(f"sha256 trace{index} {mine} entry {theirs}")
            if mine != theirs:
                problems.append(f"traced batch {index} differs from the "
                                f"entry point")
        if len(traced) != len(entry):
            problems.append("traced and entry-point batch counts differ")
    except Exception:  # noqa: BLE001 - reported as a failed run
        traceback.print_exc()
        problems.append("workload raised")
    return ledger.metrics(), ledger.items, problems


def run_one(args, bench: dict, catalogue: dict) -> int:
    import workloads

    mode = "smoke" if args.smoke else "full"
    entry = catalogue["workloads"][args.workload]
    expected = None
    if args.seed == catalogue["default_seed"] and not args.trace:
        expected = entry["expected_sha256"].get(mode)
    print(f"workload {args.workload} seed {args.seed} mode {mode} "
          f"trace {args.trace}")
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    workload = workloads.WORKLOADS[args.workload](args.seed, entry[mode],
                                                  workdir)
    try:
        if args.trace:
            metrics, attempted, problems = trace(workload)
            declared = bench["per_layer"]
        else:
            metrics, attempted, problems = measure(workload, args.seconds,
                                                   expected, catalogue["host"])
            declared = bench["end_to_end"]
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:  # another run's directory is still in it
            pass
    names = [metric["name"] for metric in declared]
    if sorted(names) != sorted(metrics):
        raise CatalogueError(
            f"emitted metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(names) - set(metrics))}, undeclared "
            f"{sorted(set(metrics) - set(names))}"
        )
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    attempted = max(1, attempted)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "metrics": {
            metric["name"]: {"value": metrics[metric["name"]],
                             "unit": metric["unit"]}
            for metric in declared
        },
    }
    for metric in declared:
        print(f"metric {metric['name']} {metrics[metric['name']]!r} "
              f"{metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, bench: dict) -> int:
    """Each workload in a fresh interpreter, one after another."""
    status = 0
    for workload in bench["workloads"]:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        sys.stdout.flush()
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


def _terminate(signum, frame) -> None:
    """SIGTERM unwinds like an exception, so pools and work dirs close."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", default="all",
                        help="workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the catalogue's)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds of an untraced run "
                             "(default: run_seconds, or the smoke length)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 (or bare --trace): per-layer traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny batches, for the self-test")
    parser.add_argument("--list", action="store_true",
                        help="print the workload and metric catalogue")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"error: no repro source tree at {SRC_DIR}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    try:
        bench, catalogue = load_catalogue()
    except (OSError, ValueError, KeyError, CatalogueError) as exc:
        print(f"error: unreadable benchmark catalogue: {exc!r}",
              file=sys.stderr)
        return 2
    if args.list:
        print_catalogue(bench, catalogue)
        return 0
    if args.seed is None:
        args.seed = catalogue["default_seed"]
    if args.seconds is None:
        args.seconds = (catalogue["smoke_seconds"] if args.smoke
                        else bench["run_seconds"])
    if args.workload == "all":
        return run_all(args, bench)
    if args.workload not in catalogue["workloads"]:
        parser.error(f"unknown workload {args.workload!r}")
    sys.path[:0] = [SUITE_DIR, SRC_DIR]
    return run_one(args, bench, catalogue)


if __name__ == "__main__":
    sys.exit(main())
