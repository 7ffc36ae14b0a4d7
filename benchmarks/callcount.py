"""Count calls per function while a driver runs.

Two questions start every per-job optimisation and every prune: how many
calls does a workload make per job, and which functions of ``repro``
does it never reach?  This runs a driver under :mod:`cProfile` (the
standard library; ``coverage`` is not a dependency) and reports:

* every call the profiler sees, built-ins included, and the calls per
  job when the driver says how many jobs it ran;
* the heap pushes (``EventQueue.push`` calls), and per job likewise;
* the most-called ``repro`` functions;
* with ``--unreached``, every function defined under ``src/repro`` that
  the driver never called: the candidates a prune must justify.

Usage::

    PYTHONPATH=src python benchmarks/callcount.py fleet_soak
    PYTHONPATH=src python benchmarks/callcount.py comms_outage
    PYTHONPATH=src python benchmarks/callcount.py --unreached script examples/chaos_drive.py

Counts repeat for a deterministic driver run the same way (built-in
calls can shift by a few per job with the interpreter's state, so
compare figures taken one way); timings are not reported, because the
profiler's own overhead dominates them.  Only
this process is profiled: pool workers and subprocesses go uncounted,
so drive campaigns through the inline executor.
"""

from __future__ import annotations

import argparse
import cProfile
import inspect
import os
import pstats
import runpy
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro
from repro.fleet import TAG_OLD, FleetSpec, build_fleet_snapshots
from repro.fleet.shard import simulate_vehicle
from repro.sim import EventQueue

#: a function as the profiler names it: (file, first line, name)
Site = Tuple[str, int, str]

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))
SUITE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "suite")

#: ``fleet_soak`` driver: profiled vehicles, unprofiled warm-up vehicles
#: before them, and the benchmark seed
VEHICLES = 40
WARM = 5
SEED = 0
#: ``comms_outage`` driver: rounds of the profiled batch (the benchmark's
#: full batch) and of the unprofiled warm-up batch before it
COMMS_ROUNDS = 500
COMMS_WARM_ROUNDS = 20
#: the suite's comms world fails its backbone at round ``rounds // 4``
#: minus half a period, which is before time zero for fewer rounds
COMMS_MIN_ROUNDS = 4
#: most-called ``repro`` functions the report lists
TOP = 15
#: ``EventQueue.push`` as the profiler names it: every heap push
PUSH_SITE = (EventQueue.push.__code__.co_filename,
             EventQueue.push.__code__.co_firstlineno,
             EventQueue.push.__code__.co_name)


@dataclass
class CallCounts:
    """What one profiled driver called."""

    #: calls per function, built-ins (file ``~``) included
    by_site: Dict[Site, int]
    #: jobs the driver ran, if it counts them
    jobs: Optional[int] = None

    @property
    def total(self) -> int:
        return sum(self.by_site.values())

    @property
    def per_job(self) -> Optional[float]:
        return self.total / self.jobs if self.jobs else None

    @property
    def heap_pushes(self) -> int:
        """``EventQueue.push`` calls: every event pushed onto the heap."""
        return self.by_site.get(PUSH_SITE, 0)

    def in_package(self, package_dir: str = PACKAGE_DIR) -> Dict[Site, int]:
        """The counts of functions defined under ``package_dir``."""
        prefix = package_dir + os.sep
        return {site: n for site, n in self.by_site.items()
                if site[0].startswith(prefix)}


def count_calls(fn: Callable[..., Any], *args: Any) -> Tuple[Any, CallCounts]:
    """Run ``fn(*args)`` under cProfile; its result and the call counts.

    The profiler's own ``disable`` call is left out of the counts.
    """
    profile = cProfile.Profile()
    result = profile.runcall(fn, *args)
    by_site = {}
    for site, (_prim, calls, _tt, _ct, _callers) in pstats.Stats(profile).stats.items():
        if "_lsprof.Profiler" not in site[2]:
            by_site[site] = calls
    return result, CallCounts(by_site)


def _code_objects(code) -> Iterator[Any]:
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield const
            yield from _code_objects(const)


def defined_functions(package_dir: str = PACKAGE_DIR) -> List[Site]:
    """Every named function and method defined under ``package_dir``,
    nested ones included, found by compiling each file (nothing is
    imported).  Lambdas, comprehensions and class bodies are left out."""
    sites = []
    for folder, dirs, files in os.walk(package_dir):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                module = compile(fh.read(), path, "exec")
            for code in _code_objects(module):
                # class bodies run once, unprofiled, at import
                if (code.co_flags & inspect.CO_OPTIMIZED
                        and not code.co_name.startswith("<")):
                    sites.append((path, code.co_firstlineno, code.co_name))
    return sites


def unreached(counts: CallCounts, package_dir: str = PACKAGE_DIR) -> List[Site]:
    """Functions defined under ``package_dir`` that the driver never
    called, sorted by file and line."""
    called = {(path, line) for path, line, _name in counts.in_package(package_dir)}
    return sorted(site for site in defined_functions(package_dir)
                  if (site[0], site[1]) not in called)


# -- drivers ----------------------------------------------------------------


def suite_workload(name: str, batch: int, seed: int = SEED) -> Any:
    """The benchmark suite's workload ``name`` with ``batch`` items per
    batch, read from the suite itself so a driver runs exactly the
    benchmark's worlds."""
    sys.path.insert(0, SUITE_DIR)
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(SUITE_DIR)
    return WORKLOADS[name](seed, {"batch": batch, "trace_batches": 1}, "")


def fleet_soak_fleet(seed: int = SEED) -> FleetSpec:
    """The fleet of the ``fleet_soak`` benchmark workload."""
    return suite_workload("fleet_soak", 1, seed).fleet


def drive_fleet_soak(vehicles: int = VEHICLES, warm: int = WARM) -> CallCounts:
    """The ``fleet_soak`` benchmark's vehicles (2 s soaks of forked
    worlds, faults armed), ``warm`` of them unprofiled first so one-off
    imports and caches stay out of the counts.  A job is one release."""
    spec = fleet_soak_fleet()
    snapshots = build_fleet_snapshots(spec, tags=(TAG_OLD,))

    def soak(first: int, stop: int) -> int:
        return sum(simulate_vehicle(spec, index, TAG_OLD, snapshots)[1]
                   for index in range(first, stop))

    soak(0, warm)
    jobs, counts = count_calls(soak, warm, warm + vehicles)
    counts.jobs = jobs
    return counts


def drive_comms_outage(rounds: int = COMMS_ROUNDS,
                       warm: int = COMMS_WARM_ROUNDS) -> CallCounts:
    """The first batch of the ``comms_outage`` benchmark (``rounds``
    rounds of its six flows, the backbone down for the middle half),
    after an unprofiled ``warm``-round batch.  Only ``Simulator.run`` is
    profiled, not the world's build.  A job is one message.  Both
    batches need at least ``COMMS_MIN_ROUNDS`` rounds (``warm=0`` runs
    no warm batch)."""
    if rounds < COMMS_MIN_ROUNDS or (warm and warm < COMMS_MIN_ROUNDS):
        raise ValueError(
            f"comms_outage rounds={rounds}, warm={warm}: a batch needs at "
            f"least {COMMS_MIN_ROUNDS} rounds, or its backbone outage is "
            f"scheduled before time zero")
    if warm:
        sim, _ = suite_workload("comms_outage", warm)._build(0)
        sim.run()
    sim, messages = suite_workload("comms_outage", rounds)._build(0)
    _, counts = count_calls(sim.run)
    counts.jobs = messages
    return counts


def drive_script(path: str) -> CallCounts:
    """Run a Python script as ``__main__``; it counts no jobs."""
    _, counts = count_calls(runpy.run_path, path, None, "__main__")
    return counts


# -- report -------------------------------------------------------------------


def _label(site: Site) -> str:
    path, line, name = site
    if path.startswith(PACKAGE_DIR + os.sep):
        path = "repro/" + os.path.relpath(path, PACKAGE_DIR).replace(os.sep, "/")
    return f"{path}:{line} {name}"


def report(counts: CallCounts, show_unreached: bool) -> dict:
    own = counts.in_package()
    ranked = sorted(own.items(), key=lambda item: (-item[1], item[0]))[:TOP]
    out = {
        "calls": counts.total,
        "repro_calls": sum(own.values()),
        "jobs": counts.jobs,
        "calls_per_job": counts.per_job,
        "heap_pushes": counts.heap_pushes,
        "heap_pushes_per_job": (counts.heap_pushes / counts.jobs
                                if counts.jobs else None),
        "top": [[_label(site), n] for site, n in ranked],
    }
    if show_unreached:
        out["unreached"] = [_label(site) for site in unreached(counts)]
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--unreached", action="store_true",
                        help="list repro functions the driver never called")
    drivers = parser.add_subparsers(dest="driver", required=True)
    drivers.add_parser("fleet_soak", help=f"{VEHICLES} seed-{SEED} fleet_soak "
                       f"vehicles after {WARM} warm ones")
    drivers.add_parser("comms_outage", help=f"one {COMMS_ROUNDS}-round "
                       f"seed-{SEED} comms_outage batch; a job is a message")
    script = drivers.add_parser("script", help="a Python script as __main__")
    script.add_argument("path")
    args = parser.parse_args(argv)

    if args.driver == "fleet_soak":
        counts = drive_fleet_soak()
    elif args.driver == "comms_outage":
        counts = drive_comms_outage()
    else:
        counts = drive_script(args.path)
    out = report(counts, args.unreached)
    print(f"calls {out['calls']} (repro functions {out['repro_calls']})")
    if counts.jobs:
        print(f"jobs {counts.jobs}; calls per job {out['calls_per_job']:.2f}; "
              f"heap pushes per job {out['heap_pushes_per_job']:.2f}")
    for label, n in out["top"]:
        print(f"{n:>10}  {label}")
    for label in out.get("unreached", ()):
        print(f"unreached  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
