"""Whole-program static analysis suite + runtime race detector.

Static passes (CLI: ``python -m repro.analysis --pass ...``) enforce the
repo's ``(plan, seed) -> byte-identical timeline`` guarantee and its
process model *before* anything runs:

* **det** (:mod:`repro.analysis.detectors`) — nondeterminism hazards:
  raw ``random`` use, wall-clock reads, unordered set iteration,
  hash-order sort keys, environment reads, mutable defaults.
* **pickle-safety** (:mod:`repro.analysis.pickle_safety`) — lambdas,
  local classes and OS resources statically reaching a serialization
  boundary (worker pipe, snapshot, checkpoint).
* **arch** (:mod:`repro.analysis.arch` / :mod:`repro.analysis.graph`) —
  the declared layer DAG: upward imports, import cycles, undeclared
  packages.
* **races** (:mod:`repro.analysis.races`) — schedule-site pairs at one
  ``(time, priority)`` instant touching the same attribute.

All passes share one gate: a finding fails the run unless a
``# repro: allow[RULE]`` (or ``allow-file``) pragma at its site names
its rule.  :mod:`repro.analysis.sanitizer` is the runtime complement:
an opt-in kernel mode detecting same-instant races on interleavings a
seed actually exercises.
"""

from .arch import ARCH_RULES, DEFAULT_CONTRACT, LayerContract
from .detectors import RULES, Finding, Rule, detect
from .graph import ModuleGraph, collect_imports
from .lint import ALL_PASSES, AnalysisReport, run_analysis
from .pickle_safety import PICKLE_RULES
from .races import RACE_RULES
from .sanitizer import KernelSanitizer, SanitizerReport

__all__ = [
    "ALL_PASSES",
    "ARCH_RULES",
    "AnalysisReport",
    "DEFAULT_CONTRACT",
    "Finding",
    "KernelSanitizer",
    "LayerContract",
    "ModuleGraph",
    "PICKLE_RULES",
    "RACE_RULES",
    "RULES",
    "Rule",
    "SanitizerReport",
    "collect_imports",
    "detect",
    "run_analysis",
]
