"""Analysis driver: file walking, pragmas and JSON reports.

This module turns the per-file passes (:mod:`repro.analysis.detectors`,
:mod:`~repro.analysis.pickle_safety`, :mod:`~repro.analysis.arch`,
:mod:`~repro.analysis.races`) into a repository-level check:

* **Walking** — :func:`run_analysis` scans every ``.py`` file under the
  given paths in sorted order, so reports are byte-identical across
  machines (the analyzer holds itself to the determinism bar it
  enforces).  ``passes=("det",)`` runs the determinism detectors alone.
* **Pragmas** — the one suppression mechanism: every finding fails the
  run unless a pragma at its site names its rule.  A trailing
  ``# repro: allow[DET201]`` comment suppresses the named rule(s) on
  that line (comma-separate for several); a bare ``# repro: allow``
  suppresses every rule on the line; a ``# repro: allow-file[DET301]``
  comment anywhere in the file suppresses the rule for the whole file.
  For multi-line statements the pragma may sit on the first or last
  physical line of the statement.
* **Reports** — :meth:`AnalysisReport.to_dict` is a stable JSON schema
  consumed by the golden-file tests and the CI job.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .arch import (
    ARCH_RULES,
    DEFAULT_CONTRACT,
    LayerContract,
    check_cycles,
    check_module_layers,
)
from .detectors import RULES, Finding, Rule, detect, rule_family
from .graph import ModuleGraph, ModuleInfo, collect_imports
from .pickle_safety import PICKLE_RULES, check_pickle_safety
from .races import RACE_RULES, check_races

#: JSON schema of :class:`AnalysisReport`.
SCHEMA_VERSION = 2

#: a directory containing this file is a fixture tree with *planted*
#: violations: the walker skips it unless it is the scan root itself
SKIP_SENTINEL = ".repro-analysis-skip"

# -- passes --------------------------------------------------------------

PASS_DET = "det"
PASS_PICKLE = "pickle-safety"
PASS_ARCH = "arch"
PASS_RACES = "races"
ALL_PASSES: Tuple[str, ...] = (PASS_DET, PASS_PICKLE, PASS_ARCH, PASS_RACES)

#: rule catalogue contributed by each pass
PASS_RULES: Dict[str, Dict[str, Rule]] = {
    PASS_DET: RULES,
    PASS_PICKLE: PICKLE_RULES,
    PASS_ARCH: ARCH_RULES,
    PASS_RACES: RACE_RULES,
}


def rules_for_passes(passes: Sequence[str]) -> Dict[str, Rule]:
    merged: Dict[str, Rule] = {}
    for name in passes:
        merged.update(PASS_RULES[name])
    return dict(sorted(merged.items()))

#: Files where DET101 is suppressed by design: the seeded-stream registry
#: itself has to wrap ``random.Random``.
RAW_RANDOM_ALLOWED = ("sim/rng.py",)

_LINE_PRAGMA = re.compile(
    r"#\s*repro:\s*allow\s*(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)
_FILE_PRAGMA = re.compile(
    r"#\s*repro:\s*allow-file\s*\[(?P<rules>[A-Za-z0-9_,\s]+)\]"
)

#: Sentinel meaning "every rule" inside a pragma rule set.
_ALL_RULES = "*"


def _parse_rules(raw: Optional[str]) -> Set[str]:
    if raw is None:
        return {_ALL_RULES}
    return {part.strip().upper() for part in raw.split(",") if part.strip()}


@dataclass
class PragmaIndex:
    """Suppressions declared inside one source file."""

    line_allows: Dict[int, Set[str]] = field(default_factory=dict)
    file_allows: Set[str] = field(default_factory=set)

    @classmethod
    def scan(cls, source_lines: List[str]) -> "PragmaIndex":
        index = cls()
        for number, line in enumerate(source_lines, start=1):
            if "repro:" not in line:
                continue
            file_match = _FILE_PRAGMA.search(line)
            if file_match:
                index.file_allows |= _parse_rules(file_match.group("rules"))
                continue
            line_match = _LINE_PRAGMA.search(line)
            if line_match:
                index.line_allows.setdefault(number, set()).update(
                    _parse_rules(line_match.group("rules"))
                )
        return index

    def _matches(self, allowed: Set[str], rule: str) -> bool:
        return _ALL_RULES in allowed or rule in allowed

    def suppresses(self, finding: Finding, end_line: Optional[int] = None) -> bool:
        if self._matches(self.file_allows, finding.rule):
            return True
        last = end_line or finding.line
        lines = (finding.line,) if last == finding.line else (finding.line, last)
        for line in lines:
            allowed = self.line_allows.get(line)
            if allowed and self._matches(allowed, finding.rule):
                return True
        return False


def _iter_python_files(paths: Iterable[str], root: str) -> List[str]:
    """Absolute paths of every ``.py`` file under ``paths``, sorted."""
    out: Set[str] = set()
    for path in paths:
        absolute = path if os.path.isabs(path) else os.path.join(root, path)
        if os.path.isfile(absolute):
            if absolute.endswith(".py"):
                out.add(os.path.abspath(absolute))
            continue
        for dirpath, dirnames, filenames in os.walk(absolute):
            if SKIP_SENTINEL in filenames and \
                    os.path.abspath(dirpath) != os.path.abspath(absolute):
                # fixture tree with planted violations: invisible to a
                # repo-wide walk, scannable when targeted explicitly
                dirnames[:] = []
                continue
            dirnames[:] = sorted(
                d for d in dirnames
                if d != "__pycache__" and not d.startswith(".")
            )
            for name in filenames:
                if name.endswith(".py"):
                    out.add(os.path.abspath(os.path.join(dirpath, name)))
    return sorted(out)


def _relpath(path: str, root: str) -> str:
    rel = os.path.relpath(path, root)
    return rel.replace(os.sep, "/")


# -- reports and the driver ----------------------------------------------


@dataclass
class AnalysisReport:
    """Everything one analysis run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0
    parse_errors: List[str] = field(default_factory=list)
    passes: Tuple[str, ...] = ALL_PASSES

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def by_family(self) -> Dict[str, Dict[str, int]]:
        """family -> {"errors": n, "warnings": n} over all findings."""
        out: Dict[str, Dict[str, int]] = {}
        for name in self.passes:
            for rule_id in PASS_RULES[name]:
                out.setdefault(
                    rule_family(rule_id), {"errors": 0, "warnings": 0}
                )
        for finding in self.findings:
            bucket = out.setdefault(
                finding.family, {"errors": 0, "warnings": 0}
            )
            key = "errors" if finding.severity == "error" else "warnings"
            bucket[key] += 1
        return dict(sorted(out.items()))

    def to_dict(self) -> Dict:
        return {
            "schema": SCHEMA_VERSION,
            "passes": list(self.passes),
            "files_scanned": self.files_scanned,
            "suppressed": self.suppressed,
            "parse_errors": list(self.parse_errors),
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "by_rule": self.by_rule(),
                "by_family": self.by_family(),
            },
            "rules": {
                rule_id: {
                    "title": rule.title,
                    "severity": rule.severity,
                    "hint": rule.hint,
                }
                for rule_id, rule in rules_for_passes(self.passes).items()
            },
            "findings": [
                {
                    "rule": f.rule,
                    "severity": f.severity,
                    "path": f.path,
                    "line": f.line,
                    "col": f.col,
                    "message": f.message,
                    "hint": f.hint,
                    "text": f.text,
                }
                for f in self.findings
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def _analyze_source(
    source: str,
    rel: str,
    passes: Sequence[str],
    contract: LayerContract,
    report: AnalysisReport,
) -> Tuple[Optional[ModuleInfo], PragmaIndex]:
    """Run the per-file passes over one file, appending to ``report``.

    Returns the file's import-graph node (``None`` if it does not
    parse) and its pragmas, which the whole-program cycle check needs.
    """
    lines = source.splitlines()
    pragmas = PragmaIndex.scan(lines)
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as exc:
        report.parse_errors.append(f"{rel}: {exc.msg} (line {exc.lineno})")
        return None, pragmas

    info = collect_imports(tree, rel, lines)
    for name in passes:
        if name == PASS_DET:
            allow_raw = any(
                rel.endswith(suffix) for suffix in RAW_RANDOM_ALLOWED
            )
            found = detect(
                source, rel, allow_raw_random=allow_raw, tree=tree
            )
        elif name == PASS_PICKLE:
            found = check_pickle_safety(tree, rel, lines)
        elif name == PASS_ARCH:
            found = check_module_layers(info, contract)
        elif name == PASS_RACES:
            found = check_races(tree, rel, lines)
        else:
            raise ValueError(f"unknown analysis pass {name!r}")
        for finding in found:
            if pragmas.suppresses(finding, finding.end_line):
                report.suppressed += 1
            else:
                report.findings.append(finding)
    return info, pragmas


def run_analysis(
    paths: Iterable[str],
    root: str,
    *,
    passes: Sequence[str] = ALL_PASSES,
    contract: LayerContract = DEFAULT_CONTRACT,
) -> AnalysisReport:
    """Run the requested passes over every Python file under ``paths``.

    Every finding not suppressed by a pragma lands in
    :attr:`AnalysisReport.findings`.  Whole-program products (ARCH602
    cycles) are computed last, from the per-file import lists.
    """
    for name in passes:
        if name not in PASS_RULES:
            raise ValueError(
                f"unknown analysis pass {name!r}; "
                f"expected one of {', '.join(ALL_PASSES)}"
            )
    report = AnalysisReport(passes=tuple(passes))
    infos: List[ModuleInfo] = []
    pragma_by_path: Dict[str, PragmaIndex] = {}
    for absolute in _iter_python_files(paths, root):
        rel = _relpath(absolute, root)
        with open(absolute, "rb") as fh:
            raw = fh.read()
        report.files_scanned += 1
        try:
            # the interpreter's rule: a PEP 263 cookie or BOM, else UTF-8
            encoding, _ = tokenize.detect_encoding(io.BytesIO(raw).readline)
            source = raw.decode(encoding)
        except (SyntaxError, UnicodeDecodeError) as exc:
            report.parse_errors.append(f"{rel}: cannot decode: {exc}")
            continue
        info, pragma_by_path[rel] = _analyze_source(
            source, rel, passes, contract, report
        )
        if info is not None:
            infos.append(info)

    if PASS_ARCH in passes:
        for finding in check_cycles(ModuleGraph(infos)):
            if pragma_by_path[finding.path].suppresses(
                finding, finding.end_line
            ):
                report.suppressed += 1
            else:
                report.findings.append(finding)

    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report
