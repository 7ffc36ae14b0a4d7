"""Command-line entry point: ``python -m repro.analysis``.

Typical invocations::

    # run every pass (det, pickle-safety, arch, races); exit 1 on any
    # finding that no pragma names
    python -m repro.analysis

    # one pass only
    python -m repro.analysis --pass pickle-safety

    # machine-readable report for tooling / golden tests
    python -m repro.analysis --json report.json

A finding fails the run unless a ``# repro: allow[RULE]`` pragma on its
line, or a ``# repro: allow-file[RULE]`` pragma in its file, names its
rule.  There is no other way to accept a finding.

Exit codes: ``0`` clean, ``1`` findings or parse errors, ``2`` bad
usage (an unknown pass, a missing path, nothing to scan).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, TextIO

from .lint import ALL_PASSES, AnalysisReport, rules_for_passes, run_analysis

DEFAULT_PATHS = ("src", "tests", "benchmarks")


def _parse_passes(parser: argparse.ArgumentParser, raw: List[str]) -> List[str]:
    names: List[str] = []
    for chunk in raw:
        for name in chunk.split(","):
            name = name.strip()
            if not name:
                continue
            if name == "all":
                for p in ALL_PASSES:
                    if p not in names:
                        names.append(p)
            elif name not in names:
                names.append(name)
    for name in names:
        if name not in ALL_PASSES:
            parser.error(
                f"unknown pass {name!r}; expected all, "
                + ", ".join(ALL_PASSES)
            )
    return names or list(ALL_PASSES)


def _print_rules(passes: List[str]) -> None:
    for rule_id, rule in rules_for_passes(passes).items():
        print(f"{rule_id}  [{rule.severity}] {rule.title}")
        print(f"        fix: {rule.hint}")


def _render_summary(report: AnalysisReport, out: TextIO) -> None:
    for family, counts in report.by_family().items():
        print(
            f"{family}: {counts['errors']} error(s), "
            f"{counts['warnings']} warning(s)",
            file=out,
        )
    print(
        f"{report.files_scanned} files scanned "
        f"[{'+'.join(report.passes)}]: "
        f"{len(report.findings)} finding(s), "
        f"{report.suppressed} suppressed by pragma",
        file=out,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Whole-program static analysis: determinism, "
        "fork/pickle safety, architecture layering, static races",
    )
    parser.add_argument(
        "paths", nargs="*", default=None,
        help=f"files/directories to scan (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--root", default=os.getcwd(),
        help="repository root that paths resolve against (default: cwd)",
    )
    parser.add_argument(
        "--pass", dest="passes", action="append", default=[],
        metavar="NAME",
        help="pass to run: all, det, pickle-safety, arch, races "
        "(repeatable or comma-separated; default: all)",
    )
    parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the full JSON report to FILE ('-' for stdout; "
        "the human-readable lines then go to stderr)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    args = parser.parse_args(argv)

    passes = _parse_passes(parser, args.passes)

    if args.list_rules:
        _print_rules(passes)
        return 0

    root = os.path.abspath(args.root)
    paths = args.paths or [
        p for p in DEFAULT_PATHS if os.path.exists(os.path.join(root, p))
    ]
    if not paths:
        print(f"nothing to scan under {root}", file=sys.stderr)
        return 2
    # a typo'd explicit path must fail loudly, not scan 0 files and
    # report OK (a CI invocation pointing nowhere would silently pass)
    for path in args.paths or ():
        absolute = path if os.path.isabs(path) else os.path.join(root, path)
        if not os.path.exists(absolute):
            print(f"no such path: {absolute}", file=sys.stderr)
            return 2

    report = run_analysis(paths, root, passes=passes)

    # stdout carries either the human report or the JSON one, never both
    human = sys.stdout
    if args.json == "-":
        print(report.to_json())
        human = sys.stderr
    elif args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
            fh.write("\n")

    for finding in report.findings:
        print(finding.render(), file=human)
    for error in report.parse_errors:
        print(f"parse error: {error}", file=sys.stderr)
    _render_summary(report, human)

    if report.parse_errors:
        return 1
    if report.findings:
        print(
            f"FAIL: {len(report.findings)} finding(s) not suppressed by "
            "pragma",
            file=sys.stderr,
        )
        return 1
    print("OK: no findings", file=human)
    return 0


if __name__ == "__main__":
    sys.exit(main())
