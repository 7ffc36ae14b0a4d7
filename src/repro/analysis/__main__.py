"""Command-line entry point: ``python -m repro.analysis``.

Typical invocations::

    # run every pass (det, pickle-safety, arch, races); exit 1 on any
    # finding not covered by pragma or baseline
    python -m repro.analysis

    # one pass only
    python -m repro.analysis --pass pickle-safety

    # disable the incremental cache (CI does this for hermetic runs)
    python -m repro.analysis --no-cache

    # preview mechanical fixes as a unified diff (exit 1 if any apply)
    python -m repro.analysis --fix

    # actually rewrite the files
    python -m repro.analysis --fix --write

    # accept the current findings as the new baseline(s)
    python -m repro.analysis --update-baseline

    # machine-readable report for tooling / golden tests
    python -m repro.analysis --json report.json

Baselines are split by rule family: ``DET*`` fingerprints live in
``determinism-baseline.json`` (kept empty — determinism debt is never
banked) and everything else in ``analysis-baseline.json``.

Exit codes: ``0`` clean, ``1`` fresh findings / parse errors / pending
``--fix`` proposals, ``2`` bad usage.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

from .cache import AnalysisCache
from .fixer import apply_fixes, propose_fixes, render_diffs
from .lint import (
    ALL_PASSES,
    BASELINE_SCHEMA_VERSION,
    PASS_DET,
    AnalysisReport,
    analysis_salt,
    load_baseline,
    new_findings,
    rules_for_passes,
    run_analysis,
    save_baseline,
)

DEFAULT_PATHS = ("src", "tests", "benchmarks")
DET_BASELINE = "determinism-baseline.json"
ANALYSIS_BASELINE = "analysis-baseline.json"
DEFAULT_CACHE_DIR = ".repro-analysis-cache"


def _parse_passes(raw: List[str]) -> List[str]:
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
            raise SystemExit(
                f"unknown pass {name!r}; expected all, "
                + ", ".join(ALL_PASSES)
            )
    return names or list(ALL_PASSES)


def _print_rules(passes: List[str]) -> None:
    for rule_id, rule in rules_for_passes(passes).items():
        print(f"{rule_id}  [{rule.severity}] {rule.title}")
        print(f"        fix: {rule.hint}")


def _split_baseline(report: AnalysisReport) -> Dict[str, Dict]:
    """Family-split baselines: DET fingerprints vs everything else."""
    det: Dict[str, int] = {}
    rest: Dict[str, int] = {}
    for finding in report.findings:
        bucket = det if finding.family == "DET" else rest
        bucket[finding.fingerprint] = bucket.get(finding.fingerprint, 0) + 1
    return {
        DET_BASELINE: {
            "schema": BASELINE_SCHEMA_VERSION,
            "fingerprints": dict(sorted(det.items())),
        },
        ANALYSIS_BASELINE: {
            "schema": BASELINE_SCHEMA_VERSION,
            "fingerprints": dict(sorted(rest.items())),
        },
    }


def _render_summary(report: AnalysisReport, fresh_count: int) -> None:
    for family, counts in report.by_family().items():
        print(
            f"{family}: {counts['errors']} error(s), "
            f"{counts['warnings']} warning(s)"
        )
    print(
        f"{report.files_scanned} files scanned "
        f"[{'+'.join(report.passes)}]: "
        f"{len(report.findings)} finding(s), "
        f"{report.suppressed} suppressed by pragma, "
        f"{fresh_count} new vs baseline"
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
        help="repository root paths, baselines and the cache resolve "
        "against (default: cwd)",
    )
    parser.add_argument(
        "--pass", dest="passes", action="append", default=[],
        metavar="NAME",
        help="pass to run: all, det, pickle-safety, arch, races "
        "(repeatable or comma-separated; default: all)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the incremental analysis cache",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help=f"cache directory (default: <root>/{DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--fix", action="store_true",
        help="propose mechanical fixes for fresh findings as a unified "
        "diff (dry run; exit 1 if any edit applies)",
    )
    parser.add_argument(
        "--write", action="store_true",
        help="with --fix: apply the proposed edits in place",
    )
    parser.add_argument(
        "--baseline", default=None,
        help=f"non-DET baseline file (default: <root>/{ANALYSIS_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore baseline files: every finding counts as new",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="write the current findings to the family baselines and "
        "exit 0",
    )
    parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the full JSON report to FILE ('-' for stdout)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    args = parser.parse_args(argv)

    passes = _parse_passes(args.passes)

    if args.list_rules:
        _print_rules(passes)
        return 0
    if args.write and not args.fix:
        print("--write requires --fix", file=sys.stderr)
        return 2

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

    cache = None
    if not args.no_cache:
        cache_dir = args.cache_dir or os.path.join(root, DEFAULT_CACHE_DIR)
        cache = AnalysisCache(cache_dir, analysis_salt(passes))
        cache.prune()

    report = run_analysis(paths, root, passes=passes, cache=cache)

    if args.json:
        payload = report.to_json()
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(payload)
                fh.write("\n")

    det_baseline_path = os.path.join(root, DET_BASELINE)
    analysis_baseline_path = args.baseline or os.path.join(
        root, ANALYSIS_BASELINE
    )

    if args.update_baseline:
        split = _split_baseline(report)
        targets = {
            DET_BASELINE: det_baseline_path,
            ANALYSIS_BASELINE: analysis_baseline_path,
        }
        for name, payload in split.items():
            # DET baseline only written when det ran (don't clobber it
            # from a pickle-safety-only invocation)
            if name == DET_BASELINE and PASS_DET not in passes:
                continue
            save_baseline(payload, targets[name])
            print(
                f"baseline updated: {targets[name]} "
                f"({len(payload['fingerprints'])} fingerprint(s))"
            )
        return 0

    baseline: Dict[str, int] = {}
    if not args.no_baseline:
        baseline.update(load_baseline(det_baseline_path))
        baseline.update(load_baseline(analysis_baseline_path))
    fresh = new_findings(report, baseline)

    if args.fix:
        fixes = propose_fixes(fresh, root)
        if not fixes:
            print("no mechanical fixes to apply")
            return 0
        if args.write:
            changed = apply_fixes(fixes)
            for fix in fixes:
                for description in fix.descriptions:
                    print(f"{fix.path}: {description}")
            print(f"fixed {changed} file(s); re-run the analysis")
            return 0
        sys.stdout.write(render_diffs(fixes))
        print(
            f"\n{len(fixes)} file(s) have mechanical fixes "
            "(re-run with --fix --write to apply)",
            file=sys.stderr,
        )
        return 1

    for finding in report.findings:
        print(finding.render())
    for error in report.parse_errors:
        print(f"parse error: {error}", file=sys.stderr)
    _render_summary(report, len(fresh))

    if report.parse_errors:
        return 1
    if fresh:
        print(
            f"FAIL: {len(fresh)} finding(s) not covered by pragma or "
            "baseline",
            file=sys.stderr,
        )
        return 1
    print("OK: no new findings")
    return 0


if __name__ == "__main__":
    sys.exit(main())
