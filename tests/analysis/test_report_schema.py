"""Golden-file test pinning the JSON report schema.

Downstream tooling (the CI job, report diffing) parses the linter's JSON
output; this test freezes the exact payload for a fixed fixture tree so
schema drift is a deliberate act: regenerate with

    PYTHONPATH=src python tests/analysis/test_report_schema.py
"""

import json
import os
import textwrap

from repro.analysis import run_analysis

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_report.json")

#: fixture tree written under a temp root; rel paths (the only
#: path-dependent part of the report) stay identical across machines
FIXTURE = {
    "src/repro/sim/clockish.py": """
        import random
        import time

        def sample():
            return time.monotonic()  # repro: allow[DET102]

        def jitter():
            return random.random()
        """,
    "src/repro/cli/knobs.py": """
        import os

        def columns(fallback=[]):
            value = os.getenv("COLUMNS")
            return value or fallback
        """,
}


def build_report(root):
    for rel, source in FIXTURE.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(textwrap.dedent(source))
    return run_analysis(["src"], root, passes=("det",))


def test_report_matches_golden(tmp_path):
    report = build_report(str(tmp_path))
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert report.to_dict() == golden


def test_report_json_is_stable(tmp_path):
    """Serialisation itself is deterministic: sorted keys, fixed indent."""
    report = build_report(str(tmp_path))
    assert report.to_json() == report.to_json()
    payload = json.loads(report.to_json())
    assert payload == report.to_dict()


def test_summary_counts_consistent(tmp_path):
    report = build_report(str(tmp_path))
    payload = report.to_dict()
    assert payload["summary"]["errors"] == len(report.errors)
    assert payload["summary"]["warnings"] == len(report.warnings)
    assert sum(payload["summary"]["by_rule"].values()) == len(report.findings)
    assert payload["suppressed"] == 1  # the DET102 pragma in the fixture


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        payload = build_report(root).to_json()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write(payload)
        fh.write("\n")
    print(f"regenerated {GOLDEN_PATH}")
