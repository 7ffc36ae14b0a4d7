"""Tests for pragmas, baseline diffing and the ``repro.analysis`` CLI."""

import json
import textwrap

import pytest

from repro.analysis import (
    load_baseline,
    new_findings,
    run_analysis,
    save_baseline,
)
from repro.analysis.__main__ import main
from repro.analysis.lint import PragmaIndex

HAZARD = textwrap.dedent(
    """
    import random

    def jitter():
        return random.random()
    """
)


def write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def run_det(paths, root):
    """The determinism pass alone."""
    return run_analysis(paths, str(root), passes=("det",))


def baseline_of(report):
    """A schema-1 baseline crediting every finding of ``report``."""
    counts = {}
    for finding in report.findings:
        counts[finding.fingerprint] = counts.get(finding.fingerprint, 0) + 1
    return {"schema": 1, "fingerprints": counts}


class TestPragmas:
    def lint_one(self, tmp_path, source):
        """Scan a one-file tree: (findings, suppressed, parse errors)."""
        write(tmp_path, "mod.py", source)
        report = run_det(["mod.py"], tmp_path)
        assert report.files_scanned == 1
        return report.findings, report.suppressed, report.parse_errors

    def test_named_pragma_suppresses(self, tmp_path):
        findings, suppressed, errors = self.lint_one(
            tmp_path,
            """
            import random

            def f():
                return random.random()  # repro: allow[DET101]
            """,
        )
        assert errors == []
        assert findings == []
        assert suppressed == 1

    def test_bare_pragma_suppresses_everything_on_line(self, tmp_path):
        findings, suppressed, _ = self.lint_one(
            tmp_path,
            """
            import random, time

            def f():
                return random.random() + time.time()  # repro: allow
            """,
        )
        assert findings == []
        assert suppressed == 2

    def test_wrong_rule_does_not_suppress(self, tmp_path):
        findings, suppressed, _ = self.lint_one(
            tmp_path,
            """
            import random

            def f():
                return random.random()  # repro: allow[DET999]
            """,
        )
        assert [f.rule for f in findings] == ["DET101"]
        assert suppressed == 0

    def test_multi_rule_pragma(self, tmp_path):
        findings, suppressed, _ = self.lint_one(
            tmp_path,
            """
            import random, time

            def f():
                return random.random() + time.time()  # repro: allow[DET101, DET102]
            """,
        )
        assert findings == []
        assert suppressed == 2

    def test_file_pragma_covers_whole_file(self, tmp_path):
        findings, suppressed, _ = self.lint_one(
            tmp_path,
            """
            # repro: allow-file[DET101]
            import random

            def f():
                return random.random()

            def g():
                return random.choice([1, 2])
            """,
        )
        assert findings == []
        assert suppressed == 2

    def test_pragma_on_last_line_of_multiline_statement(self, tmp_path):
        findings, suppressed, _ = self.lint_one(
            tmp_path,
            """
            import random

            def f():
                return random.uniform(
                    0.0, 1.0,
                )  # repro: allow[DET101]
            """,
        )
        assert findings == []
        assert suppressed == 1

    def test_pragma_index_scan(self):
        index = PragmaIndex.scan([
            "x = 1  # repro: allow[DET101]",
            "y = 2",
            "# repro: allow-file[DET301]",
        ])
        assert index.line_allows == {1: {"DET101"}}
        assert index.file_allows == {"DET301"}


class TestBaseline:
    def test_roundtrip(self, tmp_path):
        write(tmp_path, "src/mod.py", HAZARD)
        report = run_det(["src"], tmp_path)
        baseline = baseline_of(report)
        target = tmp_path / "baseline.json"
        save_baseline(baseline, str(target))
        assert load_baseline(str(target)) == {
            "src/mod.py::DET101::return random.random()": 1
        }

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "absent.json")) == {}

    def test_baselined_finding_not_new(self, tmp_path):
        write(tmp_path, "src/mod.py", HAZARD)
        report = run_det(["src"], tmp_path)
        baseline = {f.fingerprint: 1 for f in report.findings}
        assert new_findings(report, baseline) == []

    def test_extra_occurrence_is_new(self, tmp_path):
        write(
            tmp_path,
            "src/mod.py",
            """
            import random

            def f():
                return random.random()

            def g():
                return random.random()
            """,
        )
        report = run_det(["src"], tmp_path)
        assert len(report.findings) == 2
        # both findings share one fingerprint (same path, rule and text):
        # a baseline crediting one occurrence leaves the second as new
        fingerprint = report.findings[0].fingerprint
        assert report.findings[1].fingerprint == fingerprint
        fresh = new_findings(report, {fingerprint: 1})
        assert len(fresh) == 1

    def test_line_shift_does_not_break_baseline(self, tmp_path):
        write(tmp_path, "src/mod.py", HAZARD)
        baseline = baseline_of(run_det(["src"], tmp_path))
        shifted = "# a new comment\n# another\n" + textwrap.dedent(HAZARD)
        write(tmp_path, "src/mod.py", shifted)
        report = run_det(["src"], tmp_path)
        assert new_findings(report, baseline["fingerprints"]) == []


class TestRunLint:
    def test_walk_is_sorted_and_skips_pycache(self, tmp_path):
        write(tmp_path, "src/b.py", HAZARD)
        write(tmp_path, "src/a.py", HAZARD)
        write(tmp_path, "src/__pycache__/c.py", HAZARD)
        report = run_det(["src"], tmp_path)
        assert report.files_scanned == 2
        assert [f.path for f in report.findings] == ["src/a.py", "src/b.py"]

    def test_parse_error_reported_not_fatal(self, tmp_path):
        write(tmp_path, "src/bad.py", "def broken(:\n")
        write(tmp_path, "src/good.py", HAZARD)
        report = run_det(["src"], tmp_path)
        assert len(report.parse_errors) == 1
        assert "src/bad.py" in report.parse_errors[0]
        assert len(report.findings) == 1

    def test_rng_module_exempt_from_det101(self, tmp_path):
        write(tmp_path, "src/repro/sim/rng.py", HAZARD)
        report = run_det(["src"], tmp_path)
        assert report.findings == []


class TestCli:
    def test_check_fails_on_seeded_rng_bypass(self, tmp_path, capsys):
        write(tmp_path, "src/mod.py", HAZARD)
        code = main(["--root", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "DET101" in captured.out
        assert "FAIL" in captured.err

    def test_check_passes_on_clean_tree(self, tmp_path, capsys):
        write(tmp_path, "src/mod.py", "def f():\n    return 1\n")
        code = main(["--root", str(tmp_path)])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_update_baseline_then_check_passes(self, tmp_path):
        write(tmp_path, "src/mod.py", HAZARD)
        assert main(["--root", str(tmp_path), "--update-baseline"]) == 0
        assert (tmp_path / "determinism-baseline.json").exists()
        assert main(["--root", str(tmp_path)]) == 0
        # a new hazard on top of the baselined one still fails
        write(tmp_path, "src/other.py", HAZARD)
        assert main(["--root", str(tmp_path)]) == 1

    def test_no_baseline_flag_counts_everything(self, tmp_path):
        write(tmp_path, "src/mod.py", HAZARD)
        assert main(["--root", str(tmp_path), "--update-baseline"]) == 0
        assert main(["--root", str(tmp_path), "--no-baseline"]) == 1

    def test_parse_error_fails_check(self, tmp_path):
        write(tmp_path, "src/bad.py", "def broken(:\n")
        assert main(["--root", str(tmp_path)]) == 1

    def test_json_report_written(self, tmp_path):
        write(tmp_path, "src/mod.py", HAZARD)
        out = tmp_path / "report.json"
        main(["--root", str(tmp_path), "--json", str(out)])
        payload = json.loads(out.read_text(encoding="utf-8"))
        # the CLI runs every pass by default
        assert payload["schema"] == 2
        assert payload["passes"] == ["det", "pickle-safety", "arch", "races"]
        assert payload["summary"]["errors"] == 1

    def test_nothing_to_scan_is_usage_error(self, tmp_path):
        assert main(["--root", str(tmp_path)]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET101", "DET102", "DET201", "DET202",
                        "DET301", "DET401"):
            assert rule_id in out


@pytest.mark.parametrize("rel", ["src", "tests"])
def test_repo_tree_is_hazard_free(rel):
    """Regression guard: the shipped tree stays clean (the fixes for the
    hazards the linter found — set-ordered float sums, set-ordered app
    registration — must not regress)."""
    import os

    root = os.path.join(os.path.dirname(__file__), "..", "..")
    report = run_det([rel], os.path.abspath(root))
    assert report.errors == [], [f.render() for f in report.errors]
