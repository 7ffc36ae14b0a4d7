"""Tests for pragmas and the ``repro.analysis`` CLI."""

import json
import textwrap

import pytest

from repro.analysis import run_analysis
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
    """A finding is identified by its site: nothing but a pragma on its
    own line (or an ``allow-file`` pragma) accepts it."""

    def test_roundtrip(self, tmp_path):
        write(tmp_path, "src/mod.py", HAZARD)
        out = tmp_path / "report.json"
        assert main(["--root", str(tmp_path), "--json", str(out)]) == 1
        report = run_analysis(["src"], str(tmp_path))
        assert json.loads(out.read_text(encoding="utf-8")) == report.to_dict()

    def test_missing_baseline_is_empty(self, tmp_path):
        # no baseline file is read or written: a run leaves none behind
        write(tmp_path, "src/mod.py", HAZARD)
        assert main(["--root", str(tmp_path)]) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["src"]

    def test_baselined_finding_not_new(self, tmp_path):
        # a leftover baseline file crediting the finding accepts nothing
        write(tmp_path, "src/mod.py", HAZARD)
        (finding,) = run_det(["src"], tmp_path).findings
        stale = {
            "schema": 1,
            "fingerprints": {
                f"{finding.path}::{finding.rule}::{finding.text}": 1
            },
        }
        (tmp_path / "determinism-baseline.json").write_text(
            json.dumps(stale), encoding="utf-8"
        )
        assert main(["--root", str(tmp_path), "src"]) == 1

    def test_extra_occurrence_is_new(self, tmp_path):
        write(
            tmp_path,
            "src/mod.py",
            """
            import random

            def f():
                return random.random()  # repro: allow[DET101]

            def g():
                return random.random()
            """,
        )
        report = run_det(["src"], tmp_path)
        # same path, rule and text: the pragma covers its own line only
        assert len(report.findings) == 1
        assert report.suppressed == 1
        assert report.findings[0].line == 8

    def test_line_shift_does_not_break_baseline(self, tmp_path):
        source = HAZARD.replace(
            "random.random()", "random.random()  # repro: allow[DET101]"
        )
        write(tmp_path, "src/mod.py", source)
        assert run_det(["src"], tmp_path).suppressed == 1
        shifted = "# a new comment\n# another\n" + textwrap.dedent(source)
        write(tmp_path, "src/mod.py", shifted)
        report = run_det(["src"], tmp_path)
        assert report.findings == []
        assert report.suppressed == 1


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

    def test_update_baseline_then_check_passes(self, tmp_path, capsys):
        """A pragma is the way to accept a finding; a new hazard beside
        it still fails the run."""
        write(tmp_path, "src/mod.py", """
            import random

            def jitter():
                return random.random()  # repro: allow[DET101]
            """)
        assert main(["--root", str(tmp_path)]) == 0
        assert "1 suppressed by pragma" in capsys.readouterr().out
        # a second, unsuppressed hazard fails the run on its own
        write(tmp_path, "src/other.py", HAZARD)
        assert main(["--root", str(tmp_path)]) == 1

    def test_no_baseline_flag_counts_everything(self, tmp_path, capsys):
        write(tmp_path, "src/mod.py", HAZARD)
        write(tmp_path, "src/other.py", HAZARD)
        assert main(["--root", str(tmp_path)]) == 1
        assert "FAIL: 2 finding(s)" in capsys.readouterr().err
        # the retired baseline, cache and autofix options are usage errors
        for flag in ("--no-baseline", "--update-baseline", "--no-cache",
                     "--fix"):
            with pytest.raises(SystemExit) as exc:
                main(["--root", str(tmp_path), flag])
            assert exc.value.code == 2

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

    def test_json_to_stdout_is_pure_json(self, tmp_path, capsys):
        write(tmp_path, "src/mod.py", HAZARD)
        assert main(["--root", str(tmp_path), "--json", "-"]) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["summary"]["errors"] == 1
        # the human report moves to stderr instead of being dropped
        assert "DET101" in captured.err
        assert "FAIL" in captured.err

    def test_nothing_to_scan_is_usage_error(self, tmp_path):
        assert main(["--root", str(tmp_path)]) == 2

    def test_missing_path_is_usage_error(self, tmp_path):
        write(tmp_path, "src/mod.py", "def f():\n    return 1\n")
        assert main(["--root", str(tmp_path), "src", "srcx"]) == 2

    def test_unknown_pass_is_usage_error(self, tmp_path, capsys):
        write(tmp_path, "src/mod.py", "def f():\n    return 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["--root", str(tmp_path), "--pass", "det,nope"])
        assert exc.value.code == 2
        assert "unknown pass 'nope'" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET101", "DET102", "DET201", "DET202",
                        "DET301", "DET401"):
            assert rule_id in out


@pytest.mark.parametrize("rel", ["src", "tests", "benchmarks"])
def test_repo_tree_is_hazard_free(rel):
    """The shipped tree passes the gate CI runs: every pass, zero
    findings of any severity and zero parse errors (the fixes for the
    hazards the analyzer found — set-ordered float sums, set-ordered app
    registration — must not regress)."""
    import os

    root = os.path.join(os.path.dirname(__file__), "..", "..")
    report = run_analysis([rel], os.path.abspath(root))
    assert report.parse_errors == []
    assert report.findings == [], [f.render() for f in report.findings]
