"""The ``--fix`` autofixer: mechanical, provable, dry-run by default."""

import os
import textwrap

from repro.analysis.fixer import apply_fixes, propose_fixes, render_diffs
from repro.analysis.lint import run_analysis

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)


def write(root, rel, source):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def run_det(root):
    """The determinism pass alone over ``root/src``."""
    return run_analysis(["src"], str(root), passes=("det",))


def fix_round_trip(tmp_path, source):
    """Lint, fix, re-lint; returns (fixed_source, findings_after)."""
    path = write(tmp_path, "src/mod.py", source)
    report = run_det(tmp_path)
    fixes = propose_fixes(report.findings, str(tmp_path))
    apply_fixes(fixes)
    after = run_det(tmp_path)
    return path.read_text(encoding="utf-8"), after.findings


class TestDet201Fixes:
    def test_for_loop_iterable_wrapped(self, tmp_path):
        fixed, remaining = fix_round_trip(tmp_path, """
            def walk(items):
                seen = set(items)
                for item in seen:
                    print(item)
        """)
        assert "for item in sorted(seen):" in fixed
        assert remaining == []

    def test_comprehension_iterable_wrapped(self, tmp_path):
        fixed, remaining = fix_round_trip(tmp_path, """
            def walk(items):
                seen = set(items)
                return [i for i in seen]
        """)
        assert "for i in sorted(seen)]" in fixed
        assert remaining == []

    def test_list_conversion_becomes_sorted(self, tmp_path):
        fixed, remaining = fix_round_trip(tmp_path, """
            def order(items):
                seen = set(items)
                return list(seen)
        """)
        assert "return sorted(seen)" in fixed
        assert remaining == []

    def test_tuple_conversion_wraps_argument(self, tmp_path):
        fixed, remaining = fix_round_trip(tmp_path, """
            def order(items):
                seen = set(items)
                return tuple(seen)
        """)
        assert "tuple(sorted(seen))" in fixed
        assert remaining == []

    def test_join_argument_wrapped(self, tmp_path):
        fixed, remaining = fix_round_trip(tmp_path, """
            def label(items):
                seen = set(items)
                return ",".join(seen)
        """)
        assert '",".join(sorted(seen))' in fixed
        assert remaining == []


class TestDet101Fix:
    def test_random_random_becomes_named_stream(self, tmp_path):
        fixed, remaining = fix_round_trip(tmp_path, """
            import random

            def make(seed):
                rng = random.Random(seed)
                return rng.random()
        """)
        assert 'rng = RngStreams(seed).stream("rng")' in fixed
        assert "from repro.sim.rng import RngStreams" in fixed
        assert remaining == []

    def test_import_not_duplicated(self, tmp_path):
        fixed, _ = fix_round_trip(tmp_path, """
            import random
            from repro.sim.rng import RngStreams

            def make(seed):
                rng = random.Random(seed)
                return rng.random()
        """)
        assert fixed.count("from repro.sim.rng import RngStreams") == 1

    def test_bare_random_call_not_touched(self, tmp_path):
        # random.random() has no provable mechanical fix: leave it
        fixed, remaining = fix_round_trip(tmp_path, """
            import random

            def jitter():
                return random.random()
        """)
        assert "random.random()" in fixed
        assert [f.rule for f in remaining] == ["DET101"]


class TestProposalMechanics:
    def test_dry_run_does_not_modify_files(self, tmp_path):
        path = write(tmp_path, "src/mod.py", """
            def order(items):
                seen = set(items)
                return list(seen)
        """)
        before = path.read_text(encoding="utf-8")
        report = run_det(tmp_path)
        fixes = propose_fixes(report.findings, str(tmp_path))
        assert len(fixes) == 1
        assert path.read_text(encoding="utf-8") == before

    def test_diff_is_unified_format(self, tmp_path):
        write(tmp_path, "src/mod.py", """
            def order(items):
                seen = set(items)
                return list(seen)
        """)
        report = run_det(tmp_path)
        diff = render_diffs(propose_fixes(report.findings, str(tmp_path)))
        assert diff.startswith("--- a/src/mod.py")
        assert "+++ b/src/mod.py" in diff
        assert "-    return list(seen)" in diff
        assert "+    return sorted(seen)" in diff

    def test_clean_source_proposes_nothing(self, tmp_path):
        write(tmp_path, "src/mod.py", "def f():\n    return 1\n")
        report = run_det(tmp_path)
        assert propose_fixes(report.findings, str(tmp_path)) == []

    def test_fixed_file_still_parses(self, tmp_path):
        import ast

        fixed, _ = fix_round_trip(tmp_path, """
            import random

            def pick(items, seed):
                chosen = set(items)
                rng = random.Random(seed)
                order = [x for x in chosen]
                for item in chosen:
                    order.append(item)
                return rng, order, list(chosen)
        """)
        ast.parse(fixed)


def test_clean_repo_tree_proposes_zero_edits():
    """CI gate: on the shipped tree, --fix --dry-run must be a no-op."""
    from repro.analysis.lint import load_baseline, new_findings

    report = run_analysis(["src", "tests", "benchmarks"], REPO_ROOT)
    baseline = dict(load_baseline(
        os.path.join(REPO_ROOT, "determinism-baseline.json")
    ))
    baseline.update(load_baseline(
        os.path.join(REPO_ROOT, "analysis-baseline.json")
    ))
    fresh = new_findings(report, baseline)
    assert propose_fixes(fresh, REPO_ROOT) == []
