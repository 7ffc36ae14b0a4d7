"""Hazards with a canonical rewrite: flagged as written, clean once the
rule's hint is applied by hand.

DET201's hint is ``sorted(...)`` around the iterated set and DET101's is
a named ``RngStreams`` stream.  Each case checks both halves, so the
detector neither misses the hazard nor flags its sanctioned fix, and
the analysis never edits the files it reads.
"""

import ast
import textwrap

from repro.analysis.__main__ import main
from repro.analysis.lint import run_analysis


def write(root, rel, source):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def run_det(root):
    """The determinism pass alone over ``root/src``."""
    return run_analysis(["src"], str(root), passes=("det",))


def rules_before_and_after(tmp_path, hazard, fixed):
    """Rule ids flagged in ``hazard``, then in its hand-fixed form."""
    write(tmp_path, "src/mod.py", hazard)
    before = [f.rule for f in run_det(tmp_path).findings]
    write(tmp_path, "src/mod.py", fixed)
    after = [f.rule for f in run_det(tmp_path).findings]
    return before, after


class TestDet201Fixes:
    def test_for_loop_iterable_wrapped(self, tmp_path):
        before, after = rules_before_and_after(tmp_path, """
            def walk(items):
                seen = set(items)
                for item in seen:
                    print(item)
        """, """
            def walk(items):
                seen = set(items)
                for item in sorted(seen):
                    print(item)
        """)
        assert before == ["DET201"]
        assert after == []

    def test_comprehension_iterable_wrapped(self, tmp_path):
        before, after = rules_before_and_after(tmp_path, """
            def walk(items):
                seen = set(items)
                return [i for i in seen]
        """, """
            def walk(items):
                seen = set(items)
                return [i for i in sorted(seen)]
        """)
        assert before == ["DET201"]
        assert after == []

    def test_list_conversion_becomes_sorted(self, tmp_path):
        before, after = rules_before_and_after(tmp_path, """
            def order(items):
                seen = set(items)
                return list(seen)
        """, """
            def order(items):
                seen = set(items)
                return sorted(seen)
        """)
        assert before == ["DET201"]
        assert after == []

    def test_tuple_conversion_wraps_argument(self, tmp_path):
        before, after = rules_before_and_after(tmp_path, """
            def order(items):
                seen = set(items)
                return tuple(seen)
        """, """
            def order(items):
                seen = set(items)
                return tuple(sorted(seen))
        """)
        assert before == ["DET201"]
        assert after == []

    def test_join_argument_wrapped(self, tmp_path):
        before, after = rules_before_and_after(tmp_path, """
            def label(items):
                seen = set(items)
                return ",".join(seen)
        """, """
            def label(items):
                seen = set(items)
                return ",".join(sorted(seen))
        """)
        assert before == ["DET201"]
        assert after == []


class TestDet101Fix:
    def test_random_random_becomes_named_stream(self, tmp_path):
        before, after = rules_before_and_after(tmp_path, """
            import random

            def make(seed):
                rng = random.Random(seed)
                return rng.random()
        """, """
            from repro.sim.rng import RngStreams

            def make(seed):
                rng = RngStreams(seed).stream("rng")
                return rng.random()
        """)
        assert before == ["DET101"]
        assert after == []

    def test_import_not_duplicated(self, tmp_path):
        # importing RngStreams beside the raw use does not hide it: the
        # one raw construction is flagged once
        write(tmp_path, "src/mod.py", """
            import random
            from repro.sim.rng import RngStreams

            def make(seed):
                rng = random.Random(seed)
                return rng.random()
        """)
        assert [f.rule for f in run_det(tmp_path).findings] == ["DET101"]

    def test_bare_random_call_not_touched(self, tmp_path):
        # random.random() has no one-line rewrite; the hint names the
        # seeded streams to draw from instead
        write(tmp_path, "src/mod.py", """
            import random

            def jitter():
                return random.random()
        """)
        findings = run_det(tmp_path).findings
        assert [f.rule for f in findings] == ["DET101"]
        assert "RngStreams" in findings[0].hint


class TestProposalMechanics:
    def test_dry_run_does_not_modify_files(self, tmp_path):
        path = write(tmp_path, "src/mod.py", """
            def order(items):
                seen = set(items)
                return list(seen)
        """)
        before = path.read_bytes()
        assert main(["--root", str(tmp_path)]) == 1
        assert path.read_bytes() == before

    def test_diff_is_unified_format(self, tmp_path):
        # the rendered finding is the one line a reader acts on:
        # path:line:col, rule, severity, message and the fix hint
        write(tmp_path, "src/mod.py", """
            def order(items):
                seen = set(items)
                return list(seen)
        """)
        (finding,) = run_det(tmp_path).findings
        rendered = finding.render()
        assert rendered.startswith(f"src/mod.py:{finding.line}:")
        assert "DET201 [error]" in rendered
        assert rendered.endswith("(fix: " + finding.hint + ")")
        assert "sorted(" in finding.hint

    def test_clean_source_proposes_nothing(self, tmp_path):
        write(tmp_path, "src/mod.py", "def f():\n    return 1\n")
        report = run_det(tmp_path)
        assert report.findings == []
        assert report.suppressed == 0

    def test_fixed_file_still_parses(self, tmp_path):
        fixed = """
            from repro.sim.rng import RngStreams

            def pick(items, seed):
                chosen = set(items)
                rng = RngStreams(seed).stream("rng")
                order = [x for x in sorted(chosen)]
                for item in sorted(chosen):
                    order.append(item)
                return rng, order, sorted(chosen)
        """
        ast.parse(textwrap.dedent(fixed))
        before, after = rules_before_and_after(tmp_path, """
            import random

            def pick(items, seed):
                chosen = set(items)
                rng = random.Random(seed)
                order = [x for x in chosen]
                for item in chosen:
                    order.append(item)
                return rng, order, list(chosen)
        """, fixed)
        assert sorted(before) == ["DET101", "DET201", "DET201", "DET201"]
        assert after == []


def test_clean_repo_tree_proposes_zero_edits(tmp_path, capsys):
    """The CI invocation's default paths (src, tests, benchmarks) all
    resolve against --root, and a clean tree passes with exit 0."""
    for rel in ("src/mod.py", "tests/test_mod.py", "benchmarks/bench.py"):
        write(tmp_path, rel, "def f():\n    return 1\n")
    assert main(["--root", str(tmp_path)]) == 0
    assert "3 files scanned" in capsys.readouterr().out
