"""Golden-file tests pinning the schema-2 analysis report.

One golden per new rule family (PICK5xx, ARCH6xx, RACE7xx), each
produced from a fixed fixture tree, plus the invariant that two runs
over one tree serialize byte-identically.  Regenerate after a
deliberate schema change with

    PYTHONPATH=src python tests/analysis/test_analysis_schema.py
"""

import json
import os
import textwrap

from repro.analysis.lint import run_analysis

HERE = os.path.dirname(__file__)
GOLDENS = {
    "pickle-safety": os.path.join(HERE, "golden_pickle_report.json"),
    "arch": os.path.join(HERE, "golden_arch_report.json"),
    "races": os.path.join(HERE, "golden_races_report.json"),
}

#: one fixture tree exercising all three families (and a pragma each)
FIXTURE = {
    "src/repro/sim/racer.py": """
        class Beacon:
            def start(self, sim):
                sim.schedule(0.5, self.mark)
                sim.schedule(0.5, self.clear)
                sim.schedule(0.5, self.blip)  # repro: allow[RACE701]

            def mark(self):
                self.flag = 1

            def clear(self):
                self.flag = 0

            def blip(self):
                self.flag = 2
        """,
    "src/repro/sim/leaky.py": """
        from repro.exec.pool import run_jobs

        def launch(jobs):
            return run_jobs(jobs, context=lambda: 1)
        """,
    "src/repro/exec/builder.py": """
        def build(run):
            handle = open("trace.bin")
            return FunctionJob("j", run, handle)
        """,
}


def build_report(root, passes):
    for rel, source in FIXTURE.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(textwrap.dedent(source))
    return run_analysis(["src"], root, passes=passes)


class TestGoldenReports:
    def test_pickle_report_matches_golden(self, tmp_path):
        report = build_report(str(tmp_path), ["pickle-safety"])
        with open(GOLDENS["pickle-safety"], encoding="utf-8") as fh:
            assert report.to_dict() == json.load(fh)

    def test_arch_report_matches_golden(self, tmp_path):
        report = build_report(str(tmp_path), ["arch"])
        with open(GOLDENS["arch"], encoding="utf-8") as fh:
            assert report.to_dict() == json.load(fh)

    def test_races_report_matches_golden(self, tmp_path):
        report = build_report(str(tmp_path), ["races"])
        with open(GOLDENS["races"], encoding="utf-8") as fh:
            assert report.to_dict() == json.load(fh)


class TestSchemaInvariants:
    def test_schema_version_is_two(self, tmp_path):
        payload = build_report(str(tmp_path), ["arch"]).to_dict()
        assert payload["schema"] == 2
        assert payload["passes"] == ["arch"]

    def test_by_family_counts_match_findings(self, tmp_path):
        report = build_report(
            str(tmp_path), ["det", "pickle-safety", "arch", "races"]
        )
        payload = report.to_dict()
        by_family = payload["summary"]["by_family"]
        total = sum(
            counts["errors"] + counts["warnings"]
            for counts in by_family.values()
        )
        assert total == len(report.findings)
        assert set(by_family) == {"DET", "PICK", "ARCH", "RACE"}

    def test_rules_catalogue_matches_passes(self, tmp_path):
        payload = build_report(str(tmp_path), ["races"]).to_dict()
        assert set(payload["rules"]) == {"RACE701", "RACE702"}

    def test_cached_report_serializes_identically(self, tmp_path):
        """Two runs over one tree serialize byte-identically."""
        passes = ["det", "pickle-safety", "arch", "races"]
        first = build_report(str(tmp_path), passes)
        second = run_analysis(["src"], str(tmp_path), passes=passes)
        assert first.findings
        assert first.to_json() == second.to_json()


if __name__ == "__main__":
    import tempfile

    for pass_name, golden_path in GOLDENS.items():
        with tempfile.TemporaryDirectory() as root:
            payload = build_report(root, [pass_name]).to_json()
        with open(golden_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
            fh.write("\n")
        print(f"regenerated {golden_path}")
