"""A run is a pure function of the scanned tree.

Every run parses every file afresh, so two runs over one tree must
serialize byte for byte alike, an edit to one file may change only that
file's findings, the pass set and layer contract must show in the
report, and the analysis must leave the tree exactly as it found it.
"""

import json
import os

from repro.analysis.__main__ import main
from repro.analysis.arch import LayerContract
from repro.analysis.lint import run_analysis

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)

HAZARD = (
    "import random\n"
    "\n"
    "def jitter():\n"
    "    return random.random()\n"
)

CLEAN = "def f():\n    return 1\n"


def write(root, rel, content):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


def tree_listing(root):
    """Every file under ``root`` with its bytes."""
    out = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


class TestByteIdentical:
    def test_cold_warm_and_uncached_reports_match(self, tmp_path):
        write(tmp_path, "src/a.py", HAZARD)
        write(tmp_path, "src/b.py", CLEAN)
        root = str(tmp_path)
        first = run_analysis(["src"], root)
        second = run_analysis(["src"], root)
        assert len(first.findings) == 1
        assert first.to_json() == second.to_json()

    def test_one_file_edit_reanalyzes_only_that_file(self, tmp_path):
        write(tmp_path, "src/a.py", HAZARD)
        write(tmp_path, "src/b.py", CLEAN)
        root = str(tmp_path)
        before = run_analysis(["src"], root)

        write(tmp_path, "src/b.py", CLEAN + "\n" + HAZARD)
        after = run_analysis(["src"], root)
        a_before = [f for f in before.findings if f.path == "src/a.py"]
        a_after = [f for f in after.findings if f.path == "src/a.py"]
        assert a_after == a_before
        assert [f.path for f in after.findings] == ["src/a.py", "src/b.py"]

    def test_real_repo_warm_run_identical_and_faster(self):
        # overlapping arguments scan each file once, in one sorted order
        whole = run_analysis(["src/repro"], REPO_ROOT)
        overlapping = run_analysis(
            ["src/repro/sim", "src/repro", "src/repro/sim/kernel.py"],
            REPO_ROOT,
        )
        assert whole.files_scanned > 0
        assert overlapping.to_json() == whole.to_json()


class TestInvalidation:
    def test_salt_changes_with_rule_or_contract_config(self, tmp_path):
        write(
            tmp_path, "src/repro/sim/mod.py",
            "from repro.exec.pool import run_jobs\n",
        )
        root = str(tmp_path)
        det = run_analysis(["src"], root, passes=["det"]).to_dict()
        both = run_analysis(["src"], root, passes=["det", "arch"]).to_dict()
        assert set(det["rules"]) < set(both["rules"])
        assert det["findings"] == []
        assert [f["rule"] for f in both["findings"]] == ["ARCH601"]

        permissive = LayerContract(
            layers={"sim": frozenset({"exec"}), "exec": frozenset()}
        )
        relaxed = run_analysis(
            ["src"], root, passes=["arch"], contract=permissive
        )
        assert relaxed.findings == []

    def test_torn_entry_is_a_miss_not_a_crash(self, tmp_path):
        # a file cut off mid-statement is a parse error for that file
        # only; every other file is still analysed
        write(tmp_path, "src/a.py", HAZARD)
        write(tmp_path, "src/torn.py", HAZARD[: len(HAZARD) // 2 + 3])
        report = run_analysis(["src"], str(tmp_path))
        assert len(report.parse_errors) == 1
        assert report.parse_errors[0].startswith("src/torn.py: ")
        assert [f.path for f in report.findings] == ["src/a.py"]

    def test_prune_removes_other_generations(self, tmp_path):
        # the analysis writes nothing beside the tree it reads
        write(tmp_path, "src/a.py", HAZARD)
        write(tmp_path, "src/b.py", CLEAN)
        before = tree_listing(str(tmp_path))
        run_analysis(["src"], str(tmp_path))
        assert main(["--root", str(tmp_path)]) == 1
        assert tree_listing(str(tmp_path)) == before

    def test_unwritable_cache_dir_degrades_gracefully(self, tmp_path):
        # dot-directories (editor, VCS or tool state) are never scanned
        write(tmp_path, "src/a.py", CLEAN)
        write(tmp_path, "src/.state/stale.py", HAZARD)
        report = run_analysis(["src"], str(tmp_path))
        assert report.files_scanned == 1
        assert report.findings == []

    def test_entries_are_sorted_json(self, tmp_path):
        write(tmp_path, "src/a.py", HAZARD)
        report = run_analysis(["src"], str(tmp_path))
        payload = json.loads(report.to_json())
        assert report.to_json() == json.dumps(
            payload, indent=2, sort_keys=True
        )
