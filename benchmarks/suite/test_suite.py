"""Self-test of the benchmark suite: ``python -m pytest benchmarks/suite``.

Runs ``run.py`` at ``--smoke`` sizes in subprocesses and checks its
contract: every declared metric is printed with its unit, each traced
prefix reproduces the entry point's digest, the same seed gives the same
digest and another seed a different one, the trace covers at least 95 %
of its wall time, a wrong digest fails the run, and the profiler charges
a generator process to the layer that defines it.
"""

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
RUN = os.path.join(SUITE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [workload["name"] for workload in BENCH["workloads"]]


def _invoke(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True,
        timeout=300, check=False,
    )
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


@functools.lru_cache(maxsize=None)
def smoke(workload, *extra):
    """(exit code, stdout lines, result object) of one smoke run."""
    code, lines, stderr = _invoke([RUN, "--smoke", "--workload", workload,
                                   *extra])
    assert lines, stderr
    return code, lines, json.loads(lines[-1])


def printed(lines):
    """``{name: unit}`` of every ``metric <name> <value> <unit>`` line."""
    out = {}
    for line in lines:
        parts = line.split()
        if parts[:1] == ["metric"]:
            float(parts[2])
            out[parts[1]] = parts[3]
    return out


def shas(lines, tag):
    return [line.split() for line in lines if line.startswith(f"sha256 {tag}")]


def declared(kind):
    return {metric["name"]: metric["unit"] for metric in BENCH[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    code, lines, result = smoke(workload, "--seed", "0")
    assert code == 0 and result["correct"], lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert printed(lines) == declared("end_to_end")
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == declared("end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_prefix_reproduces_the_entry_point(workload):
    code, lines, result = smoke(workload, "--trace")
    assert code == 0 and result["correct"], lines
    assert printed(lines) == declared("per_layer")
    pairs = shas(lines, "trace")
    assert pairs and all(fields[2] == fields[4] for fields in pairs)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["trace.coverage"] >= 0.95
    assert metrics["other.share"] <= 0.05
    assert metrics["trace.items"] == result["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_digest_other_seed_other_digest(workload):
    first = shas(smoke(workload, "--seed", "0")[1], "batch0")[0][2]
    again = shas(_invoke([RUN, "--smoke", "--workload", workload,
                          "--seed", "0"])[1], "batch0")[0][2]
    other = shas(smoke(workload, "--seed", "1")[1], "batch0")[0][2]
    assert first == again
    assert first != other


def test_default_seed_matches_the_committed_smoke_digest():
    with open(os.path.join(SUITE, "catalogue.json"), encoding="utf-8") as fh:
        catalogue = json.load(fh)
    for workload in WORKLOADS:
        fields = shas(smoke(workload, "--seed", "0")[1], "batch0")[0]
        assert fields[2] == catalogue["workloads"][workload][
            "expected_sha256"]["smoke"]


def _copy_checkout(tmp_path, with_source=True):
    """BENCHMARK.json and the suite (and ``src``) copied under ``tmp_path``."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    ignore = shutil.ignore_patterns("__pycache__", ".work")
    for path in BENCH["paths"] + (["src"] if with_source else []):
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=ignore)
    return os.path.join("benchmarks", "suite", "run.py")


def test_forced_digest_mismatch_fails_every_item(tmp_path):
    run = _copy_checkout(tmp_path)
    catalogue_path = tmp_path / "benchmarks" / "suite" / "catalogue.json"
    catalogue = json.loads(catalogue_path.read_text(encoding="utf-8"))
    catalogue["workloads"]["comms_outage"]["expected_sha256"]["smoke"] = "0" * 64
    catalogue_path.write_text(json.dumps(catalogue), encoding="utf-8")
    code, lines, _ = _invoke([run, "--smoke", "--workload", "comms_outage",
                              "--seed", "0"], cwd=str(tmp_path))
    result = json.loads(lines[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_flexray_cycle_process_is_charged_to_network(tmp_path):
    sys.path[:0] = [SUITE, os.path.join(ROOT, "src")]
    try:
        from ledger import LayerProfiler
        from workloads import CommsOutage
    finally:
        del sys.path[:2]

    layers = set()

    class Recording(LayerProfiler):
        def account(self, callback, elapsed):
            super().account(callback, elapsed)
            owner = getattr(callback, "__self__", None)
            if getattr(owner, "name", "") == "flexray_chassis.cycle":
                layers.add(self.layer_of(callback))

    profiler = Recording()
    workload = CommsOutage(0, {"batch": 40, "trace_batches": 1}, str(tmp_path))
    sim, _ = workload._build(0, profiler=profiler)
    sim.run()
    assert layers == {"network"}
    assert profiler.seconds["network"] > profiler.seconds["sim"]


def test_list_prints_the_catalogue():
    code, lines, _ = _invoke([RUN, "--list"])
    assert code == 0
    text = "\n".join(lines)
    for name in WORKLOADS:
        assert f"workload {name}" in text
    for name in declared("end_to_end").keys() | declared("per_layer").keys():
        assert f" {name} [" in text


def test_fails_without_the_source_tree(tmp_path):
    run = _copy_checkout(tmp_path, with_source=False)
    code, lines, _ = _invoke([run, "--workload", WORKLOADS[0], "--seed", "1"],
                             cwd=str(tmp_path))
    assert code != 0
    assert not lines or not lines[-1].startswith("{")
