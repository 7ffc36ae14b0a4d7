"""Smoke test of the call counter in ``callcount.py``."""

import importlib

import pytest

import callcount


def test_fleet_soak_calls_per_job():
    counts = callcount.drive_fleet_soak(vehicles=2, warm=1)
    by_name = {}
    for (_path, _line, name), calls in counts.in_package().items():
        by_name[name] = by_name.get(name, 0) + calls
    # a job is one release, and every release is one activation
    assert counts.jobs == by_name["submit_task_activation"] > 0
    # activations run in trains: a heap dispatch of ``_activate``
    # releases many jobs
    assert by_name["_activate"] * 10 < counts.jobs
    assert 10 < counts.per_job < 100
    # deterministic driver, deterministic counts
    again = callcount.drive_fleet_soak(vehicles=2, warm=1)
    assert again.by_site == counts.by_site


def test_comms_outage_calls_and_pushes_per_message():
    counts = callcount.drive_comms_outage(rounds=8, warm=4)
    # six flows a round; the camera pauses for rounds 2..5 of the outage
    assert counts.jobs == 6 * 8 - 4
    assert 0 < counts.heap_pushes < 40 * counts.jobs
    assert 50 < counts.per_job < 1000
    again = callcount.drive_comms_outage(rounds=8, warm=4)
    assert again.by_site == counts.by_site


@pytest.mark.parametrize("rounds, warm", [(3, 4), (8, 1), (8, 3), (0, 0)])
def test_comms_outage_refuses_short_batches(rounds, warm):
    with pytest.raises(ValueError, match="at least 4 rounds"):
        callcount.drive_comms_outage(rounds=rounds, warm=warm)


def test_unreached_lists_what_the_driver_never_called(tmp_path, monkeypatch):
    package = tmp_path / "callcount_pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        "def used():\n"
        "    return [x for x in range(3)]\n"
        "\n"
        "class Thing:\n"
        "    def unused(self):\n"
        "        return lambda: 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    mod = importlib.import_module("callcount_pkg.mod")
    _, counts = callcount.count_calls(mod.used)
    missed = callcount.unreached(counts, str(package))
    assert [(line, name) for _path, line, name in missed] == [(5, "unused")]


def test_script_report(tmp_path):
    script = tmp_path / "drive.py"
    script.write_text("from repro.sim import Simulator\n"
                      "Simulator().run(until=1.0)\n")
    out = callcount.report(callcount.drive_script(str(script)),
                           show_unreached=True)
    assert out["jobs"] is None and out["calls"] > out["repro_calls"] > 0
    top = [label for label, _n in out["top"]]
    assert any(label.startswith("repro/sim/kernel.py:") and
               label.endswith(" run") for label in top)
    # an empty run reaches no OSAL code at all
    assert not any(label.startswith("repro/osal/") for label in top)
    assert any(label.startswith("repro/osal/core.py:") and
               label.endswith(" _activate") for label in out["unreached"])
