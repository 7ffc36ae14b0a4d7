"""Guard: the event path never drops a handle it was given.

``Simulator.schedule`` and ``Simulator.at`` return a cancellable handle
that is built fresh and never reused.  A call site that throws the handle
away should say so: ``sim.post(...)`` for a relative fire-and-forget
event, ``sim.at(...).pooled = True`` for an absolute one.  Both hand the
call back to the queue's free list after dispatch.  This test fails on
any ``.schedule(...)`` or ``.at(...)`` call used as a bare expression
statement in the kernel, network, middleware and OSAL packages.
"""

import ast
from pathlib import Path

import repro

PACKAGES = ("sim", "network", "middleware", "osal")
HANDLE_METHODS = frozenset({"schedule", "at"})


def dropped_handles():
    root = Path(repro.__file__).parent
    for package in PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr in HANDLE_METHODS
                ):
                    rel = path.relative_to(root.parent).as_posix()
                    yield f"{rel}:{node.lineno}: {ast.unparse(node)}"


def test_no_bare_schedule_or_at_statements():
    found = list(dropped_handles())
    assert found == [], "handles dropped without release:\n" + "\n".join(found)


def test_guard_sees_a_planted_site(tmp_path, monkeypatch):
    pkg = tmp_path / "repro"
    for package in PACKAGES:
        (pkg / package).mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "sim" / "planted.py").write_text(
        "def f(sim, cb):\n"
        "    sim.schedule(1.0, cb)\n"
        "    sim.at(2.0, cb).pooled = True\n"
        "    sim.post(1.0, cb)\n"
        "    handle = sim.at(3.0, cb)\n"
        "    return handle\n"
    )
    monkeypatch.setattr(repro, "__file__", str(pkg / "__init__.py"))
    assert list(dropped_handles()) == [
        "repro/sim/planted.py:2: sim.schedule(1.0, cb)"
    ]
