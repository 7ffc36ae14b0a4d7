"""Guard: per-event trace calls cost nothing while tracing is off.

``Simulator.trace(category, **fields)`` builds a kwargs dict at the call
site, so a bare call pays for it on every event even when the tracer
drops the record.  Call sites in the network, middleware and OSAL
packages therefore sit inside an ``if ….tracer.enabled:`` block.  This
test fails on any ``.trace(...)`` call there that is not in the body of
such a block.
"""

import ast
from pathlib import Path

import repro

PACKAGES = ("network", "middleware", "osal")
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _checks_tracer_enabled(test: ast.expr) -> bool:
    return (
        isinstance(test, ast.Attribute)
        and test.attr == "enabled"
        and isinstance(test.value, ast.Attribute)
        and test.value.attr == "tracer"
    )


def _scan(node: ast.AST, rel: str, guarded: bool):
    if isinstance(node, ast.If) and _checks_tracer_enabled(node.test):
        for child in node.body:
            yield from _scan(child, rel, True)
        for child in node.orelse:
            yield from _scan(child, rel, guarded)
        return
    if isinstance(node, _SCOPES):
        # a function defined under the guard may run after tracing stops
        guarded = False
    if (
        not guarded
        and isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "trace"
    ):
        yield f"{rel}:{node.lineno}: {ast.unparse(node.func)}(...)"
    for child in ast.iter_child_nodes(node):
        yield from _scan(child, rel, guarded)


def unguarded_traces():
    root = Path(repro.__file__).parent
    for package in PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            rel = path.relative_to(root.parent).as_posix()
            yield from _scan(tree, rel, False)


def test_every_trace_call_is_guarded():
    found = list(unguarded_traces())
    assert found == [], "trace calls outside a tracer.enabled guard:\n" + "\n".join(found)


def test_guard_sees_a_planted_site(tmp_path, monkeypatch):
    pkg = tmp_path / "repro"
    for package in PACKAGES:
        (pkg / package).mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "osal" / "planted.py").write_text(
        "def f(self, sim):\n"
        "    if sim.tracer.enabled:\n"
        "        sim.trace('ok', a=1)\n"
        "    else:\n"
        "        sim.trace('else_branch')\n"
        "    self.sim.trace('bare', b=2)\n"
        "    if self.sim.tracer.enabled:\n"
        "        self.sim.trace('ok_too')\n"
        "        def later():\n"
        "            sim.trace('deferred')\n"
        "    if sim.tracer.enabled and sim.verbose:\n"
        "        sim.trace('compound')\n"
    )
    monkeypatch.setattr(repro, "__file__", str(pkg / "__init__.py"))
    assert list(unguarded_traces()) == [
        "repro/osal/planted.py:5: sim.trace(...)",
        "repro/osal/planted.py:6: self.sim.trace(...)",
        "repro/osal/planted.py:10: sim.trace(...)",
        "repro/osal/planted.py:12: sim.trace(...)",
    ]
