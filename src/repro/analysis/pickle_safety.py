"""Fork/pickle-safety pass (``PICK5xx``).

Three subsystems move Python objects across serialization boundaries:

* the **worker pipe** — :class:`repro.jobs.SimJob`/``FunctionJob``
  payloads and the ``run_jobs(context=...)`` shared context are pickled
  into worker processes (``repro.exec.pool``);
* the **snapshot boundary** — ``sim.snapshot()``/``sim.fork()`` pickle
  everything reachable from the kernel, including ``sim.share(...)``
  roots and every scheduled callback (``repro.sim.snapshot``);
* the **checkpoint boundary** — ``CheckpointStore`` pickles the campaign
  plan and shard payloads to disk (``repro.exec.recovery``).

An unpicklable object reaching any of them fails at run time deep inside
a worker, long after the line that created the hazard.  This pass finds
those lines statically, with an intra-module dataflow over local
bindings, and names the boundary each capture would cross:

========  ==============================================================
PICK501   lambda / locally-defined function crosses a boundary
PICK502   locally-defined class (instance or bound method) crosses a
          boundary
PICK503   OS-backed resource (open file, lock, pipe/connection, socket,
          subprocess, generator) crosses a boundary
PICK511   closure scheduled as a simulator callback — unpicklable the
          moment that world is snapshotted or forked
========  ==============================================================

The dataflow is deliberately intra-procedural and first-order: a tainted
value must flow through local names into a boundary call within one
module.  That keeps the pass fast and nearly false-positive-free — the
same trade the DET201 set-dataflow made in PR 5.

One step reaches past a function body: calling a module-level function
that returns a function defined in its own body (a closure factory)
yields a local function.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from .detectors import Finding, Rule, SEVERITY_ERROR, SEVERITY_WARNING

PICKLE_RULES: Dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule(
            "PICK501",
            "lambda or local function crosses a serialization boundary",
            SEVERITY_ERROR,
            "move it to a module-level function so it pickles by "
            "reference",
        ),
        Rule(
            "PICK502",
            "locally-defined class crosses a serialization boundary",
            SEVERITY_ERROR,
            "define the class at module level so instances pickle by "
            "reference to an importable type",
        ),
        Rule(
            "PICK503",
            "OS resource crosses a serialization boundary",
            SEVERITY_ERROR,
            "ship the recipe, not the resource: pass a path/spec and "
            "open the file/lock/connection on the worker side",
        ),
        Rule(
            "PICK511",
            "closure scheduled as a simulator callback",
            SEVERITY_WARNING,
            "schedule a bound method or functools.partial instead; "
            "closures make the world unsnapshottable (deep-copy-atomic "
            "cells are shared between forks)",
        ),
    )
}

#: taint kinds flowing through local names
_LAMBDA = "lambda"
_LOCAL_FUNC = "local function"
_LOCAL_CLASS = "local class"
_LOCAL_INSTANCE = "instance of local class"
_GENERATOR = "generator"

#: (module, callable) -> resource description for PICK503
_RESOURCE_CALLS: Dict[Tuple[str, str], str] = {
    ("builtins", "open"): "open file handle",
    ("io", "open"): "open file handle",
    ("threading", "Lock"): "thread lock",
    ("threading", "RLock"): "thread lock",
    ("threading", "Condition"): "thread condition",
    ("threading", "Semaphore"): "thread semaphore",
    ("threading", "BoundedSemaphore"): "thread semaphore",
    ("threading", "Event"): "thread event",
    ("threading", "Barrier"): "thread barrier",
    ("threading", "local"): "thread-local storage",
    ("multiprocessing", "Pipe"): "multiprocessing pipe",
    ("multiprocessing", "Queue"): "multiprocessing queue",
    ("multiprocessing", "SimpleQueue"): "multiprocessing queue",
    ("multiprocessing", "Lock"): "multiprocessing lock",
    ("multiprocessing", "Semaphore"): "multiprocessing semaphore",
    ("multiprocessing", "Event"): "multiprocessing event",
    ("socket", "socket"): "socket",
    ("socket", "create_connection"): "socket",
    ("sqlite3", "connect"): "database connection",
    ("subprocess", "Popen"): "subprocess handle",
}

#: call names whose ``context=`` keyword ships to every worker
_CONTEXT_SINKS = frozenset(
    {"run_jobs", "run", "run_all", "run_jobs_checkpointed"}
)

#: scheduling methods whose callback becomes snapshot-reachable
_SCHEDULE_METHODS = frozenset({"schedule", "post", "at"})

#: base-class names marking a picklable job spec
_JOB_BASES = frozenset({"SimJob", "FunctionJob"})

BOUNDARY_WORKER_PAYLOAD = "the worker pipe (FunctionJob payload)"
BOUNDARY_WORKER_CONTEXT = "the worker pipe (run_jobs shared context)"
BOUNDARY_JOB_SPEC = "the worker pipe (job spec attribute)"
BOUNDARY_SNAPSHOT_SHARE = "the snapshot boundary (sim.share root)"
BOUNDARY_SNAPSHOT_CALLBACK = "the snapshot boundary (scheduled callback)"
BOUNDARY_CHECKPOINT = "the checkpoint boundary (CheckpointStore plan)"


class _PickleVisitor(ast.NodeVisitor):
    """One-module dataflow from unpicklable producers to boundaries."""

    def __init__(self, path: str, source_lines: List[str],
                 snapshot_used: bool = True,
                 factories: FrozenSet[str] = frozenset()) -> None:
        self.path = path
        self.lines = source_lines
        #: module-level functions returning a closure (see
        #: :func:`_closure_factories`)
        self.factories = factories
        #: module exercises the snapshot boundary — PICK511 only applies
        #: to callbacks that can actually be reached by a snapshot/fork
        self.snapshot_used = snapshot_used
        self.findings: List[Finding] = []
        self._modules: Dict[str, str] = {}
        self._from: Dict[str, Tuple[str, str]] = {}
        #: lexical scopes: local name -> taint kind (None = clean)
        self._scopes: List[Dict[str, Optional[str]]] = [{}]
        #: names of functions defined at *local* scope that are generators
        self._depth = 0
        #: class-body nesting: name of innermost class + whether it is a
        #: job spec (derives from SimJob/FunctionJob)
        self._class_stack: List[Tuple[str, bool]] = []
        #: True while visiting direct children of a class body, so a
        #: method is distinguishable from a function nested in a function
        self._direct_class_child = False
        self._stmt_end = 0

    def visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.stmt):
            self._stmt_end = (
                getattr(node, "end_lineno", None)
                or getattr(node, "lineno", 0)
            )
        super().visit(node)

    # -- bookkeeping -----------------------------------------------------

    def _line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def _report(self, rule_id: str, node: ast.AST, message: str) -> None:
        rule = PICKLE_RULES[rule_id]
        line = getattr(node, "lineno", 1)
        self.findings.append(
            Finding(
                rule=rule_id,
                severity=rule.severity,
                path=self.path,
                line=line,
                col=getattr(node, "col_offset", 0),
                message=message,
                hint=rule.hint,
                text=self._line_text(line),
                end_line=max(
                    getattr(node, "end_lineno", None) or line,
                    self._stmt_end,
                ),
            )
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._modules[alias.asname or alias.name.split(".")[0]] = (
                alias.name.split(".")[0]
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            self._from[alias.asname or alias.name] = (module, alias.name)
        self.generic_visit(node)

    # -- taint sources ---------------------------------------------------

    def _lookup(self, name: str) -> Optional[str]:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return None

    def _bind(self, target: ast.AST, taint: Optional[str]) -> None:
        if isinstance(target, ast.Name):
            self._scopes[-1][target.id] = taint

    def _resource_kind(self, node: ast.Call) -> Optional[str]:
        """Resource description when ``node`` constructs one."""
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "open":
                return _RESOURCE_CALLS[("builtins", "open")]
            bound = self._from.get(func.id)
            if bound is not None:
                return _RESOURCE_CALLS.get((bound[0], bound[1]))
            return None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            module = self._modules.get(func.value.id)
            if module is not None:
                return _RESOURCE_CALLS.get((module, func.attr))
        return None

    def _taint_of(self, node: ast.AST) -> Optional[str]:
        """Taint kind of an expression, or None when it looks picklable."""
        if isinstance(node, ast.Lambda):
            return _LAMBDA
        if isinstance(node, ast.GeneratorExp):
            return _GENERATOR
        if isinstance(node, ast.Name):
            return self._lookup(node.id)
        if isinstance(node, ast.Call):
            resource = self._resource_kind(node)
            if resource is not None:
                return resource
            if isinstance(node.func, ast.Name):
                taint = self._lookup(node.func.id)
                if taint == _LOCAL_CLASS:
                    return _LOCAL_INSTANCE
                if taint == _LOCAL_FUNC and self._lookup(
                    f"{node.func.id}\0generator"
                ):
                    return _GENERATOR
                if taint is None and node.func.id in self.factories:
                    return _LOCAL_FUNC
            return None
        if isinstance(node, ast.Attribute):
            # a bound method / attribute of a tainted object is tainted
            if isinstance(node.value, ast.Name):
                return self._lookup(node.value.id)
            return None
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                taint = self._taint_of(element)
                if taint is not None:
                    return taint
            return None
        if isinstance(node, ast.Dict):
            for value in list(node.keys) + list(node.values):
                if value is not None:
                    taint = self._taint_of(value)
                    if taint is not None:
                        return taint
            return None
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        taint = self._taint_of(node.value)
        for target in node.targets:
            self._bind(target, taint)
            if isinstance(target, ast.Tuple):
                # open() in tuple unpacking: conn, _ = Pipe()
                for element in target.elts:
                    self._bind(element, taint)
        self._check_spec_store(node, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if node.value is not None:
            self._bind(node.target, self._taint_of(node.value))
            self._check_spec_store(node, node.value)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            taint = self._taint_of(item.context_expr)
            if item.optional_vars is not None:
                self._bind(item.optional_vars, taint)
        self.generic_visit(node)

    # -- local definitions -----------------------------------------------

    def _visit_function(self, node) -> None:
        if self._depth > 0 and not self._direct_class_child:
            self._scopes[-1][node.name] = _LOCAL_FUNC
            if any(
                isinstance(sub, (ast.Yield, ast.YieldFrom))
                for sub in ast.walk(node)
            ):
                # side table: calling this local function makes a generator
                self._scopes[-1][f"{node.name}\0generator"] = _GENERATOR
        self._depth += 1
        self._scopes.append({})
        was_class_child, self._direct_class_child = (
            self._direct_class_child, False,
        )
        self.generic_visit(node)
        self._direct_class_child = was_class_child
        self._scopes.pop()
        self._depth -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _is_job_base(self, base: ast.AST) -> bool:
        if isinstance(base, ast.Name):
            return base.id in _JOB_BASES
        return isinstance(base, ast.Attribute) and base.attr in _JOB_BASES

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._depth > 0:
            self._scopes[-1][node.name] = _LOCAL_CLASS
        is_job = any(self._is_job_base(base) for base in node.bases)
        self._class_stack.append((node.name, is_job))
        self._scopes.append({})
        was_class_child, self._direct_class_child = (
            self._direct_class_child, True,
        )
        self.generic_visit(node)
        self._direct_class_child = was_class_child
        self._scopes.pop()
        self._class_stack.pop()

    # -- boundaries ------------------------------------------------------

    def _in_job_spec(self) -> bool:
        return bool(self._class_stack) and self._class_stack[-1][1]

    def _enclosing_job_spec(self) -> Optional[str]:
        for name, is_job in reversed(self._class_stack):
            if is_job:
                return name
        return None

    def _rule_for(self, taint: str) -> str:
        if taint in (_LAMBDA, _LOCAL_FUNC):
            return "PICK501"
        if taint in (_LOCAL_CLASS, _LOCAL_INSTANCE):
            return "PICK502"
        return "PICK503"

    def _flag(self, node: ast.AST, taint: str, boundary: str,
              what: str) -> None:
        self._report(
            self._rule_for(taint), node,
            f"{taint} {what} would cross {boundary}",
        )

    def _check_spec_store(self, stmt: ast.stmt, value: ast.AST) -> None:
        """``self.attr = <tainted>`` inside a SimJob subclass method."""
        spec = self._enclosing_job_spec()
        if spec is None:
            return
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                taint = self._taint_of(value)
                if taint is not None:
                    self._flag(
                        stmt, taint, BOUNDARY_JOB_SPEC,
                        f"stored on job spec {spec!r} as "
                        f"self.{target.attr}",
                    )
                return

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr

        if name == "FunctionJob":
            for arg in node.args[1:]:
                taint = self._taint_of(arg)
                if taint is not None:
                    self._flag(arg, taint, BOUNDARY_WORKER_PAYLOAD,
                               "in a FunctionJob payload")
            for keyword in node.keywords:
                if keyword.value is not None:
                    taint = self._taint_of(keyword.value)
                    if taint is not None:
                        self._flag(keyword.value, taint,
                                   BOUNDARY_WORKER_PAYLOAD,
                                   "in a FunctionJob payload")
        elif name in _CONTEXT_SINKS:
            for keyword in node.keywords:
                if keyword.arg == "context":
                    taint = self._taint_of(keyword.value)
                    if taint is not None:
                        self._flag(keyword.value, taint,
                                   BOUNDARY_WORKER_CONTEXT,
                                   "as the shared context")
        elif name == "share" and isinstance(func, ast.Attribute):
            for arg in node.args:
                taint = self._taint_of(arg)
                if taint is not None:
                    self._flag(arg, taint, BOUNDARY_SNAPSHOT_SHARE,
                               "declared as shared immutable structure")
        elif name == "CheckpointStore":
            for arg in list(node.args) + [
                k.value for k in node.keywords if k.value is not None
            ]:
                taint = self._taint_of(arg)
                if taint is not None:
                    self._flag(arg, taint, BOUNDARY_CHECKPOINT,
                               "in the checkpoint manifest")
        elif (
            name in _SCHEDULE_METHODS
            and isinstance(func, ast.Attribute)
            and len(node.args) >= 2
        ):
            callback = node.args[1]
            taint = self._taint_of(callback)
            if not self.snapshot_used:
                pass  # world is never snapshotted: no boundary to cross
            elif isinstance(callback, ast.Lambda) or taint in (
                _LAMBDA, _LOCAL_FUNC,
            ):
                rule = PICKLE_RULES["PICK511"]
                line = getattr(callback, "lineno", 1)
                self.findings.append(
                    Finding(
                        rule="PICK511",
                        severity=rule.severity,
                        path=self.path,
                        line=line,
                        col=getattr(callback, "col_offset", 0),
                        message=(
                            "closure scheduled as a simulator callback "
                            f"becomes part of {BOUNDARY_SNAPSHOT_CALLBACK}"
                        ),
                        hint=rule.hint,
                        text=self._line_text(line),
                        end_line=max(
                            getattr(node, "end_lineno", None) or line,
                            self._stmt_end,
                        ),
                    )
                )
            elif taint is not None:
                self._flag(callback, taint, BOUNDARY_SNAPSHOT_CALLBACK,
                           "scheduled as a simulator callback")
        self.generic_visit(node)


def _own_statements(func: ast.AST) -> Iterator[ast.AST]:
    """The nodes of ``func``'s body outside any nested scope."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _closure_factories(tree: ast.AST) -> FrozenSet[str]:
    """Names of the module-level functions that return a lambda or a
    function defined in their own body: each call makes a closure."""
    factories = set()
    for func in getattr(tree, "body", ()):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(_own_statements(func))
        local = {node.name for node in nodes
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for node in nodes:
            value = node.value if isinstance(node, ast.Return) else None
            if isinstance(value, ast.Lambda) or (
                    isinstance(value, ast.Name) and value.id in local):
                factories.add(func.name)
    return frozenset(factories)


def _uses_snapshot_boundary(tree: ast.AST) -> bool:
    """True when the module snapshots/forks a world (or imports the
    snapshot machinery), i.e. its scheduled callbacks are actually
    pickle-reachable."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in (
                "snapshot", "fork", "restore",
            ):
                return True
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            names = ".".join(
                [module] + [alias.name for alias in node.names]
            )
            if "snapshot" in names:
                return True
    return False


def check_pickle_safety(
    tree: ast.AST, path: str, source_lines: List[str]
) -> List[Finding]:
    """Run the fork/pickle-safety pass over one parsed module."""
    visitor = _PickleVisitor(
        path, source_lines, snapshot_used=_uses_snapshot_boundary(tree),
        factories=_closure_factories(tree),
    )
    visitor.visit(tree)
    visitor.findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return visitor.findings
