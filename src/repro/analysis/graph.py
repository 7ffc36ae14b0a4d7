"""Module and import-graph extraction for the whole-program passes.

The architecture pass (:mod:`repro.analysis.arch`) reasons about three
different kinds of import edge, because each has different layering
semantics:

* **top-level** — a module-scope ``import``/``from``: a hard, load-time
  dependency.  These are the edges that must respect the declared layer
  DAG and must never form cycles.
* **lazy** — an import inside a function or method body: a run-time
  upward call.  The repo uses these deliberately at a handful of
  dispatch points (e.g. ``resume_campaign`` re-entering the subsystem
  that wrote a checkpoint), so they are reported at a lower severity
  and suppressed in place with a pragma carrying the rationale.
* **TYPE_CHECKING** — inside an ``if TYPE_CHECKING:`` block: erased at
  run time, invisible to layering entirely.

Everything in this module is purely syntactic — no imports are executed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class ImportEdge:
    """One import statement naming one target module."""

    target: str
    line: int
    col: int
    #: inside a function/method body (run-time upward call)
    lazy: bool = False
    #: inside an ``if TYPE_CHECKING:`` block (erased at run time)
    type_checking: bool = False
    #: ``from pkg import name`` — ``name`` may be a submodule or a mere
    #: attribute; the graph resolves it against scanned modules, and the
    #: layer check treats it conservatively
    maybe_attribute: bool = False
    #: stripped source text of the import line (a finding's ``text``)
    text: str = ""


@dataclass
class ModuleInfo:
    """One scanned source file as a node of the module graph."""

    path: str
    module: str
    edges: List[ImportEdge] = field(default_factory=list)

    def package(self, root: str) -> Optional[str]:
        """Top-level package under ``root`` ("repro.core.x" -> "core").

        Returns ``None`` for modules outside the root package (tests,
        benchmarks) and ``""`` for the root package itself.
        """
        parts = self.module.split(".")
        if parts[0] != root:
            return None
        if len(parts) == 1:
            return ""
        return parts[1]


def module_name_for(rel_path: str) -> str:
    """Dotted module name for a repo-relative posix path.

    Source roots are stripped (``src/repro/sim/kernel.py`` →
    ``repro.sim.kernel``); ``__init__.py`` names its package.
    """
    name = rel_path
    if name.startswith("src/"):
        name = name[len("src/"):]
    if name.endswith(".py"):
        name = name[:-3]
    if name.endswith("/__init__"):
        name = name[: -len("/__init__")]
    return name.replace("/", ".")


def _is_type_checking_test(test: ast.AST) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


class _ImportCollector(ast.NodeVisitor):
    """Walk one module AST recording every import edge."""

    def __init__(self, module: str, is_package: bool,
                 source_lines: Sequence[str]) -> None:
        self._module = module
        self._is_package = is_package
        self._lines = source_lines
        self._depth = 0
        self._type_checking = 0
        self.edges: List[ImportEdge] = []

    def _text(self, line: int) -> str:
        if 1 <= line <= len(self._lines):
            return self._lines[line - 1].strip()
        return ""

    def _add(self, target: str, node: ast.AST,
             maybe_attribute: bool = False) -> None:
        line = getattr(node, "lineno", 1)
        self.edges.append(
            ImportEdge(
                target=target,
                line=line,
                col=getattr(node, "col_offset", 0),
                lazy=self._depth > 0,
                type_checking=self._type_checking > 0,
                maybe_attribute=maybe_attribute,
                text=self._text(line),
            )
        )

    def _resolve_relative(self, level: int, module: Optional[str]) -> Optional[str]:
        # the package context a relative import resolves against
        parts = self._module.split(".")
        if not self._is_package:
            parts = parts[:-1]
        if level - 1 > len(parts):
            return None
        if level > 1:
            parts = parts[: len(parts) - (level - 1)]
        if module:
            parts = parts + module.split(".")
        return ".".join(parts) if parts else None

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._add(alias.name, node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0:
            base = node.module or ""
        else:
            base = self._resolve_relative(node.level, node.module)
            if base is None:
                return
        if node.module is None and node.level:
            # `from . import x, y` — each name is itself a module
            for alias in node.names:
                self._add(f"{base}.{alias.name}" if base else alias.name, node)
            return
        self._add(base, node)
        # `from pkg import name`: name may be a submodule (a real import
        # of pkg.name) or an attribute — record candidates, resolved
        # against the scanned module set / declared contract downstream
        for alias in node.names:
            if alias.name != "*":
                self._add(f"{base}.{alias.name}" if base else alias.name,
                          node, maybe_attribute=True)

    def _enter_body(self, node) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_FunctionDef = _enter_body
    visit_AsyncFunctionDef = _enter_body
    visit_Lambda = _enter_body

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking_test(node.test):
            self._type_checking += 1
            for stmt in node.body:
                self.visit(stmt)
            self._type_checking -= 1
            for stmt in node.orelse:
                self.visit(stmt)
            return
        self.generic_visit(node)


def collect_imports(
    tree: ast.AST, rel_path: str, source_lines: Sequence[str]
) -> ModuleInfo:
    """Extract every import edge of one parsed module."""
    module = module_name_for(rel_path)
    collector = _ImportCollector(
        module, rel_path.endswith("__init__.py"), source_lines
    )
    collector.visit(tree)
    return ModuleInfo(path=rel_path, module=module, edges=collector.edges)


# -- whole-program graph -------------------------------------------------


class ModuleGraph:
    """Import graph over a set of scanned modules.

    Edges are resolved against the scanned module set: ``from repro.exec
    import pool`` records ``repro.exec`` *and* — when ``repro.exec.pool``
    is a scanned module — the submodule, so layering sees through
    package-attribute imports.
    """

    def __init__(self, infos: Iterable[ModuleInfo]) -> None:
        self.infos: List[ModuleInfo] = sorted(infos, key=lambda i: i.path)
        self.by_module: Dict[str, ModuleInfo] = {
            info.module: info for info in self.infos
        }

    def resolve(self, edge: ImportEdge) -> List[str]:
        """Scanned modules an edge may load (nearest enclosing included)."""
        out = []
        target = edge.target
        if target in self.by_module:
            out.append(target)
        # importing repro.core.campaign also loads repro.core and repro
        parts = target.split(".")
        for i in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:i])
            if prefix in self.by_module:
                out.append(prefix)
        return out

    def adjacency(
        self, *, include_lazy: bool = False
    ) -> Dict[str, Set[str]]:
        """module -> imported scanned modules (type-checking edges never
        count; lazy edges only when asked for)."""
        adj: Dict[str, Set[str]] = {info.module: set() for info in self.infos}
        for info in self.infos:
            for edge in info.edges:
                if edge.type_checking:
                    continue
                if edge.lazy and not include_lazy:
                    continue
                for target in self.resolve(edge):
                    if target == info.module:
                        continue
                    if info.module.startswith(target + "."):
                        # importing a sibling implies this module's own
                        # ancestor package — the facade pattern, safe
                        # under partial initialization, not a cycle edge
                        continue
                    adj[info.module].add(target)
        return adj

    def cycles(self) -> List[List[str]]:
        """Strongly connected components of size > 1 in the **top-level**
        import graph, each sorted and the list sorted — deterministic
        output for stable reports."""
        adj = self.adjacency(include_lazy=False)
        order: List[str] = []
        seen: Set[str] = set()
        # iterative Kosaraju: first pass, finish order
        for start in sorted(adj):
            if start in seen:
                continue
            stack: List[Tuple[str, Iterable]] = [(start, iter(sorted(adj[start])))]
            seen.add(start)
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append((nxt, iter(sorted(adj[nxt]))))
                        advanced = True
                        break
                if not advanced:
                    order.append(node)
                    stack.pop()
        # reversed graph, second pass
        radj: Dict[str, Set[str]] = {m: set() for m in adj}
        for src, targets in adj.items():
            for dst in targets:
                radj[dst].add(src)
        assigned: Set[str] = set()
        components: List[List[str]] = []
        for start in reversed(order):
            if start in assigned:
                continue
            component = []
            stack2 = [start]
            assigned.add(start)
            while stack2:
                node = stack2.pop()
                component.append(node)
                for nxt in sorted(radj[node]):
                    if nxt not in assigned:
                        assigned.add(nxt)
                        stack2.append(nxt)
            if len(component) > 1:
                components.append(sorted(component))
        components.sort()
        return components
