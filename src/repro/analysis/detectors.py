"""AST detectors for determinism hazards.

Each detector flags one class of construct that can break the repo-wide
guarantee that ``(plan, seed)`` maps to a byte-identical timeline:

========  ==============================================================
DET101    raw RNG — ``random.*`` / ``numpy.random`` outside ``sim/rng.py``
DET102    wall clock — ``time.time``/``monotonic``, ``datetime.now`` & co.
DET201    unordered iteration — ``for``/comprehension/``list()`` over sets
DET202    hash-order sort keys — ``sorted(..., key=id)`` / ``key=hash``
DET301    environment read — ``os.environ`` / ``os.getenv``
DET401    mutable default — ``def f(x=[])`` and mutable dataclass fields
========  ==============================================================

Notes on scope:

* ``dict`` iteration is **not** flagged: insertion order is part of the
  language, and the codebase leans on it deliberately.  Sets (and
  ``frozenset``) have no defined order, and string hashes are randomised
  per process, so set iteration order differs *across* runs — exactly
  the kind of divergence the parallel executor's serial ≡ parallel
  contract cannot tolerate.
* ``time.perf_counter`` is deliberately exempt from DET102: it is the
  sanctioned way to *measure* wall time (profilers, benchmarks) and must
  never feed simulated state; feeding any wall clock into the simulation
  is what the rule exists to catch.
* ``sorted(<set>)`` is fine (sorting erases hash order) and is the
  canonical fix suggested by DET201's hint.

Every detector emits :class:`Finding` records carrying a rule id,
severity, message and fix-it hint; suppression via ``# repro: allow[...]``
pragmas lives in :mod:`repro.analysis.lint`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclass(frozen=True)
class Rule:
    """Static description of one hazard class."""

    rule_id: str
    title: str
    severity: str
    hint: str


RULES: Dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule(
            "DET101",
            "raw RNG bypasses seeded streams",
            SEVERITY_ERROR,
            "draw from a named RngStreams stream (repro.sim.rng) instead",
        ),
        Rule(
            "DET102",
            "wall-clock read in simulation code",
            SEVERITY_ERROR,
            "use Simulator.now for simulated time; time.perf_counter is "
            "allowed for measurement-only profiling",
        ),
        Rule(
            "DET201",
            "iteration over an unordered set",
            SEVERITY_ERROR,
            "iterate sorted(<set>) or keep an insertion-ordered dict/list",
        ),
        Rule(
            "DET202",
            "hash/id-order-dependent sort key",
            SEVERITY_ERROR,
            "sort by a stable domain key (name, sequence number), never "
            "id() or hash()",
        ),
        Rule(
            "DET301",
            "environment read on a reproducible path",
            SEVERITY_ERROR,
            "thread configuration through explicit spec/job parameters so "
            "it is captured by the (plan, seed) pair",
        ),
        Rule(
            "DET401",
            "mutable default argument or dataclass field",
            SEVERITY_ERROR,
            "default to None (or use dataclasses.field(default_factory=...))",
        ),
    )
}

#: (module, attr) pairs read as wall-clock time.  ``perf_counter`` is
#: intentionally absent — see the module docstring.
_WALL_CLOCK_TIME_ATTRS = frozenset(
    {"time", "time_ns", "monotonic", "monotonic_ns", "localtime", "ctime"}
)
_WALL_CLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: builtins whose set-argument iteration order leaks into the result
_ORDER_SENSITIVE_FUNCS = frozenset(
    {"list", "tuple", "enumerate", "iter", "next", "map", "filter", "zip"}
)

#: set methods returning another unordered set
_SET_COMBINATORS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)

#: path components that mark the kernel/executor reproducibility core,
#: where an environment read is an error rather than a warning
ENV_STRICT_COMPONENTS = frozenset({"sim", "exec", "osal", "faults", "analysis"})


@dataclass(frozen=True)
class Finding:
    """One hazard occurrence in one file."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    hint: str
    #: stripped source text of the flagged line
    text: str = ""
    #: last physical line of the flagged statement (pragma placement)
    end_line: int = 0

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: {self.rule} "
            f"[{self.severity}] {self.message} (fix: {self.hint})"
        )

    @property
    def family(self) -> str:
        """Rule family: the leading letters of the rule id (``DET``,
        ``PICK``, ``ARCH``, ``RACE``) — the unit of summary reporting."""
        return rule_family(self.rule)


def rule_family(rule_id: str) -> str:
    """Leading alphabetic prefix of a rule id (``PICK503`` -> ``PICK``)."""
    letters = []
    for char in rule_id:
        if char.isalpha():
            letters.append(char)
        else:
            break
    return "".join(letters) or rule_id


def _is_strict_env_path(path: str) -> bool:
    parts = path.replace("\\", "/").split("/")
    return any(part in ENV_STRICT_COMPONENTS for part in parts)


class HazardVisitor(ast.NodeVisitor):
    """Single-pass visitor running every detector over one module AST."""

    def __init__(
        self,
        path: str,
        source_lines: List[str],
        *,
        allow_raw_random: bool = False,
    ) -> None:
        self.path = path
        self.lines = source_lines
        self.allow_raw_random = allow_raw_random
        self.findings: List[Finding] = []
        #: local alias -> imported module name ("np" -> "numpy")
        self._modules: Dict[str, str] = {}
        #: local name -> (module, original name) for from-imports
        self._from: Dict[str, Tuple[str, str]] = {}
        #: lexical scopes for set-typed local dataflow: name -> True when
        #: the name currently holds a set, False when a later assignment
        #: shadows an outer set binding with something else
        self._scopes: List[Dict[str, bool]] = [{}]
        #: last physical line of the statement currently being visited,
        #: so pragmas can sit on the closing line of a multi-line call
        self._stmt_end = 0

    def visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.stmt):
            self._stmt_end = (
                getattr(node, "end_lineno", None)
                or getattr(node, "lineno", 0)
            )
        super().visit(node)

    # -- helpers ---------------------------------------------------------

    def _line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def _report(self, rule_id: str, node: ast.AST, message: str,
                severity: Optional[str] = None) -> None:
        rule = RULES[rule_id]
        line = getattr(node, "lineno", 1)
        self.findings.append(
            Finding(
                rule=rule_id,
                severity=severity or rule.severity,
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

    def _chain(self, node: ast.AST) -> Optional[List[str]]:
        """Resolve an attribute chain to [root_module, attr, ...].

        The root name is translated through the module's import table, so
        ``np.random`` resolves to ``["numpy", "random"]`` and a name
        bound by ``from datetime import datetime`` resolves to
        ``["datetime", "datetime"]``.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        if root in self._modules:
            parts.append(self._modules[root])
        elif root in self._from:
            module, original = self._from[root]
            parts.append(original)
            parts.append(module)
        else:
            parts.append(root)
        parts.reverse()
        return parts

    # -- import bookkeeping ---------------------------------------------

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
        # DET101: from-imports of random smuggle unseeded draws in under
        # local names the attribute detectors cannot see — flag the import
        if not self.allow_raw_random:
            if module == "random":
                self._report(
                    "DET101", node,
                    "from-import of the global `random` module",
                )
            elif module == "numpy" and any(
                a.name == "random" for a in node.names
            ):
                self._report(
                    "DET101", node, "from-import of numpy.random"
                )
        if module == "time":
            hazards = sorted(
                a.name for a in node.names
                if a.name in _WALL_CLOCK_TIME_ATTRS
            )
            if hazards:
                self._report(
                    "DET102", node,
                    f"from-import of wall-clock function(s) {hazards}",
                )
        if module == "os":
            hazards = sorted(
                a.name for a in node.names
                if a.name in ("environ", "getenv")
            )
            if hazards:
                self._report(
                    "DET301", node,
                    f"from-import of os.{'/'.join(hazards)}",
                    severity=(
                        SEVERITY_ERROR if _is_strict_env_path(self.path)
                        else SEVERITY_WARNING
                    ),
                )
        self.generic_visit(node)

    # -- DET101 / DET102 / DET301: attribute chains ---------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        chain = self._chain(node)
        if chain:
            self._check_chain(node, chain)
        self.generic_visit(node)

    def _check_chain(self, node: ast.AST, chain: List[str]) -> None:
        root = chain[0]
        if not self.allow_raw_random:
            if root == "random" and len(chain) == 2:
                self._report(
                    "DET101", node,
                    f"direct use of random.{chain[1]} bypasses the seeded "
                    "RngStreams registry",
                )
            elif root == "numpy" and len(chain) >= 2 and chain[1] == "random":
                tail = ".".join(chain[1:])
                self._report(
                    "DET101", node,
                    f"direct use of numpy.{tail} bypasses the seeded "
                    "RngStreams registry",
                )
        if root == "time" and len(chain) == 2 \
                and chain[1] in _WALL_CLOCK_TIME_ATTRS:
            self._report(
                "DET102", node,
                f"wall-clock read time.{chain[1]} in simulation code",
            )
        elif root == "datetime" and len(chain) >= 2 \
                and chain[-1] in _WALL_CLOCK_DATETIME_ATTRS:
            self._report(
                "DET102", node,
                f"wall-clock read {'.'.join(chain)}",
            )
        elif root == "os" and len(chain) >= 2 \
                and chain[1] in ("environ", "getenv"):
            self._report(
                "DET301", node,
                f"environment read via os.{chain[1]}",
                severity=(
                    SEVERITY_ERROR if _is_strict_env_path(self.path)
                    else SEVERITY_WARNING
                ),
            )

    def visit_Name(self, node: ast.Name) -> None:
        # names bound by hazardous from-imports, used bare
        if isinstance(node.ctx, ast.Load):
            bound = self._from.get(node.id)
            if bound is not None:
                module, original = bound
                if module == "random" and not self.allow_raw_random:
                    pass  # already flagged at the import statement
                elif module == "time" and original in _WALL_CLOCK_TIME_ATTRS:
                    self._report(
                        "DET102", node,
                        f"wall-clock read {original} "
                        "(from-imported from time)",
                    )
        self.generic_visit(node)

    # -- DET201: unordered iteration -------------------------------------

    def _name_is_set(self, name: str) -> bool:
        """Look a variable up through the lexical scope stack."""
        for scope in reversed(self._scopes):
            flag = scope.get(name)
            if flag is not None:
                return flag
        return False

    def _is_set_annotation(self, node: Optional[ast.AST]) -> bool:
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            return node.attr in ("Set", "FrozenSet", "AbstractSet")
        return isinstance(node, ast.Name) and node.id in (
            "set", "frozenset", "Set", "FrozenSet", "AbstractSet"
        )

    def _bind(self, target: ast.AST, is_set: bool) -> None:
        if isinstance(target, ast.Name):
            self._scopes[-1][target.id] = is_set

    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = self._is_set_expr(node.value)
        for target in node.targets:
            self._bind(target, is_set)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        is_set = self._is_set_annotation(node.annotation) or (
            node.value is not None and self._is_set_expr(node.value)
        )
        self._bind(node.target, is_set)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # `s |= other` keeps (and `s += other` clears) set-ness; only an
        # existing binding is updated, unknown names stay unknown
        if isinstance(node.target, ast.Name) \
                and self._name_is_set(node.target.id):
            self._bind(node.target, isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
            ))
        self.generic_visit(node)

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return self._name_is_set(node.id)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute) \
                    and func.attr in _SET_COMBINATORS \
                    and self._is_set_expr(func.value):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _check_iterable(self, node: ast.AST, context: str) -> None:
        if self._is_set_expr(node):
            self._report(
                "DET201", node,
                f"{context} iterates a set in hash order",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter, "for-loop")
        # the loop variable is rebound to an element, never a set we saw
        self._bind(node.target, False)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for comp in node.generators:
            self._check_iterable(comp.iter, "comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # building another set from a set keeps the result unordered but
        # introduces no ordering dependence of its own — skip the iterable
        # check, still walk nested expressions
        self.generic_visit(node)

    # -- DET201 (conversions) + DET202 (sort keys) -----------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _ORDER_SENSITIVE_FUNCS:
                for arg in node.args:
                    if self._is_set_expr(arg):
                        self._report(
                            "DET201", node,
                            f"{func.id}() materialises a set in hash order",
                        )
                        break
            if func.id in ("sorted", "min", "max"):
                self._check_sort_key(node)
        elif isinstance(func, ast.Attribute):
            if func.attr == "sort":
                self._check_sort_key(node)
            elif func.attr == "join" and any(
                self._is_set_expr(arg) for arg in node.args
            ):
                self._report(
                    "DET201", node,
                    "str.join() concatenates a set in hash order",
                )
        self.generic_visit(node)

    def _check_sort_key(self, node: ast.Call) -> None:
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            value = keyword.value
            if isinstance(value, ast.Name) and value.id in ("id", "hash"):
                self._report(
                    "DET202", node,
                    f"sort key `{value.id}` orders by interpreter "
                    "identity/hash, which differs between runs",
                )
            elif isinstance(value, ast.Lambda):
                for sub in ast.walk(value.body):
                    if isinstance(sub, ast.Call) \
                            and isinstance(sub.func, ast.Name) \
                            and sub.func.id in ("id", "hash"):
                        self._report(
                            "DET202", node,
                            f"sort key calls `{sub.func.id}()`, which "
                            "differs between runs",
                        )
                        break

    # -- DET401: mutable defaults ----------------------------------------

    def _is_mutable_literal(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "dict", "set", "bytearray")
        )

    def _check_function_defaults(self, node) -> None:
        args = node.args
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            if self._is_mutable_literal(default):
                # scope the pragma anchor to the default expression, not
                # the whole function body
                self._stmt_end = getattr(default, "end_lineno", 0)
                self._report(
                    "DET401", default,
                    f"function {node.name!r} has a mutable default "
                    "argument shared between calls (and between pickled "
                    "job replays)",
                )
        # every parameter shadows outer bindings of the same name; only
        # an explicit set annotation marks one as set-typed
        scope: Dict[str, bool] = {}
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            scope[arg.arg] = self._is_set_annotation(arg.annotation)
        self._scopes.append(scope)
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _check_function_defaults
    visit_AsyncFunctionDef = _check_function_defaults

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scopes.append({})
        if self._is_dataclass(node):
            for stmt in node.body:
                value = None
                if isinstance(stmt, ast.AnnAssign):
                    value = stmt.value
                elif isinstance(stmt, ast.Assign):
                    value = stmt.value
                if value is not None and self._is_mutable_literal(value):
                    self._stmt_end = getattr(stmt, "end_lineno", 0)
                    self._report(
                        "DET401", stmt,
                        f"dataclass {node.name!r} field defaults to a "
                        "shared mutable value",
                    )
        self.generic_visit(node)
        self._scopes.pop()

    def _is_dataclass(self, node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) \
                else decorator
            if isinstance(target, ast.Name) and target.id == "dataclass":
                return True
            if isinstance(target, ast.Attribute) \
                    and target.attr == "dataclass":
                return True
        return False


def detect(
    source: str,
    path: str,
    *,
    allow_raw_random: bool = False,
    tree: Optional[ast.AST] = None,
) -> List[Finding]:
    """Run every detector over ``source`` and return its findings.

    Args:
        source: the module's source text.
        path: repo-relative posix path used in findings.
        allow_raw_random: disable DET101 for the one sanctioned module
            (``sim/rng.py`` wraps ``random.Random`` by design).
        tree: optionally a pre-parsed AST of ``source`` — the multi-pass
            driver parses each file once and shares the tree between
            passes.
    """
    if tree is None:
        tree = ast.parse(source, filename=path)
    visitor = HazardVisitor(
        path, source.splitlines(), allow_raw_random=allow_raw_random
    )
    visitor.visit(tree)
    visitor.findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return visitor.findings
