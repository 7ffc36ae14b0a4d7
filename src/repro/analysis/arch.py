"""Architecture layering pass (``ARCH6xx``).

The repo's "refactor freely" rule is only safe while the layer DAG holds:
``core`` and ``sim`` must stay buildable without the orchestration
layers above them (``exec``, ``fleet``, ``xil``, ``analysis``), or the
fork/pickle boundaries those layers rely on silently invert.  This pass
enforces a **declared** contract rather than whatever the imports happen
to be today, so an accidental upward import fails CI the moment it
lands:

========  ==============================================================
ARCH601   top-level import violates the layer contract (load-time edge)
ARCH602   top-level import cycle between modules
ARCH603   lazy (function-local) import violates the contract — the
          sanctioned escape hatch for run-time upward dispatch; every
          site carries a pragma with its rationale
ARCH604   package missing from the layer contract (declare it first)
========  ==============================================================

``if TYPE_CHECKING:`` imports are erased at run time and exempt.  The
contract below is the bottom-up build order documented in DESIGN.md;
``errors`` and ``obs`` are foundation layers importable everywhere, and
``obs`` in particular is the one dependency every layer is allowed so
instrumentation never fights the architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional

from .detectors import Finding, Rule, SEVERITY_ERROR, SEVERITY_WARNING
from .graph import ImportEdge, ModuleGraph, ModuleInfo

ARCH_RULES: Dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule(
            "ARCH601",
            "top-level import violates the layer contract",
            SEVERITY_ERROR,
            "move the shared abstraction into a lower layer (the job "
            "protocol lives in repro.jobs for exactly this reason) or "
            "invert the dependency with a callback/registry",
        ),
        Rule(
            "ARCH602",
            "top-level import cycle",
            SEVERITY_ERROR,
            "break the cycle: extract the shared piece into a lower "
            "module or make one direction a lazy run-time import",
        ),
        Rule(
            "ARCH603",
            "lazy import crosses the layer contract upward",
            SEVERITY_WARNING,
            "acceptable only for run-time dispatch that re-enters an "
            "upper subsystem; keep it function-local and pragma it with "
            "the rationale (# repro: allow[ARCH603] -- why)",
        ),
        Rule(
            "ARCH604",
            "package missing from the declared layer contract",
            SEVERITY_WARNING,
            "add the package to LayerContract.layers in "
            "repro/analysis/arch.py with its allowed dependencies",
        ),
    )
}


@dataclass(frozen=True)
class LayerContract:
    """Declared layer DAG: package -> packages it may import.

    ``errors`` and ``obs`` are foundations; listing a package in
    ``universal`` allows every layer to import it without repeating it
    in each entry.  The root package facade (``repro/__init__.py``)
    re-exports everything and is exempt.
    """

    root: str = "repro"
    universal: FrozenSet[str] = frozenset({"errors", "obs"})
    layers: Mapping[str, FrozenSet[str]] = field(default_factory=dict)

    def allowed(self, package: str) -> Optional[FrozenSet[str]]:
        deps = self.layers.get(package)
        if deps is None:
            return None
        return deps | self.universal | {package}


def _fs(*names: str) -> FrozenSet[str]:
    return frozenset(names)


#: The repo's declared layer DAG (DESIGN.md "Architecture layering").
#: Bottom-up: sim/hw are foundations, jobs is the producer/executor
#: protocol, core composes the platform, and the orchestration layers
#: (exec, dse, faults, fleet, xil) stack on top.  ``analysis`` is a
#: leaf tool: nothing imports it, and it sees only the kernel.
DEFAULT_CONTRACT = LayerContract(
    layers={
        "errors": _fs(),
        "obs": _fs(),
        "hw": _fs(),
        "sim": _fs(),
        "jobs": _fs("sim"),
        "network": _fs("hw", "sim"),
        "osal": _fs("hw", "sim"),
        "middleware": _fs("hw", "sim", "network"),
        "model": _fs("hw", "sim", "network", "osal", "middleware"),
        "workloads": _fs("hw", "sim", "osal", "model"),
        "security": _fs("hw", "sim", "network", "middleware", "model"),
        "baselines": _fs("hw", "sim", "model"),
        "core": _fs(
            "hw", "sim", "jobs", "network", "osal", "middleware",
            "model", "security",
        ),
        "exec": _fs("sim", "jobs"),
        "dse": _fs("sim", "jobs", "osal", "model", "exec"),
        "faults": _fs(
            "hw", "sim", "jobs", "network", "osal", "middleware",
            "model", "security", "core", "exec",
        ),
        "fleet": _fs(
            "hw", "sim", "jobs", "osal", "model", "security",
            "core", "exec", "faults",
        ),
        "xil": _fs(
            "hw", "sim", "jobs", "osal", "middleware", "model",
            "security", "core", "exec", "faults",
        ),
        "analysis": _fs("sim"),
    }
)


def _target_package(target: str, root: str) -> Optional[str]:
    parts = target.split(".")
    if parts[0] != root:
        return None
    if len(parts) == 1:
        return ""
    return parts[1]


def check_module_layers(
    info: ModuleInfo, contract: LayerContract = DEFAULT_CONTRACT
) -> List[Finding]:
    """Per-file layer verdicts (ARCH601/603/604) for one module.

    Pure function of (module info, contract); the whole-program cycle
    check (ARCH602) is :func:`check_cycles`.
    """
    findings: List[Finding] = []
    package = info.package(contract.root)
    if package is None:
        return findings  # tests/benchmarks are not layered
    if package == "":
        return findings  # the root facade re-exports everything
    allowed = contract.allowed(package)

    def _report(rule_id: str, edge: ImportEdge, message: str) -> None:
        rule = ARCH_RULES[rule_id]
        findings.append(
            Finding(
                rule=rule_id,
                severity=rule.severity,
                path=info.path,
                line=edge.line,
                col=edge.col,
                message=message,
                hint=rule.hint,
                text=edge.text,
                end_line=edge.line,
            )
        )

    if allowed is None:
        if info.edges:
            first = min(info.edges, key=lambda e: (e.line, e.col))
        else:
            first = ImportEdge(target="", line=1, col=0)
        _report(
            "ARCH604", first,
            f"package {contract.root}.{package!r} is not declared in the "
            "layer contract",
        )
        return findings

    seen: set = set()
    for edge in info.edges:
        if edge.type_checking:
            continue
        target_pkg = _target_package(edge.target, contract.root)
        if target_pkg is None or target_pkg == "":
            continue  # stdlib/third-party, or the root facade
        if target_pkg in allowed:
            continue
        if edge.maybe_attribute and contract.layers.get(target_pkg) is None:
            # `from repro import Name`: Name is likely an attribute of
            # the facade, not an undeclared package — never ARCH604
            continue
        key = (edge.line, target_pkg)
        if key in seen:
            continue  # base edge already reported this line/package
        seen.add(key)
        if contract.layers.get(target_pkg) is None:
            _report(
                "ARCH604", edge,
                f"import of undeclared package "
                f"{contract.root}.{target_pkg} — declare it in the layer "
                "contract first",
            )
        elif edge.lazy:
            _report(
                "ARCH603", edge,
                f"lazy import of {edge.target} reaches {target_pkg!r} "
                f"above layer {package!r}",
            )
        else:
            _report(
                "ARCH601", edge,
                f"layer {package!r} must not import {target_pkg!r} "
                f"(top-level import of {edge.target})",
            )
    return findings


def check_cycles(graph: ModuleGraph) -> List[Finding]:
    """Whole-program ARCH602 findings, one per top-level import cycle.

    Each cycle is reported once, anchored at the lexicographically first
    participating module's first import edge into the cycle — a stable
    anchor that survives unrelated edits elsewhere.
    """
    findings: List[Finding] = []
    rule = ARCH_RULES["ARCH602"]
    for component in graph.cycles():
        members = set(component)
        anchor_module = component[0]
        info = graph.by_module[anchor_module]
        anchor: Optional[ImportEdge] = None
        for edge in info.edges:
            if edge.type_checking or edge.lazy:
                continue
            if any(t in members for t in graph.resolve(edge)):
                anchor = edge
                break
        if anchor is None:  # pragma: no cover - cycle implies an edge
            anchor = ImportEdge(target="", line=1, col=0)
        loop = " -> ".join(component + [component[0]])
        findings.append(
            Finding(
                rule="ARCH602",
                severity=rule.severity,
                path=info.path,
                line=anchor.line,
                col=anchor.col,
                message=f"top-level import cycle: {loop}",
                hint=rule.hint,
                text=anchor.text,
                end_line=anchor.line,
            )
        )
    return findings
