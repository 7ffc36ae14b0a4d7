"""Unit tests for the architecture layering pass (ARCH6xx)."""

import ast
import textwrap

from repro.analysis.arch import (
    DEFAULT_CONTRACT,
    LayerContract,
    check_cycles,
    check_module_layers,
)
from repro.analysis.graph import ModuleGraph, collect_imports, module_name_for


def info_for(rel_path, source):
    source = textwrap.dedent(source)
    tree = ast.parse(source)
    return collect_imports(tree, rel_path, source.splitlines())


def layer_rules(rel_path, source, contract=DEFAULT_CONTRACT):
    return [f.rule for f in check_module_layers(info_for(rel_path, source),
                                                contract)]


class TestModuleNames:
    def test_src_prefix_stripped(self):
        assert module_name_for("src/repro/sim/kernel.py") == "repro.sim.kernel"

    def test_init_names_its_package(self):
        assert module_name_for("src/repro/exec/__init__.py") == "repro.exec"

    def test_tests_keep_their_path(self):
        assert module_name_for("tests/sim/test_kernel.py") \
            == "tests.sim.test_kernel"


class TestLayerContract:
    def test_sim_may_not_import_exec(self):
        assert layer_rules("src/repro/sim/bad.py", """
            from repro.exec.pool import run_jobs
        """) == ["ARCH601"]

    def test_exec_may_import_sim(self):
        assert layer_rules("src/repro/exec/ok.py", """
            from repro.sim.kernel import Simulator
        """) == []

    def test_obs_importable_from_everywhere(self):
        for pkg in ("sim", "core", "exec", "fleet", "network"):
            assert layer_rules(f"src/repro/{pkg}/mod.py", """
                from repro.obs.metrics import MetricsRegistry
            """) == []

    def test_lazy_upward_import_is_arch603(self):
        assert layer_rules("src/repro/core/mod.py", """
            def dispatch():
                from repro.exec.pool import get_inline_executor
                return get_inline_executor()
        """) == ["ARCH603"]

    def test_type_checking_import_exempt(self):
        assert layer_rules("src/repro/sim/mod.py", """
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                from repro.exec.pool import ParallelExecutor
        """) == []

    def test_undeclared_package_is_arch604(self):
        assert layer_rules("src/repro/newpkg/mod.py", """
            import os
        """) == ["ARCH604"]

    def test_import_of_undeclared_package_is_arch604(self):
        assert layer_rules("src/repro/core/mod.py", """
            from repro.mystery import thing
        """) == ["ARCH604"]

    def test_root_facade_exempt(self):
        assert layer_rules("src/repro/__init__.py", """
            from repro.fleet.service import FleetCampaign
        """) == []

    def test_tests_are_not_layered(self):
        assert layer_rules("tests/sim/test_mod.py", """
            from repro.fleet.service import FleetCampaign
        """) == []

    def test_relative_import_resolves_before_check(self):
        # ../exec/... from core is the same upward edge as the absolute
        assert layer_rules("src/repro/core/mod.py", """
            from ..exec.pool import run_jobs
        """) == ["ARCH601"]

    def test_fingerprint_changes_with_contract(self):
        # the verdict is a function of the contract passed in
        source = "from repro.exec.pool import run_jobs\n"
        alt = LayerContract(layers={"sim": frozenset({"exec"})})
        assert layer_rules("src/repro/sim/mod.py", source) == ["ARCH601"]
        assert layer_rules("src/repro/sim/mod.py", source, alt) == []


class TestCycles:
    def test_mutual_imports_form_a_cycle(self):
        graph = ModuleGraph([
            info_for("src/repro/sim/a.py", "from repro.sim import b\n"),
            info_for("src/repro/sim/b.py", "from repro.sim import a\n"),
        ])
        findings = check_cycles(graph)
        assert [f.rule for f in findings] == ["ARCH602"]
        assert "repro.sim.a -> repro.sim.b" in findings[0].message

    def test_facade_reexport_is_not_a_cycle(self):
        # package __init__ imports its submodules; submodules import
        # siblings — the ancestor edge must not close a false cycle
        graph = ModuleGraph([
            info_for("src/repro/sim/__init__.py",
                     "from .a import A\nfrom .b import B\n"),
            info_for("src/repro/sim/a.py", "from repro.sim.b import B\n"),
            info_for("src/repro/sim/b.py", "x = 1\n"),
        ])
        assert check_cycles(graph) == []

    def test_lazy_back_edge_breaks_the_cycle(self):
        graph = ModuleGraph([
            info_for("src/repro/sim/a.py", "from repro.sim import b\n"),
            info_for("src/repro/sim/b.py", """
                def back():
                    from repro.sim import a
                    return a
            """),
        ])
        assert check_cycles(graph) == []

    def test_cycle_report_is_deterministic(self):
        def build():
            return ModuleGraph([
                info_for("src/repro/sim/a.py", "from repro.sim import b\n"),
                info_for("src/repro/sim/b.py", "from repro.sim import c\n"),
                info_for("src/repro/sim/c.py", "from repro.sim import a\n"),
            ])
        first = [f.message for f in check_cycles(build())]
        second = [f.message for f in check_cycles(build())]
        assert first == second
        assert len(first) == 1


class TestRealRepoContract:
    def test_every_package_is_declared(self):
        import os

        root = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..")
        )
        src = os.path.join(root, "src", "repro")
        packages = sorted(
            name for name in os.listdir(src)
            if os.path.isdir(os.path.join(src, name))
            and not name.startswith("__")
        )
        for package in packages:
            assert package in DEFAULT_CONTRACT.layers, (
                f"package {package!r} missing from the layer contract"
            )

    def test_no_lazy_upward_import_even_under_pragma(self):
        # campaign kinds register with repro.exec.recovery.KINDS instead
        # of exec dispatching back up; counted before pragma suppression
        import os

        root = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..")
        )
        findings = []
        for dirpath, _, files in os.walk(os.path.join(root, "src", "repro")):
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    source = fh.read()
                info = collect_imports(
                    ast.parse(source), os.path.relpath(path, root),
                    source.splitlines(),
                )
                findings += [f"{f.path}:{f.line}"
                             for f in check_module_layers(info)
                             if f.rule == "ARCH603"]
        assert findings == []
