"""Per-rule positive/negative tests for the AST hazard detectors."""

import textwrap

from repro.analysis import detect


def findings_for(source, path="src/repro/sim/example.py", **kwargs):
    return detect(textwrap.dedent(source), path, **kwargs)


def rules_of(source, **kwargs):
    return [f.rule for f in findings_for(source, **kwargs)]


class TestDet101RawRandom:
    def test_module_attribute_flagged(self):
        assert rules_of(
            """
            import random

            def jitter():
                return random.random()
            """
        ) == ["DET101"]

    def test_from_import_flagged_once(self):
        rules = rules_of(
            """
            from random import random

            def jitter():
                return random()
            """
        )
        assert rules == ["DET101"]

    def test_numpy_random_flagged_through_alias(self):
        assert "DET101" in rules_of(
            """
            import numpy as np

            def draw():
                return np.random.rand()
            """
        )

    def test_rng_streams_usage_clean(self):
        assert rules_of(
            """
            def draw(streams):
                return streams.uniform("fault.delay", 0.0, 1.0)
            """
        ) == []

    def test_allow_raw_random_disables_rule(self):
        assert rules_of(
            """
            import random

            def seed():
                return random.Random(7)
            """,
            allow_raw_random=True,
        ) == []


class TestDet102WallClock:
    def test_time_time_flagged(self):
        assert rules_of(
            """
            import time

            def stamp():
                return time.time()
            """
        ) == ["DET102"]

    def test_monotonic_flagged(self):
        assert "DET102" in rules_of(
            """
            import time

            def stamp():
                return time.monotonic()
            """
        )

    def test_perf_counter_exempt(self):
        assert rules_of(
            """
            import time

            def measure():
                return time.perf_counter()
            """
        ) == []

    def test_datetime_now_flagged(self):
        assert "DET102" in rules_of(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """
        )

    def test_from_import_use_flagged(self):
        rules = rules_of(
            """
            from time import monotonic

            def stamp():
                return monotonic()
            """
        )
        # flagged at the import and at the call site
        assert rules == ["DET102", "DET102"]


class TestDet201SetIteration:
    def test_for_over_set_literal(self):
        assert rules_of(
            """
            def f(a, b):
                for x in {a, b}:
                    print(x)
            """
        ) == ["DET201"]

    def test_comprehension_over_set_call(self):
        assert "DET201" in rules_of(
            """
            def f(items):
                return [x for x in set(items)]
            """
        )

    def test_list_materialisation(self):
        assert "DET201" in rules_of(
            """
            def f(items):
                return list(frozenset(items))
            """
        )

    def test_join_over_set(self):
        assert "DET201" in rules_of(
            """
            def f(names):
                return ", ".join({n.lower() for n in names})
            """
        )

    def test_sorted_set_is_clean(self):
        assert rules_of(
            """
            def f(items):
                return sorted(set(items))
            """
        ) == []

    def test_dict_iteration_is_clean(self):
        assert rules_of(
            """
            def f(table):
                return [k for k in table]
            """
        ) == []

    def test_len_of_set_is_clean(self):
        assert rules_of(
            """
            def f(items):
                return len(set(items))
            """
        ) == []

    def test_membership_test_is_clean(self):
        assert rules_of(
            """
            def f(items, x):
                return x in set(items)
            """
        ) == []

    def test_set_combinator_method(self):
        assert "DET201" in rules_of(
            """
            def f(a, b):
                for x in set(a).union(b):
                    print(x)
            """
        )


class TestDet201Dataflow:
    """Set-typed *variables* are tracked through local assignments."""

    def test_variable_assigned_set_then_iterated(self):
        assert rules_of(
            """
            def f(items):
                seen = set(items)
                for x in seen:
                    print(x)
            """
        ) == ["DET201"]

    def test_variable_sorted_before_iteration_clean(self):
        assert rules_of(
            """
            def f(items):
                seen = set(items)
                for x in sorted(seen):
                    print(x)
            """
        ) == []

    def test_reassignment_clears_setness(self):
        assert rules_of(
            """
            def f(items):
                seen = set(items)
                seen = sorted(seen)
                for x in seen:
                    print(x)
            """
        ) == []

    def test_annotated_parameter_tracked(self):
        assert rules_of(
            """
            from typing import Set

            def f(seen: Set[str]):
                for x in seen:
                    print(x)
            """
        ) == ["DET201"]

    def test_augmented_union_keeps_setness(self):
        assert "DET201" in rules_of(
            """
            def f(a, b):
                seen = set(a)
                seen |= set(b)
                for x in seen:
                    print(x)
            """
        )

    def test_inner_function_scope_is_isolated(self):
        assert rules_of(
            """
            def outer(items):
                seen = set(items)

                def inner(seen):
                    for x in seen:
                        print(x)
                return len(seen)
            """
        ) == []

    def test_loop_variable_rebinding_clears(self):
        assert rules_of(
            """
            def f(groups):
                seen = set()
                for seen in groups:
                    for x in seen:
                        print(x)
            """
        ) == []


class TestDet202SortKeys:
    def test_key_id_flagged(self):
        assert rules_of(
            """
            def f(items):
                return sorted(items, key=id)
            """
        ) == ["DET202"]

    def test_lambda_calling_hash_flagged(self):
        assert "DET202" in rules_of(
            """
            def f(items):
                items.sort(key=lambda x: hash(x))
            """
        )

    def test_domain_key_clean(self):
        assert rules_of(
            """
            def f(items):
                return sorted(items, key=lambda x: x.name)
            """
        ) == []


class TestDet301Environment:
    def test_environ_read_error_in_sim(self):
        findings = findings_for(
            """
            import os

            def knob():
                return os.environ["REPRO_DEBUG"]
            """,
            path="src/repro/sim/example.py",
        )
        assert [(f.rule, f.severity) for f in findings] == [("DET301", "error")]

    def test_getenv_warning_outside_core(self):
        findings = findings_for(
            """
            import os

            def knob():
                return os.getenv("COLUMNS")
            """,
            path="src/repro/cli/example.py",
        )
        assert [(f.rule, f.severity) for f in findings] == [
            ("DET301", "warning")
        ]


class TestDet401MutableDefaults:
    def test_list_default_flagged(self):
        assert rules_of(
            """
            def f(items=[]):
                return items
            """
        ) == ["DET401"]

    def test_dataclass_field_default_flagged(self):
        assert "DET401" in rules_of(
            """
            from dataclasses import dataclass

            @dataclass
            class JobSpec:
                tags = {}
            """
        )

    def test_default_factory_clean(self):
        assert rules_of(
            """
            from dataclasses import dataclass, field

            @dataclass
            class JobSpec:
                tags: dict = field(default_factory=dict)
            """
        ) == []

    def test_none_default_clean(self):
        assert rules_of(
            """
            def f(items=None):
                return items or []
            """
        ) == []


class TestFindingMetadata:
    def test_findings_sorted_and_fingerprinted(self):
        findings = findings_for(
            """
            import random

            def f():
                b = random.random()
                a = random.random()
                return a + b
            """
        )
        assert [f.line for f in findings] == sorted(f.line for f in findings)
        assert "random.random()" in findings[1].text

    def test_render_mentions_rule_and_hint(self):
        finding = findings_for(
            """
            import random
            x = random.random()
            """
        )[-1]
        rendered = finding.render()
        assert "DET101" in rendered
        assert "RngStreams" in rendered

    def test_regression_sum_over_set_comprehension(self):
        # the hazard shipped in bench_f1_consolidation.py: summing floats
        # in set order makes the total vary across processes
        assert "DET201" in rules_of(
            """
            def cost(dep, topo, apps):
                return sum(
                    topo.ecu(name).unit_cost
                    for name in {dep.ecu_of(a.name) for a in apps}
                )
            """
        )

    def test_regression_set_variable_in_test_code(self):
        # the hazard shipped in test_signals.py: adding apps to a model
        # in set iteration order
        assert "DET201" in rules_of(
            """
            def wire(report, model):
                emitters = {i.owner for i in report.interfaces}
                for emitter in emitters:
                    model.add_app(emitter)
            """
        )
