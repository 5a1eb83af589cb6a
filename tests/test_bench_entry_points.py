"""The benchmark tracer's entry points exist in the package and are still called, and no other import in it or in
the tests goes unused.

``perfbench/tracing.py`` wraps hrislink functions under the module
attributes their callers look up.  A renamed or dropped attribute makes
the traced benchmark run fail, so every ``(module, attribute)`` it names
must resolve; one the package no longer calls through makes its layer read
0, so every one but the two dead ``pinv`` names must be called on the way
from a trial and a sweep.  The tracer is loaded from its file, unchanged.  An import
the module never reads is allowed only where the tracer wraps it by that
name and the import says so with ``# noqa: F401``; the tracer wraps nothing
in the test modules, so there every unread import counts.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from hrislink import harness, hris_rx
from hrislink.scenario import ScenarioConfig

from test_acceptance import PAIRS
from test_golden import GOLDEN_SIZES

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
SRC = ROOT / "src"
TESTS = ROOT / "tests"


def tracer_entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.ENTRY_POINTS


def unused_imports(source: str):
    """``(name, marked)`` for each name a module imports and never reads, ``marked`` if its import says noqa F401.

    A name counts as read where it appears as a name in the code or in the module's ``__all__``.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            marked = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield name, marked


def test_tracer_entry_points_resolve():
    entry_points = tracer_entry_points()
    assert entry_points
    for module_name, attr, _ in entry_points:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), f"{module_name}.{attr}"


def test_tracer_entry_points_are_called():
    # the composite caches would skip the calls a coding's first trial makes
    hris_rx.composite_problem.cache_clear()
    hris_rx.composite_pinv.cache_clear()
    calls = {}

    def counting(fn, name):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    with pytest.MonkeyPatch.context() as patch:
        for module_name, attr, _ in tracer_entry_points():
            module, name = importlib.import_module(module_name), f"{module_name.removeprefix('hrislink.')}.{attr}"
            calls[name] = 0
            patch.setattr(module, attr, counting(getattr(module, attr), name))
        harness.run_trial(ScenarioConfig(**GOLDEN_SIZES), ("kronf", "bals"), 0)
        for scheme, pairs in PAIRS.items():
            for pair in pairs:
                harness.run_sweep(ScenarioConfig(**GOLDEN_SIZES, scheme=scheme), pair, "pt", [20.0], trials=2)
    # the two pinv names are the dead ones the tracer still wraps
    assert {name for name, count in calls.items() if not count} == {"hris_rx.pinv", "bs_rx.pinv"}


def test_src_has_no_unused_import():
    wrapped = {(module_name, attr) for module_name, attr, _ in tracer_entry_points()}
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        module_name = ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        unused += [f"{module_name}.{name}" for name, marked in unused_imports(path.read_text())
                   if not (marked and (module_name, name) in wrapped)]
    assert not unused, unused


def test_tests_have_no_unused_import():
    unused = [f"{path.stem}.{name}" for path in sorted(TESTS.glob("*.py"))
              for name, _ in unused_imports(path.read_text())]
    assert not unused, unused
