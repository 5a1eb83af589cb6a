"""The benchmark tracer's entry points exist in the package.

``perfbench/tracing.py`` wraps hrislink functions under the module
attributes their callers look up.  A renamed or dropped attribute makes
the traced benchmark run fail, so every ``(module, attribute)`` it names
must resolve.  The tracer is loaded from its file, unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_entry_points_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.ENTRY_POINTS
    for module_name, attr, _ in tracing.ENTRY_POINTS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), f"{module_name}.{attr}"
