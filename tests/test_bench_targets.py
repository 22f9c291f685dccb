"""The benchmark tracer's targets exist in the package.

perfbench/tracer.py wraps (module, attribute) pairs of mwright by name;
a rename or deletion here would crash a traced benchmark run. The table
is read with ast, so nothing under perfbench/ is imported or run.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS table in perfbench/tracer.py")


def test_every_traced_attribute_resolves():
    targets = _targets()
    assert targets
    for module, path, _ in targets:
        obj = importlib.import_module(f"mwright.{module}")
        for name in path.split("."):
            assert hasattr(obj, name), f"mwright.{module}.{path}"
            obj = getattr(obj, name)
        assert callable(obj), f"mwright.{module}.{path}"
