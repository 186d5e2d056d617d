"""The benchmark tracer wraps methods by name: every (module, class,
attribute) in `perfbench/tracing.py` METHODS must exist on its class, or a
traced run stops with KeyError. The file is read with `ast`, not imported."""
import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_methods():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "METHODS" for t in node.targets)):
            return list(ast.literal_eval(node.value))
    raise AssertionError("perfbench/tracing.py defines no METHODS")


def test_every_traced_method_exists_on_its_class():
    names = traced_methods()
    assert ("codes", "MdsCode", "completion_maps") in names
    for module, cls, attr in names:
        owner = getattr(importlib.import_module(f"topolinear.{module}"), cls)
        assert attr in owner.__dict__, f"{module}.{cls}.{attr}"
