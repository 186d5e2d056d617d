"""The benchmark tracer wraps methods and functions by name: every (module,
class, attribute) in `perfbench/tracing.py` METHODS must exist on its class,
or a traced run stops with KeyError, and every function its serialize layers
name must still be one, or their spans read 0. The file is read with `ast`,
not imported."""
import ast
import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced(name):
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracing.py defines no {name}")


def test_every_traced_method_exists_on_its_class():
    names = list(traced("METHODS"))
    assert ("codes", "MdsCode", "completion_maps") in names
    for module, cls, attr in names:
        owner = getattr(importlib.import_module(f"topolinear.{module}"), cls)
        assert attr in owner.__dict__, f"{module}.{cls}.{attr}"


def test_the_serialize_layers_name_module_level_functions_of_serialize():
    layers = traced("LAYERS")
    serialize = importlib.import_module("topolinear.serialize")
    names = layers["serialize.load"] + layers["serialize.save"]
    assert "serialize.save_certificate" in names and "serialize.load_certificate" in names
    for name in names:
        module, attr = name.split(".")
        fn = getattr(serialize, attr, None)
        assert module == "serialize" and inspect.isfunction(fn), name
        assert fn.__module__ == serialize.__name__ and fn.__qualname__ == attr, name
