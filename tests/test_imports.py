"""No module of the package imports a name it never uses, and every name
the benchmark's tracer wraps exists."""

import ast
import importlib
from pathlib import Path

import pytest

import qbaglab

MODULES = sorted(p for p in Path(qbaglab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports to re-export


def unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of `source` that no
    expression of the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "import os\nimport json as j\nfrom typing import Any, Mapping\nx: Any = j.dumps(0)\n"
    assert unused_imports(source) == ["os", "Mapping"]


def traced_names() -> dict[str, tuple[str, ...]]:
    """`LAYERS` of perfbench/tracer.py, layer module -> function names, read
    from its source so that perfbench is not imported."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def test_every_traced_name_is_a_function_of_its_layer():
    layers = traced_names()
    assert sum(map(len, layers.values())) == 32
    for layer, names in layers.items():
        module = importlib.import_module(f"qbaglab.{layer}")
        assert [n for n in names if not callable(getattr(module, n, None))] == []
