import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import treewqo

MODULES = ["treewqo"] + [f"treewqo.{m.name}" for m in pkgutil.iter_modules(treewqo.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves(module):
    # a name left in __all__ after its definition is gone fails here
    exec(f"from {module} import *", {})


@pytest.mark.parametrize("module", [m for m in MODULES[1:]
                                    if hasattr(importlib.import_module(m), "__all__")])
def test_package_exports_each_module_api(module):
    # the package star-imports every module that declares its API; dropping
    # one star import, or shadowing a name, fails here
    mod = importlib.import_module(module)
    for name in mod.__all__:
        assert getattr(treewqo, name, None) is getattr(mod, name), name


def test_benchmark_imports_resolve():
    # the benchmark under wqobench/ imports these names and reads these
    # Tree attributes; dropping one must fail here, not only in a benchmark run
    path = Path(__file__).resolve().parent.parent / "wqobench" / "workloads.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module in ("treewqo", "treewqo.signature")
                for alias in node.names]
    assert ("treewqo.signature", "repeated_mask") in imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in ("tree", "node", "t")}
    assert {"bag", "pre", "eul", "nodes"} <= read
    for attr in read:
        assert hasattr(treewqo.Tree, attr), f"Tree.{attr}"
