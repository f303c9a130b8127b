import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


WHISTLE_PATH_THEN_CENSUS = """
import contextlib, io, os, sys, tempfile
from treewqo import (LETTERS, SequenceChecker, census, cli, default_config, default_signature,
                     generate_corpus, monotone_stream, parse_tree, parse_wqo_name, render_tree)

sig = default_signature()
assert render_tree(parse_tree("d(c(a,b(a)),a,b(b(a)))", sig)) == "d(c(a,b(a)),a,b(b(a)))"
stream = monotone_stream(sig, 40, 12)
for name in [*LETTERS, "YZH"]:
    checker = SequenceChecker(parse_wqo_name(name))
    for t in stream:
        checker.push(t)
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    path = os.path.join(tmp, "stream.txt")
    with open(path, "w") as f:
        f.write("a\\nb(a)\\n")
    assert cli.main(["compare", "--wqo", "YZH", "b(b(a))", "b(b(b(a)))"]) == 0
    assert cli.main(["whistle", "--wqo", "H", path]) == 0
    assert cli.main(["bench", "--wqo", "H", "--n", "20", "--size", "10"]) == 0
assert "numpy" not in sys.modules, "the whistle path loaded numpy"
census(generate_corpus(default_config(1, 5, 30)))
assert "numpy" in sys.modules
print("ok")
"""


def test_whistle_path_runs_without_numpy():
    # numpy serves the census and the generator alone: importing the
    # package, parsing, rendering, every checker and the compare and whistle
    # commands never load it, and the first corpus draw does
    src = str(Path(treewqo.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", WHISTLE_PATH_THEN_CENSUS], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr
