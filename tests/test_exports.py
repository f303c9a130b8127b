import pkgutil

import pytest

import treewqo

MODULES = ["treewqo"] + [f"treewqo.{m.name}" for m in pkgutil.iter_modules(treewqo.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves(module):
    # a name left in __all__ after its definition is gone fails here
    exec(f"from {module} import *", {})
