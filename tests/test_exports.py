import importlib
import pkgutil

import pytest

import vexp

MODULES = ["vexp"] + [f"vexp.{m.name}" for m in pkgutil.iter_modules(vexp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
