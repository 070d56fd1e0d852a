import importlib
import pkgutil
import types

import pytest

import mdlsynth

MODULES = sorted(m.name for m in pkgutil.iter_modules(mdlsynth.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"mdlsynth.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_evaluate_is_the_module():
    import mdlsynth.evaluate as m

    assert isinstance(mdlsynth.evaluate, types.ModuleType)
    assert m is importlib.import_module("mdlsynth.evaluate")
