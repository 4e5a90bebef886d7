import importlib
import inspect

import pytest

import fockcharge
from fockcharge import suites

# cli is the command-line entry point and declares no __all__
MODULES = ["fockcharge"] + [f"fockcharge.{name}" for name in fockcharge._SUBMODULES
                            if name != "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    # every listed name resolves, and every public function or class the
    # module defines is listed; the experiment runners are reached through
    # suites.EXPERIMENTS instead
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    runners = set(suites.EXPERIMENTS.values())
    defined = [n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == name and obj not in runners]
    assert sorted(set(defined) - set(module.__all__)) == []
