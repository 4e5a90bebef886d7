import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

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


# public names that nothing in src/ calls, kept because the benchmark's
# per-layer metrics name them (BENCHMARK.json); each goes when the benchmark
# stops naming it
BENCHMARK_PINNED = {
    "divergence.c_invariant_transform",
    "modes.shell_conjugation",
    "quadrature.m_plus",
    "quadrature.ideal_m_plus",
    "fock.annihilator_b",
    "fock.annihilator_c",
    "fock.normal_ordered_density",
}


def _public_definitions(tree):
    """(qualified name, node) of the module-level public functions and
    classes, and of the public methods and properties of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _referenced_names(tree):
    """Every name read as an ast.Name, an ast.Attribute or an import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name.rpartition(".")[2]


def test_every_public_definition_is_used_in_src():
    """Each public function, class, method and property of src/fockcharge is
    referenced somewhere in src/ outside its own definition."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(fockcharge.__file__).parent.glob("*.py"))}
    uses = Counter(name for tree in trees.values() for name in _referenced_names(tree))
    unused = {f"{module}.{qualname}" for module, tree in trees.items()
              for qualname, node in _public_definitions(tree)
              if uses[node.name] == Counter(_referenced_names(node))[node.name]}
    assert sorted(unused - BENCHMARK_PINNED) == []
    assert sorted(BENCHMARK_PINNED - unused) == []  # a pin that is used again is not needed
