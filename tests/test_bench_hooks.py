"""The benchmark's hooks into the package still resolve.

perfbench/tracing.py wraps the functions named in LAYERS and perfbench/run.py
reads cache statistics from the functions named in CACHES. Both are read
here as source, without importing perfbench, so a renamed or uncached
package function fails this test instead of a traced benchmark run. The
root-keyed ``BracketTable.table`` view, which perfbench reads outside those
tables (tracing.py's entry counter, the orbit-rank certificate in
workloads.py), is checked here too.
"""

import ast
import importlib
from pathlib import Path

import pytest

from coadorbits.roots import PositiveRoot, structure_table

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _hooks(filename, name):
    """(module, attribute path) of each tuple in the module-level tuple `name`."""
    tree = ast.parse((PERFBENCH / filename).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return [
                tuple(ast.literal_eval(field) for field in entry.elts[1:3])
                for entry in node.value.elts
            ]
    raise AssertionError(f"{filename} defines no {name}")


def _resolve(module, path):
    obj = importlib.import_module(module)
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


LAYERS = _hooks("tracing.py", "LAYERS")
CACHES = _hooks("run.py", "CACHES")


def test_hook_tables_are_not_empty():
    assert len(LAYERS) >= 20
    assert len(CACHES) >= 4


@pytest.mark.parametrize("module, path", LAYERS)
def test_traced_layer_resolves(module, path):
    assert module.startswith("coadorbits.")
    assert callable(_resolve(module, path))


@pytest.mark.parametrize("module, attr", CACHES)
def test_cache_resolves_with_cache_info(module, attr):
    assert module.startswith("coadorbits.")
    assert callable(_resolve(module, attr).cache_info)


@pytest.mark.parametrize("kind, n", [("A", 5), ("B", 4), ("D", 4)])
def test_root_keyed_table_view(kind, n):
    table = structure_table(kind, n)
    view = table.table
    assert len(view) == sum(map(len, table.by_index))
    for (alpha, beta), (c, gamma) in view.items():
        assert isinstance(alpha, PositiveRoot) and isinstance(beta, PositiveRoot)
        assert type(c) is int and isinstance(gamma, PositiveRoot)
