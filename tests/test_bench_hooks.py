"""The benchmark's hooks into the package still resolve.

perfbench/tracing.py wraps the functions named in LAYERS and perfbench/run.py
reads cache statistics from the functions named in CACHES. Both are read
here as source, without importing perfbench, so a renamed or uncached
package function fails this test instead of a traced benchmark run. The
root-keyed ``BracketTable.table`` view, which perfbench reads outside those
tables (tracing.py's entry counter, the orbit-rank certificate in
workloads.py), is checked here too, and so is what perfbench reads of a
functional: the density and coefficient-size counters in tracing.py, the
round-trip verdict and the orbit-rank certificate in workloads.py. So is
what it reads of singular data: the round-trip assignments and the orbit-rank
highest root in workloads.py, and of a radical basis: the orbit-rank
certificate in workloads.py.
"""

import ast
import importlib
from fractions import Fraction
from pathlib import Path

import pytest

from coadorbits import functionals, orbits
from coadorbits.roots import PositiveRoot, diff, get_system, short, structure_table, sum_root

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


def test_functional_reads_of_perfbench():
    # A moved functional with a real type-B half, so its values are not all integral.
    system = get_system("B", 4)
    start = functionals.functional(system, {short(1): 3, sum_root(1, 2): Fraction(-1, 3)})
    word = functionals.group_word([(diff(3, 4), Fraction(2, 5)), (short(2), 1)])
    f = functionals.coadjoint_apply(word, start)
    assert f != start
    values = f.values
    # tracing.py: len(values) / len(f.system.roots), and each value's bit lengths.
    assert 0 < len(values) <= len(f.system.roots)
    assert all(type(v) is Fraction and v for v in values.values())
    assert any(v.denominator != 1 for v in values.values())
    assert max(max(v.numerator.bit_length(), v.denominator.bit_length())
               for v in values.values()) > 0
    # workloads.py: values.get(gamma) in the orbit-rank certificate, f.value(r) in
    # the round-trip verdict, and == between functionals.
    for root in system.roots:
        assert values.get(root, 0) == f.value(root)
        assert (values.get(root) is None) == (f.value(root) == 0)
    assert functionals.functional(system, values) == f


@pytest.mark.parametrize("kind, n", [("A", 5), ("B", 4), ("D", 4)])
def test_radical_reads_of_perfbench(kind, n):
    # workloads.py's orbit-rank certificate reads v[b] of each radical vector
    # for b < N, and hands list(v) to _rank_mod_p, which reads .numerator and
    # .denominator, and to _rank_exact, which divides with / (a float on ints).
    system = get_system(kind, n)
    size = len(system.roots)
    f = functionals.functional(system, {root: Fraction(k % 4 - 2, k % 3 + 1)
                                        for k, root in enumerate(system.roots)})
    radical = functionals.radical_basis(f)
    assert len(radical) == size - functionals.orbit_dimension(f) > 0
    for v in radical:
        assert type(v) is tuple and len(v) == size
        assert all(type(x) is Fraction for x in v)
    assert any(x.denominator != 1 for v in radical for x in v)


@pytest.mark.parametrize("kind, n", [("A", 5), ("B", 4), ("D", 4)])
def test_singular_data_reads_of_perfbench(kind, n):
    system = get_system(kind, n)
    for alpha in system.roots:
        # workloads.py: singular_set(...).singular keys the round-trip assignment,
        # and its length picks the orbit-rank highest root.
        singular = orbits.singular_set(system.kind, n, alpha).singular
        assert type(singular) is tuple
        assert all(root in system.roots for root in singular)
        assert len(singular) == orbits.singular_size_formula(kind, n, alpha)
        assignment = {root: Fraction(k + 2, 3) for k, root in enumerate(singular)}
        point = orbits.chart_point(orbits.orbit_chart(kind, n, alpha, Fraction(-3, 5)), assignment)
        assert all(point.value(root) == value for root, value in assignment.items())
