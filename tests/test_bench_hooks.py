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
highest root in workloads.py, of a radical basis: the orbit-rank
certificate in workloads.py, and of a chart: the term counter in tracing.py
and the chart and round-trip checks in workloads.py. Last, perfbench/smoke.py
runs in a subprocess, so the hooks are exercised as a benchmark run uses them.
"""

import ast
import importlib
import subprocess
import sys
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
    word = functionals.GroupWord([(diff(3, 4), Fraction(2, 5)), (short(2), 1)])
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


@pytest.mark.parametrize("kind, n", [("A", 5), ("B", 4), ("D", 4)])
def test_chart_reads_of_perfbench(kind, n):
    system = get_system(kind, n)
    for alpha in system.roots:
        c = Fraction(-3, 5)
        chart = orbits.orbit_chart(kind, n, alpha, c)
        # tracing.py: the orbit_chart term counter sums len(poly.terms) over
        # chart.constraints.values(), which every chart of alpha shares read-only.
        terms = sum(len(poly.terms) for poly in chart.constraints.values())
        level_one = orbits.orbit_chart(kind, n, alpha).constraints
        assert level_one is chart.constraints
        assert terms == sum(len(poly.terms) for poly in level_one.values()) > 0
        assert len(chart.constraints) == len(chart.data.regular)
        with pytest.raises(TypeError):
            chart.constraints[alpha] = chart.constraints[alpha]
        # workloads.py: the chart kept in the check state is handed back to
        # contains, once per trial, and chart_point builds round-trip points.
        state = {"chart": chart}
        point = functionals.e_star(system, alpha, c)
        assert orbits.contains(state["chart"], point) is True
        assert orbits.contains(state["chart"], functionals.e_star(system, alpha)) is False
        assignment = {root: Fraction(1) for root in chart.data.singular}
        assert orbits.contains(state["chart"], orbits.chart_point(chart, assignment)) is True


def test_the_benchmark_smoke_test_passes():
    # The benchmark at tiny scale, traced and untraced, as its users run it:
    # a package change that breaks a traced run, a wrapped layer or a
    # cache's cache_info() fails here. It writes only under
    # perfbench/results/smoke, which git ignores.
    done = subprocess.run([sys.executable, str(PERFBENCH / "smoke.py")],
                          capture_output=True, text=True, timeout=300, cwd=PERFBENCH.parent)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "smoke: FAILED" not in done.stdout and "smoke: ok:" in done.stdout
