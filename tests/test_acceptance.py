"""Acceptance gate: one test per shipped guarantee, at full stated scale.

Every check is exact (rational arithmetic, tolerance zero). Run with
``pytest tests/test_acceptance.py -v -s`` to see one PASS line per criterion.
"""

import json
import random
from fractions import Fraction as Q

from coadorbits.basic import (
    achievable_dimensions,
    basic_subset,
    derived_set,
    enumerate_basic_subsets,
    max_dimension,
    s_of,
    witness_basic_subsets,
)
from coadorbits.cli import main as cli_main
from coadorbits.functionals import coadjoint_apply, e_star, orbit_dimension
from coadorbits.oracle import random_functional, run_suite
from coadorbits.orbits import (
    chart_lines,
    chart_point,
    construct_group_word,
    orbit_chart,
    singular_set,
    singular_size_formula,
)
from coadorbits.polynomials import Polynomial
from coadorbits.roots import (
    DIFF,
    RootSystemKind,
    diff,
    get_system,
    short,
    sum_root,
)

KINDS = tuple(RootSystemKind)


def announce(number, name):
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def test_c01_root_counts():
    closed = {
        RootSystemKind.A: lambda n: n * (n - 1) // 2,
        RootSystemKind.B: lambda n: n * n,
        RootSystemKind.D: lambda n: n * n - n,
    }
    for kind in KINDS:
        for n in range(2, 11):
            assert len(get_system(kind, n).roots) == closed[kind](n)
    announce(1, "root-counts")


def test_c02_singular_set_cardinalities():
    for kind in KINDS:
        for n in range(2, 9):
            for alpha in get_system(kind, n).roots:
                data = singular_set(kind, n, alpha)
                expected = singular_size_formula(kind, n, alpha)
                if alpha.tag == DIFF:
                    assert expected == 2 * (alpha.j - alpha.i - 1)
                elif alpha.tag == "short":
                    assert expected == 2 * (n - alpha.i)
                elif kind is RootSystemKind.B:
                    assert expected == 2 * (2 * n - (alpha.i + alpha.j))
                else:
                    assert expected == 2 * (2 * n - alpha.i - alpha.j - 1)
                assert len(data.singular) == expected
    announce(2, "singular-cardinalities")


def test_c03_elementary_orbit_dimension():
    for kind in KINDS:
        for n in range(2, 7):
            system = get_system(kind, n)
            for alpha in system.roots:
                expected = len(singular_set(kind, n, alpha).singular)
                for c in (Q(1), Q(2), Q(-3, 5)):
                    assert orbit_dimension(e_star(system, alpha, c)) == expected
    announce(3, "elementary-orbit-dimension")


def test_c04_chart_soundness():
    report = run_suite("chart-soundness", max_n=4, trials=100)
    assert not report.failures, report.failures[:3]
    # pinned worked-example value, certified sign convention
    chart = orbit_chart("B", 3, sum_root(1, 3), 1)
    e1 = Polynomial.var(chart.system.index_of(short(1)))
    minus_half_square = Q(-1, 2) * (e1 * e1)
    assert chart.constraints[diff(1, 3)] == minus_half_square
    assert "f(e1-e3) = -1/2*f(e1)^2" in chart_lines(chart, "text")
    announce(4, "chart-soundness")


def test_c05_chart_round_trip():
    for kind in KINDS:
        for n in range(2, 5):
            system = get_system(kind, n)
            for alpha in system.roots:
                chart = orbit_chart(kind, n, alpha, 1)
                for t in range(50):
                    rng = random.Random(f"accept5:{kind.value}:{n}:{alpha}:{t}")
                    assignment = {
                        r: Q(rng.choice([-3, -2, -1, 0, 1, 2, 3]), rng.choice([1, 2]))
                        for r in chart.data.singular
                    }
                    f = chart_point(chart, assignment)
                    word = construct_group_word(kind, n, alpha, f)
                    assert coadjoint_apply(word, e_star(system, alpha)) == f
    announce(5, "chart-round-trip")


def test_c06_decomposition_uniqueness():
    report = run_suite("decompose-roundtrip", max_n=6, trials=200)
    assert not report.failures, report.failures[:3]
    announce(6, "decomposition-uniqueness")


def test_c07_derived_set_example():
    d = basic_subset(6, [diff(1, 3), diff(3, 5), diff(2, 4), diff(4, 6)])
    assert derived_set(d) == frozenset({diff(1, 2)})
    announce(7, "derived-set-example")


def test_c08_single_orbit_dichotomy():
    report = run_suite("single-orbit-scan", max_n=5, trials=20)
    assert not report.failures, report.failures[:3]
    announce(8, "single-orbit-dichotomy")


def test_c09_achievable_dimensions():
    for n in range(2, 9):
        reachable = sorted(
            {s_of(d) for d in enumerate_basic_subsets(n) if not derived_set(d)}
        )
        top = (n - 2) * n // 2 if n % 2 == 0 else (n - 1) ** 2 // 2
        assert reachable == list(range(0, top + 1, 2))
        assert reachable == achievable_dimensions(n)
    ws6 = dict(witness_basic_subsets(6))
    assert [ws6[m].roots for m in range(5)] == [
        (diff(3, 4),), (diff(3, 5),), (diff(2, 5),), (diff(2, 6),), (diff(1, 6),),
    ]
    ws5 = dict(witness_basic_subsets(5))
    assert [ws5[m].roots for m in range(4)] == [
        (diff(3, 4),), (diff(2, 4),), (diff(2, 5),), (diff(1, 5),),
    ]
    announce(9, "achievable-dimensions")


def test_c10_max_dimension_bound():
    for n in range(2, 9):
        top = (n - 2) * n // 2 if n % 2 == 0 else (n - 1) ** 2 // 2
        assert max(s_of(d) for d in enumerate_basic_subsets(n)) == top
        assert max_dimension(n) == top
    for n in range(2, 7):
        system = get_system(RootSystemKind.A, n)
        bound = max_dimension(n)
        for t in range(500):
            rng = random.Random(f"accept10:{n}:{t}")
            assert orbit_dimension(random_functional(system, rng)) <= bound
    announce(10, "max-dimension-bound")


def test_c11_far_support_forces_dimension_four():
    report = run_suite("two-dim-support", max_n=6, trials=100)
    assert not report.failures, report.failures[:3]
    announce(11, "two-dim-support-bound")


def test_c12_weyl_index_report(capsys):
    for n in range(2, 9):
        code = cli_main(["dims", "--n", str(n), "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        bound = (n - 2) * n // 4 if n % 2 == 0 else (n - 1) ** 2 // 4
        assert payload["weyl_indices"] == list(range(bound + 1))
        assert payload["max_weyl_index"] == bound
        assert payload["dims"] == [2 * m for m in payload["weyl_indices"]]
    announce(12, "weyl-index-report")
