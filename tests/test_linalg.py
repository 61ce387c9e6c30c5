"""Exact rank, kernel and determinant against independent references."""

import itertools
import math
import random
from fractions import Fraction as Q
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coadorbits import linalg
from coadorbits.functionals import _skew_rows, functional, orbit_dimension, radical_basis, skew_form
from coadorbits.linalg import _eliminate, _exact_kernel, det, kernel_basis, rank
from coadorbits.oracle import random_functional, random_orbit_point
from coadorbits.orbits import singular_size_formula
from coadorbits.roots import diff, get_system, parse_root

P127, P521 = linalg._MODULI

entries = st.one_of(
    st.just(Q(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)

# Integers and fractions past the first modulus and its reconstruction bound,
# as Fractions and as plain ints.
wide_entries = st.one_of(
    entries,
    st.sampled_from([P127, -P127, 2 * P127, P521, 2**127, 2**128 + 1]),
    st.integers(-2**130, 2**130),
    st.builds(Q, st.integers(-2**70, 2**70), st.integers(1, 2**70)),
)


@st.composite
def matrices(draw, max_rows=5, max_cols=5, square=False, elements=entries):
    """A list of lists or a tuple of tuples; empty and zero-width matrices included."""
    nrows = draw(st.integers(0, max_rows))
    ncols = nrows if square else draw(st.integers(0, max_cols))
    rows = [draw(st.lists(elements, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        # A combination of two rows makes rank deficiency common.
        a, b = draw(elements), draw(elements)
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        rows[-1] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    if draw(st.booleans()):
        return tuple(tuple(row) for row in rows)
    return rows


def width(rows) -> int:
    return len(rows[0]) if rows else 0


def free_columns(rows) -> list[int]:
    """Columns that do not raise the rank of the columns before them."""
    return [c for c in range(width(rows))
            if rank([row[:c + 1] for row in rows]) == rank([row[:c] for row in rows])]


def reference_rank(rows) -> int:
    """The rank by Fraction elimination, the modular kernel's fallback."""
    return len(_eliminate(rows)[1])


def rungs(arg, call=kernel_basis) -> list[tuple[int, bool]]:
    """The moduli call(arg) tries, each with whether its certificate held."""
    tried = []
    modular_kernel = linalg._modular_kernel

    def spy(int_rows, ncols, p):
        basis = modular_kernel(int_rows, ncols, p)
        tried.append((p, basis is not None))
        return basis

    with mock.patch.object(linalg, "_modular_kernel", spy):
        call(arg)
    return tried


def leibniz(rows) -> Q:
    n = len(rows)
    total = Q(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        term = Q(-1 if inversions % 2 else 1)
        for r, c in enumerate(perm):
            term *= rows[r][c]
        total += term
    return total


@given(matrices())
def test_rank_plus_nullity_is_width(rows):
    assert rank(rows) + len(kernel_basis(rows)) == width(rows)


@given(matrices())
def test_kernel_vectors_are_exact_and_reduced(rows):
    basis = kernel_basis(rows)
    free = free_columns(rows)
    assert len(basis) == len(free)
    for fc, v in zip(free, basis):
        assert len(v) == width(rows)
        assert all(isinstance(x, Q) for x in v)
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
        assert [v[c] for c in free] == [1 if c == fc else 0 for c in free]


@given(matrices(elements=wide_entries))
def test_rank_and_kernel_equal_the_fraction_elimination(rows):
    basis = kernel_basis(rows)
    assert basis == _exact_kernel(rows)
    assert all(type(x) is Q for v in basis for x in v)
    assert rank(rows) == reference_rank(rows)


@given(matrices())
def test_small_entries_certify_at_the_first_modulus(rows):
    # Every minor here is far below 2^60, so the first rung must hold; a
    # broken modular kernel that the fallback would hide fails here.
    assert rungs(rows) == [(P127, True)]
    assert rungs(rows, rank) == [(P127, True)]


def test_a_multiple_of_the_first_modulus_has_rank_one():
    rows = [[P127]]
    assert rank(rows) == 1
    assert kernel_basis(rows) == []
    assert rungs(rows) == [(P127, False), (P521, True)]


def test_reconstruction_bound_is_sharp_at_the_first_modulus():
    # The kernel of [[d, -n]] is (n/d, 1); the first modulus rebuilds n/d
    # exactly when |n| and d are at most isqrt(p // 2).
    bound = math.isqrt(P127 // 2)
    assert rungs([[bound - 1, -bound]]) == [(P127, True)]
    assert rungs([[bound, -(bound + 1)]]) == [(P127, False), (P521, True)]
    assert kernel_basis([[bound, -(bound + 1)]]) == [(Q(bound + 1, bound), Q(1))]


def test_kernel_entries_past_every_bound_reach_the_fraction_fallback():
    rows = [[1, 2**600]]
    assert kernel_basis(rows) == [(Q(-2**600), Q(1))]
    assert rank(rows) == 1
    assert rungs(rows) == [(P127, False), (P521, False)]
    assert rungs(rows, rank) == [(P127, False), (P521, False)]


def test_skew_entries_past_every_bound_reach_the_fraction_fallback():
    # In A4 the kernel vector of e3-e4 is f(e2-e4)/f(e1-e3) at e1-e2: 3 * 2^600
    # here, past every reconstruction bound, so the integer skew rows reach
    # the Fraction elimination.
    system = get_system("A", 4)
    f = functional(system, {diff(1, 3): Q(1, 3), diff(2, 4): 2**600})
    rows = skew_form(f).rows
    assert rungs(f, radical_basis) == [(P127, False), (P521, False)]
    # The count path reads the same rows and takes the same rungs.
    assert rungs(f, orbit_dimension) == rungs(f, radical_basis)
    basis = radical_basis(f)
    assert basis == kernel_basis(rows) == _exact_kernel(rows)
    assert Q(3 * 2**600) in basis[0]
    assert all(type(x) is Q for v in basis for x in v)
    assert orbit_dimension(f) == rank(rows) == 2
    assert orbit_dimension(f) == len(system.roots) - len(basis)


@pytest.mark.parametrize("kind, n, seed", [("B", 6, 0), ("D", 7, 1)])
def test_highest_root_orbit_points_certify_at_the_first_modulus(kind, n, seed):
    # These points fail at 2^61 - 1, which the ladder no longer tries.
    alpha = parse_root("e1+e2")
    f, _ = random_orbit_point(kind, n, alpha, 1, seed=seed)
    rows = skew_form(f).rows
    assert rungs(rows) == [(P127, True)]
    assert kernel_basis(rows) == _exact_kernel(rows)
    assert rank(rows) == reference_rank(rows) == singular_size_formula(kind, n, alpha)
    # The integer skew rows of f take the same rungs to the same basis, on
    # the count path too.
    assert rungs(f, radical_basis) == rungs(f, orbit_dimension) == [(P127, True)]
    assert radical_basis(f) == kernel_basis(rows)
    assert orbit_dimension(f) == rank(rows) == len(f.system.roots) - len(radical_basis(f))


@given(st.sampled_from([("A", 4), ("B", 3), ("D", 4)]), st.data())
def test_count_path_agrees_with_the_radical_on_wide_values(system_args, data):
    system = get_system(*system_args)
    values = data.draw(st.lists(wide_entries, min_size=len(system.roots),
                                max_size=len(system.roots)))
    f = functional(system, dict(zip(system.roots, values)))
    assert orbit_dimension(f) == len(system.roots) - len(radical_basis(f))
    assert rungs(f, orbit_dimension) == rungs(f, radical_basis)
    assert orbit_dimension(f) == reference_rank(skew_form(f).rows)


@st.composite
def integer_rows(draw, max_rows=5, max_cols=6):
    """(sparse rows {column: nonzero int}, width): at least one row, entries past every modulus."""
    ncols = draw(st.integers(0, max_cols))
    values = st.one_of(st.integers(-3, 3), st.sampled_from([P127, -P127, 2 * P521, 2**128 + 1]),
                       st.integers(-2**600, 2**600))
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        columns = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)) if ncols else ()
        rows.append({j: v for j in sorted(columns) if (v := draw(values))})
    if len(rows) > 1 and draw(st.booleans()):
        # A combination of two rows makes rank deficiency common.
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows[-1] = {j: v for j in range(ncols) if (v := a * x.get(j, 0) + b * y.get(j, 0))}
    return rows, ncols


@given(integer_rows())
def test_integer_row_kernel_equals_the_fraction_elimination(case):
    int_rows, ncols = case
    dense = [[Q(row.get(j, 0)) for j in range(ncols)] for row in int_rows]
    vectors = linalg._kernel(int_rows, ncols)
    assert linalg._fractions(vectors, ncols) == _exact_kernel(dense)
    assert rank(dense) == ncols - len(vectors) == reference_rank(dense)


def _reference_reduced_mod(int_rows, ncols, p):
    """The reduced form by scanning every live row at each column, left to right."""
    live = [{j: r for j, a in row.items() if (r := a % p)} for row in int_rows]
    echelon = {}
    for c in range(ncols):
        reaching = [k for k, row in enumerate(live) if c in row]
        if not reaching:
            continue
        top = live.pop(min(reaching, key=lambda k: len(live[k])))
        inv = pow(top.pop(c), -1, p)
        top = {j: a * inv % p for j, a in top.items()}
        for row in itertools.chain(live, echelon.values()):
            d = row.pop(c, 0)
            if d:
                for j, b in top.items():
                    x = (row.get(j, 0) - d * b) % p
                    if x:
                        row[j] = x
                    else:
                        del row[j]
        echelon[c] = top
    return echelon


# The ladder's moduli, and two primes at which entries cancel far more often.
REDUCTION_MODULI = (7, 2**61 - 1, *linalg._MODULI)


def assert_reduced_forms_agree(int_rows, ncols):
    before = [dict(row) for row in int_rows]
    for p in REDUCTION_MODULI:
        assert linalg._reduced_mod(int_rows, p) == _reference_reduced_mod(int_rows, ncols, p)
    assert int_rows == before


@given(integer_rows())
def test_row_insertion_gives_the_column_scan_reduced_form(case):
    assert_reduced_forms_agree(*case)


@pytest.mark.parametrize("kind, n", [("A", 6), ("A", 8), ("B", 4), ("B", 5), ("D", 5), ("D", 6)])
def test_row_insertion_reduces_seeded_skew_rows_as_the_column_scan(kind, n):
    rng = random.Random(f"reduced:{kind}{n}")
    system = get_system(kind, n)
    for _ in range(3):
        int_rows, _ = _skew_rows(random_functional(system, rng))
        assert_reduced_forms_agree(int_rows, len(system.roots))


@pytest.mark.parametrize("kind, n, seed", [("B", 6, 0), ("D", 7, 1)])
def test_row_insertion_reduces_highest_root_skew_rows_as_the_column_scan(kind, n, seed):
    f, _ = random_orbit_point(kind, n, parse_root("e1+e2"), 1, seed=seed)
    assert_reduced_forms_agree(_skew_rows(f)[0], len(f.system.roots))


@given(matrices(max_rows=4, square=True))
def test_det_matches_leibniz(rows):
    got = det(rows)
    assert isinstance(got, Q)
    assert got == leibniz(rows)
    assert (got != 0) == (rank(rows) == len(rows))


@given(matrices())
def test_inputs_are_not_modified(rows):
    before = [list(row) for row in rows]
    rank(rows)
    kernel_basis(rows)
    assert [list(row) for row in rows] == before


def test_edge_shapes():
    assert rank([]) == 0 and kernel_basis([]) == [] and det([]) == 1
    assert rank([[], []]) == 0 and kernel_basis([[], []]) == []
    assert kernel_basis([[Q(0), Q(0)]]) == [(1, 0), (0, 1)]
    assert det(((Q(0), Q(1)), (Q(1), Q(0)))) == -1
    with pytest.raises(ValueError):
        det([[Q(1), Q(2)]])


def _sympy_matrix(sympy, rows):
    flat = [sympy.Rational(x.numerator, x.denominator) for row in rows for x in row]
    return sympy.Matrix(len(rows), width(rows), flat)


@given(matrices())
def test_rank_and_kernel_match_sympy(rows):
    sympy = pytest.importorskip("sympy")
    m = _sympy_matrix(sympy, rows)
    assert rank(rows) == m.rank()
    expected = [tuple(Q(int(x.p), int(x.q)) for x in v) for v in m.nullspace()]
    assert kernel_basis(rows) == expected


@given(matrices(square=True))
def test_det_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    d = _sympy_matrix(sympy, rows).det()
    assert det(rows) == Q(int(d.p), int(d.q))
