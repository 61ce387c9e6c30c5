"""Exact rank, kernel and determinant against independent references."""

import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coadorbits.linalg import det, kernel_basis, rank

entries = st.one_of(
    st.just(Q(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)


@st.composite
def matrices(draw, max_rows=5, max_cols=5, square=False):
    """A list of lists or a tuple of tuples; empty and zero-width matrices included."""
    nrows = draw(st.integers(0, max_rows))
    ncols = nrows if square else draw(st.integers(0, max_cols))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        # A combination of two rows makes rank deficiency common.
        a, b = draw(entries), draw(entries)
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
