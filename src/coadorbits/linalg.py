"""Exact linear algebra over the rationals.

Nothing here touches floating point: ranks, kernels and determinants are
exact, which is what makes orbit dimensions trustworthy integers rather
than numerical estimates. The public functions take rows (lists or tuples)
of ints and ``fractions.Fraction``s; the elimination itself takes sparse
integer rows.

One exact elimination over the integers, ``_reduced``, takes sparse
integer rows {column: int} and returns their reduced row echelon form over
Q, each row scaled to coprime integers with a positive pivot. ``rank`` and
``kernel_basis`` scale each row to integers by the lcm of its denominators
(``_integer_rows``); ``functionals`` reduces the integer rows of a skew
form directly, once for both its rank and its kernel. A rank counts the
pivots. ``_kernel`` reads the kernel basis off a given reduced form, which
it leaves as it is, as Fraction tuples for ``kernel_basis`` and
``functionals.radical_basis``, one Fraction per entry. ``det`` eliminates
the same integer rows fraction-free (Bareiss 1968): each step divides
exactly by the previous pivot, so no step leaves the integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Matrix = Sequence[Sequence[Fraction]]


def _integer_rows(rows: Matrix) -> list[dict[int, int]]:
    """Each row times the lcm of its denominators, as {column: nonzero integer}.

    Rows of unequal length and entries that are not int or Fraction raise
    ValueError.
    """
    out = []
    ncols = len(rows[0]) if rows else 0
    for row in rows:
        if len(row) != ncols:
            raise ValueError("matrix rows have unequal lengths")
        for x in row:
            if type(x) is bool or not isinstance(x, (int, Fraction)):
                raise ValueError(f"matrix entries must be int or Fraction, not {type(x).__name__}")
        entries = [(j, x) for j, x in enumerate(row) if x]
        # math.lcm reads lists here and below: unpacking generators into it
        # left memory allocated on CPython 3.11 and raised the peak RSS.
        scale = math.lcm(*[x.denominator for _, x in entries])
        out.append({j: x.numerator * (scale // x.denominator) for j, x in entries})
    return out


def _reduced(int_rows: list[dict[int, int]]) -> dict[int, dict[int, int]]:
    """The reduced row echelon form over Q: {pivot column: its row as coprime ints}.

    Rows are inserted shortest first, which keeps the pivot rows sparse. A
    row is cleared at the pivots found so far by cross-multiplying with the
    two coefficients over their gcd; a reduced pivot row holds no other
    pivot column, so clearing one brings none back. A nonzero remainder,
    made primitive with a positive entry at its first column, becomes that
    column's pivot row and clears the column from the earlier pivot rows,
    each made primitive again. So every row is the primitive integer
    multiple of a row of the one reduced form over Q, whatever order the
    rows come in, and by Cramer's rule each entry is bounded by a minor.
    """
    echelon: dict[int, dict[int, int]] = {}
    for row in sorted(int_rows, key=len):
        row = dict(row)
        for c in [c for c in row if c in echelon]:
            top = echelon[c]
            a = row.pop(c)
            g = math.gcd(a, top[c])
            a, s = a // g, top[c] // g
            if s != 1:
                row = {j: x * s for j, x in row.items()}
            for j, x in top.items():
                if j != c:
                    row[j] = row.get(j, 0) - a * x
        row = {j: x for j, x in row.items() if x}
        if not row:
            continue
        c = min(row)
        g = math.gcd(*row.values())
        if row[c] < 0:
            g = -g
        if g != 1:
            row = {j: x // g for j, x in row.items()}
        b = row[c]
        for pc, top in echelon.items():
            d = top.pop(c, 0)
            if not d:
                continue
            g = math.gcd(d, b)
            d, s = d // g, b // g
            if s != 1:
                top = {j: x * s for j, x in top.items()}
            for j, x in row.items():
                if j != c:
                    y = top.get(j, 0) - d * x
                    if y:
                        top[j] = y
                    else:
                        del top[j]
            g = math.gcd(*top.values())
            echelon[pc] = {j: x // g for j, x in top.items()} if g != 1 else top
        echelon[c] = row
    return echelon


def _kernel(echelon: dict[int, dict[int, int]], ncols: int) -> list[tuple[Fraction, ...]]:
    """The reduced kernel basis, of width ncols, of a reduced form from ``_reduced``.

    Each free column fc gives a vector with 1 at fc and 0 at the other free
    columns; a reduced row with pivot b at pc and entry a at fc gives it
    Fraction(-a, b) at pc. A reduced row holds no other pivot column, so
    each entry is placed in one pass over the rows, which are only read.
    """
    zero, one = Fraction(0), Fraction(1)
    basis: dict[int, list[Fraction]] = {}
    for fc in range(ncols):
        if fc not in echelon:
            basis[fc] = v = [zero] * ncols
            v[fc] = one
    for pc, row in echelon.items():
        b = row[pc]
        for j, a in row.items():
            if j != pc:
                basis[j][pc] = Fraction(-a, b)
    return [tuple(v) for v in basis.values()]


def rank(rows: Matrix) -> int:
    """Exact rank of a rational matrix: the number of its pivots."""
    return len(_reduced(_integer_rows(rows)))


def kernel_basis(rows: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel {v : rows @ v = 0}, exact.

    Each vector has a 1 at its own free column and 0 at the other free
    columns, so the basis is in reduced form and deterministic.
    """
    ncols = len(rows[0]) if rows else 0
    return _kernel(_reduced(_integer_rows(rows)), ncols)


def det(rows: Matrix) -> Fraction:
    """Exact determinant of a square rational matrix.

    Bareiss elimination of the integer rows of ``_integer_rows``: a zero
    pivot swaps in a lower row, and each step divides exactly by the
    previous pivot, so the last pivot over the product of the row scales is
    the determinant. A matrix that is not square, or holds an entry that is
    not int or Fraction, raises ValueError.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    m = [[row.get(j, 0) for j in range(n)] for row in _integer_rows(rows)]
    sign, prev = 1, 1
    for k in range(n):
        p = next((r for r in range(k, n) if m[r][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        top = m[k]
        for row in m[k + 1:]:
            row[k + 1:] = [(top[k] * row[j] - row[k] * top[j]) // prev for j in range(k + 1, n)]
        prev = top[k]
    scale = 1
    for row in rows:
        scale *= math.lcm(*[x.denominator for x in row])
    return Fraction(sign * prev, scale)
