"""Exact linear algebra over the rationals.

Nothing here touches floating point: ranks, kernels and determinants are
exact, which is what makes orbit dimensions trustworthy integers rather
than numerical estimates. The public functions take rows (lists or tuples)
of ints and ``fractions.Fraction``s; the elimination itself takes sparse
integer rows.

One exact elimination over the integers, ``_reduced``, takes sparse
integer rows {column: int} and returns their reduced row echelon form over
Q, each row scaled to coprime integers with a positive pivot (Bareiss 1968
keeps elimination over the integers in the same way). ``rank`` and
``kernel_basis`` scale each row to integers by the lcm of its denominators
(``_integer_rows``); ``functionals`` reduces the integer rows of a skew
form directly, once for both its rank and its kernel. A rank counts the
pivots. ``_kernel`` reads the kernel basis off a given reduced form, which
it leaves as it is, as Fraction tuples for ``kernel_basis`` and
``functionals.radical_basis``, one Fraction per entry. ``det`` and the
reference kernel ``_exact_kernel`` read the Fraction elimination
``_eliminate``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Matrix = Sequence[Sequence[Fraction]]


def _eliminate(rows: Matrix) -> tuple[list[list[Fraction]], list[int], int]:
    """Forward-eliminate a copy of ``rows``; return (echelon rows, pivot columns, swaps).

    Row r of the echelon form leads at column pivots[r]; the rows past the
    pivots are zero. Pivoting picks the first nonzero entry in the column,
    which is all a field needs; there is no magnitude to balance.
    """
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    swaps = 0
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot_row = next((k for k in range(r, nrows) if m[k][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            swaps += 1
        top = m[r]
        inv = Fraction(1) / top[c]
        for k in range(r + 1, nrows):
            if m[k][c]:
                d = m[k][c] * inv
                # Zeros of the pivot row leave an entry as it is.
                m[k] = [a - d * b if b else a for a, b in zip(m[k], top)]
        pivots.append(c)
    return m, pivots, swaps


def _exact_kernel(rows: Matrix) -> list[tuple[Fraction, ...]]:
    """The reduced kernel basis by Fraction elimination and back-substitution."""
    echelon, pivots, _ = _eliminate(rows)
    ncols = len(echelon[0]) if echelon else 0
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_set):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r in reversed(range(len(pivots))):
            pc, row = pivots[r], echelon[r]
            v[pc] = -sum((row[j] * v[j] for j in range(pc + 1, ncols) if v[j]),
                         Fraction(0)) / row[pc]
        basis.append(tuple(v))
    return basis


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
    -a / b at pc. A reduced row holds no other pivot column, so each entry
    is placed in one pass over the rows, which are only read.
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

    A matrix that is not square, or holds an entry that is not int or
    Fraction, raises ValueError.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    _integer_rows(rows)  # the entry check of rank and kernel_basis
    echelon, pivots, swaps = _eliminate(rows)
    if len(pivots) < n:
        return Fraction(0)
    result = Fraction(-1 if swaps % 2 else 1)
    for r in range(n):
        result *= echelon[r][r]
    return result
