"""Exact linear algebra over the rationals.

Nothing here touches floating point: ranks, kernels and determinants are
exact, which is what makes orbit dimensions trustworthy integers rather
than numerical estimates. The public functions take rows (lists or tuples)
of ints and ``fractions.Fraction``s; the elimination itself takes sparse
integer rows.

One exact elimination over the integers, in two stages, takes sparse
integer rows {column: int}, each row kept as coprime integers with a
positive pivot. ``_forward`` builds an echelon form, clearing only each
row's leading entry; a rank counts its pivots. ``_reduce_above`` reduces
that form above its pivots to the reduced row echelon form over Q, which
only a kernel needs, and ``_kernel`` reads the kernel basis off it, as
Fraction tuples, writing each entry once at the output position it is
given for its column and building each distinct Fraction once per call.
``rank`` and ``kernel_basis`` scale each row to integers by the lcm of
its denominators (``_integer_rows``); ``functionals`` eliminates the
integer rows of a skew form directly, with its rows and columns in flag
order, caching the forward form for both its rank and its radical, and
has the kernel written at canonical positions. Pivot and free columns
follow the column order the rows are given in; the rank does not.

``det`` eliminates the same integer rows fraction-free (Bareiss 1968):
each step divides exactly by the previous pivot, so no step leaves the
integers.
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


def _forward(int_rows: list[dict[int, int]]) -> dict[int, dict[int, int]]:
    """An echelon form over Q: {pivot column: its row as coprime ints}.

    The nonzero rows are inserted shortest first, which keeps the pivot
    rows sparse. While a row's leading column is already a pivot, that
    entry is cleared by cross-multiplying with the pivot row over their
    gcd; pivot rows hold no column left of their pivot, so the leading
    column only moves right. A row whose leading column is new, made
    primitive with a positive entry there, becomes that column's pivot
    row. Only leading entries are cleared, so a pivot row may still hold
    later pivot columns; the pivot columns are those of the reduced form
    whatever order the rows come in, and a rank counts them. The input
    rows are only read; one that is already a primitive pivot row is
    shared with the input, not copied.
    """
    echelon: dict[int, dict[int, int]] = {}
    for row in sorted([row for row in int_rows if row], key=len):
        c = min(row)
        if c in echelon:
            row = dict(row)
        while c in echelon:
            top = echelon[c]
            g = math.gcd(row[c], top[c])
            a, s = row.pop(c) // g, top[c] // g
            if s != 1:
                row = {j: x * s for j, x in row.items()}
            for j, x in top.items():
                if j != c:
                    y = row.get(j, 0) - a * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
            if not row:
                break
            c = min(row)
        else:
            g = math.gcd(*row.values())
            if row[c] < 0:
                g = -g
            echelon[c] = {j: x // g for j, x in row.items()} if g != 1 else row
    return echelon


def _reduce_above(echelon: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """The reduced row echelon form over Q of a form from ``_forward``, which it only reads.

    Pivots are taken in decreasing column order. Each row is cleared at the
    later pivot columns it holds, by cross-multiplying with rows already
    reduced; a reduced row holds no other pivot column, so clearing one
    brings none back. The row is then made primitive again, and its pivot
    stays positive. So every row is the primitive integer multiple of a row
    of the one reduced form over Q, whatever order the rows came in, and by
    Cramer's rule each entry is bounded by a minor. A row that holds no
    later pivot is shared with the input, not copied.
    """
    reduced: dict[int, dict[int, int]] = {}
    for c in sorted(echelon, reverse=True):
        row = echelon[c]
        hits = [j for j in row if j in reduced]
        if hits:
            row = dict(row)
            for pc in hits:
                bottom = reduced[pc]
                g = math.gcd(row[pc], bottom[pc])
                a, s = row.pop(pc) // g, bottom[pc] // g
                if s != 1:
                    row = {j: x * s for j, x in row.items()}
                for j, x in bottom.items():
                    if j != pc:
                        y = row.get(j, 0) - a * x
                        if y:
                            row[j] = y
                        else:
                            del row[j]
            g = math.gcd(*row.values())
            if g != 1:
                row = {j: x // g for j, x in row.items()}
        reduced[c] = row
    return reduced


def _kernel(echelon: dict[int, dict[int, int]],
            position: Sequence[int]) -> list[tuple[Fraction, ...]]:
    """The reduced kernel basis of a reduced form from ``_reduce_above``, written at position.

    position[c] is the output index of column c, and its length the width.
    Each free column fc, in column order, gives a vector with 1 at
    position[fc] and 0 at the other free columns' positions; a reduced row
    with pivot b at pc and entry a at fc gives it Fraction(-a, b) at
    position[pc]. A reduced row holds no other pivot column, so each entry
    is written once, in one pass over the rows, which are only read. Each
    distinct (a, b) builds its Fraction once per call, and every vector
    that holds it shares it.
    """
    zero, one = Fraction(0), Fraction(1)
    ncols = len(position)
    basis: dict[int, list[Fraction]] = {}
    for fc, p in enumerate(position):
        if fc not in echelon:
            basis[fc] = v = [zero] * ncols
            v[p] = one
    memo: dict[int, dict[int, Fraction]] = {}
    for pc, row in echelon.items():
        b, p = row[pc], position[pc]
        quotients = memo.get(b)
        if quotients is None:
            quotients = memo[b] = {}
        for j, a in row.items():
            if j != pc:
                q = quotients.get(a)
                if q is None:
                    q = quotients[a] = Fraction(-a, b)
                basis[j][p] = q
    return [tuple(v) for v in basis.values()]


def rank(rows: Matrix) -> int:
    """Exact rank of a rational matrix: the number of its pivots."""
    return len(_forward(_integer_rows(rows)))


def kernel_basis(rows: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel {v : rows @ v = 0}, exact.

    Each vector has a 1 at its own free column and 0 at the other free
    columns, so the basis is in reduced form and deterministic.
    """
    ncols = len(rows[0]) if rows else 0
    return _kernel(_reduce_above(_forward(_integer_rows(rows))), range(ncols))


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
