"""Exact linear algebra over the rationals.

Everything here works on sequences of rows (lists or tuples) of
``fractions.Fraction`` and never touches floating point: ranks, kernels and
determinants are exact, which is what makes orbit dimensions trustworthy
integers rather than numerical estimates.

One certified modular kernel, ``_kernel``, takes sparse integer rows
{column: int}. ``rank`` and ``kernel_basis`` scale each Fraction row to
integers by the lcm of its denominators and pass it on; ``functionals``
passes the integer rows of a skew form directly. The rows are brought to
reduced row echelon form modulo a prime p. Each free column gives a kernel
vector with 1 there, 0 at the other free columns and at the pivots after
it, and entries at the earlier pivots rebuilt from their residues by
rational reconstruction (Wang 1981). The basis is accepted only if the
integer rows annihilate every vector exactly. That certifies it: the pivot
columns modulo p have a nonzero minor, so they are independent over Q, and
each vector shows its free column in the span of the pivots before it. So
the pivots and the vectors are exactly those of elimination over Q. When a
certificate fails, the next modulus of a fixed ladder (2^61 - 1, 2^127 - 1,
2^521 - 1) is tried, and after the last one the Fraction elimination
``_eliminate`` with back-substitution decides, on the integer rows read as
Fractions. ``det`` reads ``_eliminate``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Sequence

Matrix = Sequence[Sequence[Fraction]]

# Mersenne primes tried in turn before the Fraction elimination.
_MODULI = (2**61 - 1, 2**127 - 1, 2**521 - 1)


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
    """Each row times the lcm of its denominators, as {column: nonzero integer}."""
    out = []
    for row in rows:
        entries = [(j, x) for j, x in enumerate(row) if x]
        # math.lcm reads lists here and below: unpacking generators into it
        # left memory allocated on CPython 3.11 and raised the peak RSS.
        scale = math.lcm(*[x.denominator for _, x in entries])
        out.append({j: x.numerator * (scale // x.denominator) for j, x in entries})
    return out


def _reduced_mod(int_rows: list[dict[int, int]], ncols: int, p: int) -> dict[int, dict[int, int]]:
    """Reduced row echelon form modulo p: {pivot column: its row without the pivot's 1}.

    Columns are taken left to right, so a pivot row holds only columns after
    its pivot. The reduced form does not depend on which row supplies a
    pivot, so the shortest one does, which keeps the rows sparse.
    """
    live = [{j: r for j, a in row.items() if (r := a % p)} for row in int_rows]
    echelon: dict[int, dict[int, int]] = {}
    for c in range(ncols):
        reaching = [k for k, row in enumerate(live) if c in row]
        if not reaching:
            continue
        top = live.pop(min(reaching, key=lambda k: len(live[k])))
        inv = pow(top.pop(c), -1, p)
        top = {j: a * inv % p for j, a in top.items()}
        for row in chain(live, echelon.values()):
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


def _reconstruct(a: int, p: int, bound: int) -> tuple[int, int]:
    """(n, d) with n = a d mod p and |n| <= bound, from the remainders of p and a.

    If a fraction with numerator and denominator at most ``bound`` has
    residue a, this is it (Wang 1981); any other answer fails the certificate.
    """
    r0, r1, t0, t1 = p, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return r1, t1


def _modular_kernel(int_rows: list[dict[int, int]], ncols: int,
                    p: int) -> list[tuple[Fraction, ...]] | None:
    """The reduced kernel basis read modulo p, or None if its certificate fails.

    A free column fc gets minus the reduced form's fc entry at each pivot,
    and only rows of pivots before fc hold one; so 1 at fc and the zeros at
    the other free columns and the later pivots hold by construction, and
    the exact product with the integer rows is what is checked.
    """
    echelon = _reduced_mod(int_rows, ncols, p)
    bound = math.isqrt(p >> 1)
    columns: list[list[tuple[int, int]]] = [[] for _ in range(ncols)]
    for i, row in enumerate(int_rows):
        for j, a in row.items():
            columns[j].append((i, a))
    basis = []
    for fc in range(ncols):
        if fc in echelon:
            continue
        entries = {fc: (1, 1)}
        for pc, row in echelon.items():
            if fc in row:
                entries[pc] = _reconstruct(p - row[fc], p, bound)
        scale = math.lcm(*[d for _, d in entries.values()])
        image = [0] * len(int_rows)
        for j, (n, d) in entries.items():
            w = n * (scale // d)
            for i, a in columns[j]:
                image[i] += a * w
        if any(image):
            return None
        v = [Fraction(0)] * ncols
        for j, (n, d) in entries.items():
            v[j] = Fraction(n, d)
        basis.append(tuple(v))
    return basis


def _kernel(int_rows: list[dict[int, int]], ncols: int) -> list[tuple[Fraction, ...]]:
    """The reduced kernel basis of sparse integer rows {column: int} of width ncols."""
    for p in _MODULI:
        basis = _modular_kernel(int_rows, ncols, p)
        if basis is not None:
            return basis
    return _exact_kernel([[Fraction(row.get(j, 0)) for j in range(ncols)] for row in int_rows])


def rank(rows: Matrix) -> int:
    """Exact rank of a rational matrix: its width less its nullity."""
    ncols = len(rows[0]) if rows else 0
    return ncols - len(_kernel(_integer_rows(rows), ncols))


def kernel_basis(rows: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel {v : rows @ v = 0}, exact.

    Each vector has a 1 at its own free column and 0 at the other free
    columns, so the basis is in reduced form and deterministic.
    """
    return _kernel(_integer_rows(rows), len(rows[0]) if rows else 0)


def det(rows: Matrix) -> Fraction:
    """Exact determinant of a square rational matrix."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    echelon, pivots, swaps = _eliminate(rows)
    if len(pivots) < n:
        return Fraction(0)
    result = Fraction(-1 if swaps % 2 else 1)
    for r in range(n):
        result *= echelon[r][r]
    return result
