"""Exact linear algebra over the rationals.

Everything here works on sequences of rows (lists or tuples) of
``fractions.Fraction`` and never touches floating point: ranks, kernels and
determinants are exact, which is what makes orbit dimensions trustworthy
integers rather than numerical estimates.

One certified modular kernel, ``_kernel``, takes sparse integer rows
{column: int}. ``rank`` and ``kernel_basis`` scale each Fraction row to
integers by the lcm of its denominators and pass it on; ``functionals``
passes the integer rows of a skew form directly. The rows are inserted,
shortest first, into the reduced row echelon form modulo a prime p. Each
free column gives a kernel vector with 1 there, 0 at the other free columns
and at the pivots after it, and entries at the earlier pivots read from
their residues over one denominator per vector, by rational reconstruction
(Wang 1981) where the denominator so far does not give a small numerator.
The basis is accepted only if the integer rows annihilate the integer
numerators of every vector exactly. That certifies it: the pivot columns
modulo p have a nonzero minor, so they are independent over Q, and each
vector shows its free column in the span of the pivots before it. So the
pivots and the vectors are exactly those of elimination over Q. When a
certificate fails, the next modulus of a fixed ladder (2^127 - 1,
2^521 - 1) is tried, and after the last one the Fraction elimination
``_eliminate`` with back-substitution decides, on the integer rows read as
Fractions. A vector is a denominator and its integer numerators, so a rank
only counts vectors; ``_fractions`` reads them as Fraction tuples for
``kernel_basis`` and ``functionals.radical_basis``. ``det`` reads
``_eliminate``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Matrix = Sequence[Sequence[Fraction]]
# A kernel vector as (denominator, {column: integer numerator}).
Vector = tuple[int, dict[int, int]]

# Mersenne primes tried in turn before the Fraction elimination.
_MODULI = (2**127 - 1, 2**521 - 1)


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


def _reduced_mod(int_rows: list[dict[int, int]], p: int) -> dict[int, dict[int, int]]:
    """Reduced row echelon form modulo p: {pivot column: its row without the pivot's 1}.

    Rows are inserted shortest first, which keeps the pivot rows sparse. Each
    row is cleared at the pivot columns found so far; a reduced pivot row
    holds no other pivot column, so clearing one brings none back. A nonzero
    remainder, scaled to 1 at its first column, becomes that column's pivot
    row and clears the column from the earlier pivot rows. So a pivot row
    holds only columns after its pivot, and the result is the one reduced
    form of the rows modulo p, whatever order they come in.
    """
    echelon: dict[int, dict[int, int]] = {}
    for row in sorted(int_rows, key=len):
        row = dict(row)
        for c in [c for c in row if c in echelon]:
            d = row.pop(c)
            for j, b in echelon[c].items():
                row[j] = row.get(j, 0) - d * b
        row = {j: r for j, a in row.items() if (r := a % p)}
        if not row:
            continue
        c = min(row)
        inv = pow(row.pop(c), -1, p)
        row = {j: a * inv % p for j, a in row.items()}
        for top in echelon.values():
            d = top.pop(c, 0)
            if d:
                for j, b in row.items():
                    x = (top.get(j, 0) - d * b) % p
                    if x:
                        top[j] = x
                    else:
                        del top[j]
        echelon[c] = row
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


def _modular_kernel(int_rows: list[dict[int, int]], ncols: int, p: int) -> list[Vector] | None:
    """The reduced kernel basis read modulo p, or None if its certificate fails.

    A free column fc gets minus the reduced form's fc entry at each pivot,
    and only rows of pivots before fc hold one; so 1 at fc and the zeros at
    the other free columns and the later pivots hold by construction. Each
    vector keeps one denominator D, which starts at 1: a residue r is read
    as the numerator r D mod p when that lies within the bound, and only
    otherwise rebuilt by ``_reconstruct``, which widens D to take its
    denominator. The exact product of the integer rows with the integer
    numerators is what is checked.
    """
    echelon = _reduced_mod(int_rows, p)
    bound = math.isqrt(p >> 1)
    residues: list[list[tuple[int, int]]] = [[] for _ in range(ncols)]
    for pc, row in echelon.items():
        for j, a in row.items():
            residues[j].append((pc, p - a))
    columns: list[list[tuple[int, int]]] = [[] for _ in range(ncols)]
    for i, row in enumerate(int_rows):
        for j, a in row.items():
            columns[j].append((i, a))
    basis = []
    for fc in range(ncols):
        if fc in echelon:
            continue
        den, nums = 1, {}
        for pc, r in residues[fc]:
            x = r * den % p
            if x >= p - bound:
                x -= p
            elif x > bound:
                n, d = _reconstruct(r, p, bound)
                if d < 0:
                    n, d = -n, -d
                g = math.gcd(den, d)
                if d != g:
                    for j in nums:
                        nums[j] *= d // g
                x = n * (den // g)
                den *= d // g
            nums[pc] = x
        nums[fc] = den
        image = [0] * len(int_rows)
        for j, x in nums.items():
            for i, a in columns[j]:
                image[i] += a * x
        if any(image):
            return None
        basis.append((den, nums))
    return basis


def _kernel(int_rows: list[dict[int, int]], ncols: int) -> list[Vector]:
    """The reduced kernel basis of sparse integer rows {column: int} of width ncols.

    Each vector is (denominator, {column: numerator}), so that a rank needs
    no Fractions; ``_fractions`` reads the vectors as Fraction tuples.
    """
    for p in _MODULI:
        basis = _modular_kernel(int_rows, ncols, p)
        if basis is not None:
            return basis
    basis = []
    for v in _exact_kernel([[Fraction(row.get(j, 0)) for j in range(ncols)] for row in int_rows]):
        den = math.lcm(*[x.denominator for x in v])
        basis.append((den, {j: x.numerator * (den // x.denominator) for j, x in enumerate(v) if x}))
    return basis


def _fractions(vectors: list[Vector], ncols: int) -> list[tuple[Fraction, ...]]:
    """Kernel vectors (denominator, {column: numerator}) as Fraction tuples of width ncols."""
    basis = []
    for den, nums in vectors:
        v = [Fraction(0)] * ncols
        for j, x in nums.items():
            v[j] = Fraction(x, den)
        basis.append(tuple(v))
    return basis


def rank(rows: Matrix) -> int:
    """Exact rank of a rational matrix: its width less its nullity."""
    ncols = len(rows[0]) if rows else 0
    return ncols - len(_kernel(_integer_rows(rows), ncols))


def kernel_basis(rows: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel {v : rows @ v = 0}, exact.

    Each vector has a 1 at its own free column and 0 at the other free
    columns, so the basis is in reduced form and deterministic.
    """
    ncols = len(rows[0]) if rows else 0
    return _fractions(_kernel(_integer_rows(rows), ncols), ncols)


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
