"""Exact rank, kernel and determinant against independent references.

The references are the Fraction elimination (``_eliminate``,
``_exact_kernel`` and the determinant ``_fraction_det`` that Bareiss
elimination replaced, kept here verbatim), the Leibniz formula, sympy
where it is installed, a column-scan Fraction reduced form, the certified
modular kernel that the integer elimination replaced, kept here verbatim
with its ladder of moduli and its Fraction fallback, and the integer
kernel that the one-pass Fraction kernel replaced, kept here verbatim with
the step that read it as Fractions.
"""

import copy
import itertools
import math
import random
from fractions import Fraction
from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coadorbits import linalg
from coadorbits.functionals import (_skew_rows, functional, orbit_dimension, radical_basis,
                                    skew_form, zero_functional)
from coadorbits.linalg import Matrix, det, kernel_basis, rank
from coadorbits.oracle import random_functional, random_orbit_point
from coadorbits.orbits import singular_size_formula
from coadorbits.roots import diff, get_system, parse_root, sum_root

# A kernel vector as (denominator, {column: integer numerator}), the form
# both replaced kernels below return.
Vector = tuple[int, dict[int, int]]

# ---------------------------------------------------------------------------
# The Fraction elimination that ``linalg`` dropped, verbatim, with the
# determinant that read it
# ---------------------------------------------------------------------------

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


def _fraction_det(rows: Matrix) -> Fraction:
    """The determinant of a square matrix by Fraction elimination: the signed pivot product."""
    n = len(rows)
    echelon, pivots, swaps = _eliminate(rows)
    if len(pivots) < n:
        return Fraction(0)
    result = Fraction(-1 if swaps % 2 else 1)
    for r in range(n):
        result *= echelon[r][r]
    return result


# ---------------------------------------------------------------------------
# The certified modular kernel that ``linalg._reduced`` replaced, verbatim
# ---------------------------------------------------------------------------

# Mersenne primes tried in turn before the Fraction elimination.
_MODULI = (2**127 - 1, 2**521 - 1)
P127, P521 = _MODULI


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


def _reference_modular_kernel(int_rows, ncols, tried=None):
    """The modular kernel at each modulus in turn, then the Fraction elimination.

    Each modulus tried is appended to ``tried`` with whether its
    certificate held.
    """
    for p in _MODULI:
        basis = _modular_kernel(int_rows, ncols, p)
        if tried is not None:
            tried.append((p, basis is not None))
        if basis is not None:
            return basis
    basis = []
    for v in _exact_kernel([[Q(row.get(j, 0)) for j in range(ncols)] for row in int_rows]):
        den = math.lcm(*[x.denominator for x in v])
        basis.append((den, {j: x.numerator * (den // x.denominator) for j, x in enumerate(v) if x}))
    return basis


# ---------------------------------------------------------------------------
# The integer kernel that ``linalg._kernel`` replaced, verbatim, and the
# step that read its vectors as Fraction tuples
# ---------------------------------------------------------------------------

def _reference_int_kernel(echelon: dict[int, dict[int, int]], ncols: int) -> list[Vector]:
    """The reduced kernel basis, of width ncols, of a reduced form from ``_reduced``.

    A free column fc takes L, the lcm of the pivots of the reduced rows that
    hold it; each such row, with pivot b at pc and entry a at fc, gives
    -a L / b at pc, and the vector is divided by the gcd of its entries.
    Each vector is (denominator, {column: numerator}); ``_fractions`` reads
    the vectors as Fraction tuples.
    """
    held: list[list[tuple[int, int, int]]] = [[] for _ in range(ncols)]
    for pc, row in echelon.items():
        for j, a in row.items():
            if j != pc:
                held[j].append((pc, row[pc], a))
    basis = []
    for fc in range(ncols):
        if fc in echelon:
            continue
        den = math.lcm(*[b for _, b, _ in held[fc]])
        nums = {pc: -a * (den // b) for pc, b, a in held[fc]}
        g = math.gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {j: x // g for j, x in nums.items()}
        nums[fc] = den
        basis.append((den, nums))
    return basis


def _fractions(vectors: list[Vector], ncols: int) -> list[tuple[Q, ...]]:
    """Kernel vectors (denominator, {column: numerator}) as Fraction tuples of width ncols."""
    basis = []
    for den, nums in vectors:
        v = [Q(0)] * ncols
        for j, x in nums.items():
            v[j] = Q(x, den)
        basis.append(tuple(v))
    return basis


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
    """The rank by Fraction elimination."""
    return len(_eliminate(rows)[1])


def rungs(rows) -> list[tuple[int, bool]]:
    """The moduli the reference modular kernel tries on rows, each with whether its certificate held."""
    tried = []
    _reference_modular_kernel(linalg._integer_rows(rows), width(rows), tried)
    return tried


def int_skew_rows(f) -> list[dict[int, int]]:
    """The sparse integer skew rows of f, times its denominator."""
    return _skew_rows(f.system, f.nums)


def skew_rungs(f) -> list[tuple[int, bool]]:
    """The moduli the reference modular kernel tries on the integer skew rows of f."""
    tried = []
    _reference_modular_kernel(int_skew_rows(f), len(f.system.roots), tried)
    return tried


def assert_kernel_agrees(rows):
    """kernel_basis and rank equal the Fraction elimination and the reference modular kernel."""
    ncols = width(rows)
    reference = _reference_modular_kernel(linalg._integer_rows(rows), ncols)
    assert kernel_basis(rows) == _exact_kernel(rows) == _fractions(reference, ncols)
    assert rank(rows) == reference_rank(rows) == ncols - len(reference)


def assert_radical_agrees(f):
    """radical_basis and orbit_dimension of f equal both references on its skew rows."""
    int_rows = int_skew_rows(f)
    rows, ncols = skew_form(f).rows, len(f.system.roots)
    reference = _reference_modular_kernel(int_rows, ncols)
    basis = radical_basis(f)
    assert basis == kernel_basis(rows) == _exact_kernel(rows) == _fractions(reference, ncols)
    assert all(type(x) is Q for v in basis for x in v)
    assert orbit_dimension(f) == rank(rows) == reference_rank(rows) == ncols - len(reference)


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


# The tests below keep the inputs that took the reference modular kernel
# to each rung of its ladder and to its Fraction fallback. The reference's
# rungs are asserted so that each input still reaches the case it names;
# the integer elimination must give the same basis and rank on every one.

@given(matrices())
def test_small_entries_certify_at_the_first_modulus(rows):
    # Every minor here is far below 2^60, so the reference's first rung holds.
    assert rungs(rows) == [(P127, True)]
    assert_kernel_agrees(rows)


def test_a_multiple_of_the_first_modulus_has_rank_one():
    rows = [[P127]]
    assert rank(rows) == 1
    assert kernel_basis(rows) == []
    assert rungs(rows) == [(P127, False), (P521, True)]
    assert_kernel_agrees(rows)


def test_reconstruction_bound_is_sharp_at_the_first_modulus():
    # The kernel of [[d, -n]] is (n/d, 1); the reference's first modulus
    # rebuilds n/d exactly when |n| and d are at most isqrt(p // 2).
    bound = math.isqrt(P127 // 2)
    assert rungs([[bound - 1, -bound]]) == [(P127, True)]
    assert rungs([[bound, -(bound + 1)]]) == [(P127, False), (P521, True)]
    assert kernel_basis([[bound, -(bound + 1)]]) == [(Q(bound + 1, bound), Q(1))]
    assert_kernel_agrees([[bound - 1, -bound]])
    assert_kernel_agrees([[bound, -(bound + 1)]])


def test_kernel_entries_past_every_bound_reach_the_fraction_fallback():
    rows = [[1, 2**600]]
    assert kernel_basis(rows) == [(Q(-2**600), Q(1))]
    assert rank(rows) == 1
    assert rungs(rows) == [(P127, False), (P521, False)]
    assert_kernel_agrees(rows)


def test_skew_entries_past_every_bound_reach_the_fraction_fallback():
    # In A4 the kernel vector of e3-e4 is f(e2-e4)/f(e1-e3) at e1-e2: 3 * 2^600
    # here, past every reconstruction bound, so the reference takes the
    # integer skew rows to the Fraction elimination.
    system = get_system("A", 4)
    f = functional(system, {diff(1, 3): Q(1, 3), diff(2, 4): 2**600})
    assert skew_rungs(f) == [(P127, False), (P521, False)]
    basis = radical_basis(f)
    assert Q(3 * 2**600) in basis[0]
    assert orbit_dimension(f) == 2
    assert orbit_dimension(f) == len(system.roots) - len(basis)
    assert_radical_agrees(f)


@pytest.mark.parametrize("kind, n, seed", [("B", 6, 0), ("D", 7, 1)])
def test_highest_root_orbit_points_certify_at_the_first_modulus(kind, n, seed):
    # These points fail at 2^61 - 1, which the reference's ladder does not try.
    alpha = parse_root("e1+e2")
    f, _ = random_orbit_point(kind, n, alpha, 1, seed=seed)
    rows = skew_form(f).rows
    assert rungs(rows) == skew_rungs(f) == [(P127, True)]
    assert_kernel_agrees(rows)
    assert rank(rows) == singular_size_formula(kind, n, alpha)
    assert orbit_dimension(f) == len(f.system.roots) - len(radical_basis(f))
    assert_radical_agrees(f)


@given(st.sampled_from([("A", 4), ("B", 3), ("D", 4)]), st.data())
def test_count_path_agrees_with_the_radical_on_wide_values(system_args, data):
    system = get_system(*system_args)
    values = data.draw(st.lists(wide_entries, min_size=len(system.roots),
                                max_size=len(system.roots)))
    f = functional(system, dict(zip(system.roots, values)))
    assert orbit_dimension(f) == len(system.roots) - len(radical_basis(f))
    assert_radical_agrees(f)


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
    basis = linalg._kernel(linalg._reduced(int_rows), ncols)
    assert basis == _exact_kernel(dense)
    assert basis == _fractions(_reference_modular_kernel(int_rows, ncols), ncols)
    assert rank(dense) == ncols - len(basis) == reference_rank(dense)


def assert_fraction_tuples(basis, ncols):
    """Each vector is a tuple of width ncols whose entries are all exactly Fractions."""
    assert all(type(v) is tuple and len(v) == ncols for v in basis)
    assert all(type(x) is Q for v in basis for x in v)


@given(integer_rows())
def test_kernel_equals_the_integer_kernel_it_replaced(case):
    int_rows, ncols = case
    echelon = linalg._reduced(int_rows)
    basis = linalg._kernel(echelon, ncols)
    dense = [[Q(row.get(j, 0)) for j in range(ncols)] for row in int_rows]
    assert basis == _fractions(_reference_int_kernel(echelon, ncols), ncols)
    assert basis == _exact_kernel(dense)
    assert basis == _fractions(_reference_modular_kernel(int_rows, ncols), ncols)
    assert_fraction_tuples(basis, ncols)


def _radical_cases(kind, n):
    """A random, a highest-root orbit point and a wide functional of kind and n."""
    system = get_system(kind, n)
    rng = random.Random(f"one-pass-kernel:{kind}{n}")
    highest = diff(1, n) if kind == "A" else sum_root(1, 2)
    wide = {root: Q(rng.randrange(-2**200, 2**200), rng.randrange(1, 2**80))
            for root in system.roots if rng.randrange(2)}
    return [random_functional(system, rng),
            random_orbit_point(kind, n, highest, Q(-3, 2), seed=n)[0],
            functional(system, wide)]


@pytest.mark.parametrize("kind", ["A", "B", "D"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_radical_equals_the_integer_kernel_it_replaced(kind, n):
    for f in _radical_cases(kind, n):
        ncols = len(f.system.roots)
        basis = radical_basis(f)
        assert basis == _fractions(_reference_int_kernel(linalg._reduced(int_skew_rows(f)), ncols),
                                   ncols)
        assert basis == _exact_kernel(skew_form(f).rows)
        assert_fraction_tuples(basis, ncols)
        assert orbit_dimension(f) == ncols - len(basis)


def test_kernel_edge_cases():
    one, zero = Q(1), Q(0)
    # A zero row leaves every column free: the identity basis.
    assert linalg._kernel(linalg._reduced([{}]), 1) == [(one,)]
    assert linalg._kernel(linalg._reduced([{}]), 2) == [(one, zero), (zero, one)]
    assert linalg._kernel(linalg._reduced([{}]), 0) == []
    # A full-rank form leaves none.
    assert linalg._kernel(linalg._reduced([{0: 2, 1: 4}, {1: -3}]), 2) == []
    assert kernel_basis([[Q(2), 1], [0, Q(1, 3)]]) == []
    for kind, n in [("A", 4), ("B", 3), ("D", 4)]:
        system = get_system(kind, n)
        ncols = len(system.roots)
        basis = radical_basis(zero_functional(system))
        assert basis == [tuple(one if j == k else zero for j in range(ncols)) for k in range(ncols)]
        assert_fraction_tuples(basis, ncols)
        assert orbit_dimension(zero_functional(system)) == 0


def _reference_reduced(int_rows, ncols):
    """The reduced form over Q by a column scan in Fractions, rows then made primitive integers.

    At each column, left to right, the first live row that holds it is
    scaled to 1 there and clears the column from every other row. Each
    pivot row is then scaled by the lcm of its denominators and divided by
    the gcd of its entries, which keeps the pivot positive.
    """
    live = [{j: Q(a) for j, a in row.items() if a} for row in int_rows]
    echelon = {}
    for c in range(ncols):
        k = next((k for k, row in enumerate(live) if c in row), None)
        if k is None:
            continue
        top = live.pop(k)
        pivot = top[c]
        top = {j: a / pivot for j, a in top.items()}
        for row in itertools.chain(live, echelon.values()):
            d = row.pop(c, 0)
            if d:
                for j, b in top.items():
                    if j != c:
                        x = row.get(j, 0) - d * b
                        if x:
                            row[j] = x
                        else:
                            del row[j]
        echelon[c] = top
    out = {}
    for c, row in echelon.items():
        scale = math.lcm(*[x.denominator for x in row.values()])
        ints = {j: x.numerator * (scale // x.denominator) for j, x in row.items()}
        g = math.gcd(*ints.values())
        out[c] = {j: x // g for j, x in ints.items()}
    return out


def assert_reduced_agrees(int_rows, ncols):
    """_reduced equals the column scan, in either row order, and leaves its input as it was."""
    before = [dict(row) for row in int_rows]
    expected = _reference_reduced(int_rows, ncols)
    assert linalg._reduced(int_rows) == expected
    assert linalg._reduced(int_rows[::-1]) == expected
    assert int_rows == before


@given(integer_rows())
def test_row_insertion_gives_the_column_scan_reduced_form(case):
    assert_reduced_agrees(*case)


@pytest.mark.parametrize("kind, n", [("A", 6), ("A", 8), ("B", 4), ("B", 5), ("D", 5), ("D", 6)])
def test_row_insertion_reduces_seeded_skew_rows_as_the_column_scan(kind, n):
    rng = random.Random(f"reduced:{kind}{n}")
    system = get_system(kind, n)
    for _ in range(3):
        int_rows = int_skew_rows(random_functional(system, rng))
        assert_reduced_agrees(int_rows, len(system.roots))


@pytest.mark.parametrize("kind, n, seed", [("B", 6, 0), ("D", 7, 1)])
def test_row_insertion_reduces_highest_root_skew_rows_as_the_column_scan(kind, n, seed):
    f, _ = random_orbit_point(kind, n, parse_root("e1+e2"), 1, seed=seed)
    assert_reduced_agrees(int_skew_rows(f), len(f.system.roots))


@given(integer_rows(), st.randoms(use_true_random=False))
def test_reduced_form_does_not_depend_on_row_order(case, rng):
    int_rows, _ = case
    shuffled = list(int_rows)
    rng.shuffle(shuffled)
    assert linalg._reduced(shuffled) == linalg._reduced(int_rows)


@given(integer_rows())
def test_reduced_form_and_kernel_leave_their_input_rows_as_they_are(case):
    int_rows, ncols = case
    before = [dict(row) for row in int_rows]
    rows = list(int_rows)
    echelon = linalg._reduced(rows)
    shared = copy.deepcopy(echelon)
    linalg._kernel(echelon, ncols)
    assert rows == int_rows == before
    # A reduced form shared by a rank and a kernel is only read.
    assert echelon == shared


@st.composite
def det_cases(draw, max_size=5):
    """Square matrices, often with a zero leading entry, rows over unequal denominators."""
    rows = [list(row) for row in draw(matrices(max_size, square=True, elements=wide_entries))]
    if rows and draw(st.booleans()):
        # A zero at the first pivot makes the elimination swap in a lower row.
        rows[0][0] = Q(0)
    if draw(st.booleans()):
        dens = draw(st.lists(st.integers(1, 2**40), min_size=len(rows), max_size=len(rows)))
        rows = [[Q(x) / d for x in row] for row, d in zip(rows, dens)]
    return rows


@given(det_cases())
def test_det_matches_leibniz(rows):
    got = det(rows)
    assert type(got) is Q
    assert got == leibniz(rows) == _fraction_det(rows)
    assert (got != 0) == (rank(rows) == len(rows))


@pytest.mark.parametrize("rows, expected", [
    ([[Q(0)]], 0),
    ([[7]], 7),
    # A zero leading entry: the second row is swapped in.
    ([[0, 1], [1, 0]], -1),
    ([[0, 2, 1], [3, 0, 0], [0, 0, 5]], -30),
    # A zero that appears at the second pivot only after elimination.
    ([[1, 2, 3], [2, 4, 7], [1, 3, 1]], -1),
    # A zero leading column and two equal rows: singular.
    ([[0, 1, 2], [0, 3, 4], [0, 5, 6]], 0),
    ([[1, 2, 3], [4, 5, 6], [1, 2, 3]], 0),
    # Rows over unequal denominators.
    ([[Q(1, 2), Q(1, 3)], [Q(1, 5), Q(2, 7)]], Q(8, 105)),
    ([[Q(0), Q(3, 4), 1], [Q(2, 9), Q(0), Q(5, 6)], [1, Q(-1, 8), Q(0)]], Q(43, 72)),
])
def test_det_cases(rows, expected):
    assert det(rows) == expected == _fraction_det(rows) == leibniz(rows)


@given(matrices())
def test_inputs_are_not_modified(rows):
    before = [list(row) for row in rows]
    rank(rows)
    kernel_basis(rows)
    if all(len(row) == len(rows) for row in rows):
        det(rows)
    assert [list(row) for row in rows] == before


def test_edge_shapes():
    assert rank([]) == 0 and kernel_basis([]) == [] and det([]) == 1
    assert rank([[], []]) == 0 and kernel_basis([[], []]) == []
    assert kernel_basis([[Q(0), Q(0)]]) == [(1, 0), (0, 1)]
    assert det(((Q(0), Q(1)), (Q(1), Q(0)))) == -1
    with pytest.raises(ValueError, match="^determinant needs a square matrix$"):
        det([[Q(1), Q(2)]])
    # Squareness is checked before the entries.
    with pytest.raises(ValueError, match="^determinant needs a square matrix$"):
        det([[0.5], [1, 2]])


@pytest.mark.parametrize("rows", [[[1], [0, 1]], [[0, 1], [1]], [[Q(1), Q(2)], []]])
@pytest.mark.parametrize("call", [rank, kernel_basis])
def test_rows_of_unequal_length_are_rejected(call, rows):
    with pytest.raises(ValueError, match="unequal lengths"):
        call(rows)


@pytest.mark.parametrize("entry, name", [(0.5, "float"), (0.0, "float"), (True, "bool"),
                                         (False, "bool"), ("1", "str"), (None, "NoneType")])
@pytest.mark.parametrize("call", [rank, kernel_basis, det])
def test_entries_that_are_not_rational_are_rejected(call, entry, name):
    with pytest.raises(ValueError, match=f"int or Fraction, not {name}$"):
        call([[Q(1), 2], [entry, 1]])


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
