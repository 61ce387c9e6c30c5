"""Root systems, matrix realizations and bracket tables."""

import copy
import dataclasses
import gc
import itertools
import pickle
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coadorbits import roots as roots_module
from coadorbits.functionals import e_star, orbit_dimension
from coadorbits.roots import (
    DIFF,
    SHORT,
    SUM,
    BracketDecompositionError,
    BracketTable,
    InvalidRootError,
    MatrixRealization,
    PositiveRoot,
    RankRangeError,
    RootSystemKind,
    bracket,
    diff,
    get_system,
    parse_root,
    positive_roots,
    root_vector,
    short,
    structure_table,
    sum_root,
    system_to_json,
)

KINDS = tuple(RootSystemKind)


def _weight(root):
    """Coefficients of the root in the epsilon-coordinate basis."""
    if root.tag == "diff":
        return {root.i: 1, root.j: -1}
    if root.tag == "short":
        return {root.i: 1}
    return {root.i: 1, root.j: 1}


def add_roots(a, b):
    """The positive root a + b, or None when the sum is not a positive root.

    A private copy of the removed ``roots.add_roots``, which nothing in the
    package called: it adds weights, independently of the bracket table.
    """
    w = _weight(a)
    for k, v in _weight(b).items():
        w[k] = w.get(k, 0) + v
    support = sorted(k for k, v in w.items() if v)
    vals = [w[k] for k in support]
    if vals == [1]:
        return short(support[0])
    if vals == [1, -1]:
        return diff(*support)
    if vals == [1, 1]:
        return sum_root(*support)
    return None


def matrix_dim(kind, n):
    """Side of the realizing matrices: n, 2n+1 or 2n (the removed ``RootSystem.matrix_dim``)."""
    return {RootSystemKind.A: n, RootSystemKind.B: 2 * n + 1, RootSystemKind.D: 2 * n}[kind]


def expected_count(kind, n):
    if kind is RootSystemKind.A:
        return n * (n - 1) // 2
    if kind is RootSystemKind.B:
        return n * n
    return n * n - n


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(2, 11))
def test_root_counts(kind, n):
    system = positive_roots(kind, n)
    assert len(system.roots) == expected_count(kind, n)
    assert len(set(system.roots)) == len(system.roots)


@pytest.mark.parametrize(
    "kind,n,count", [(RootSystemKind.A, 4, 6), (RootSystemKind.B, 3, 9), (RootSystemKind.D, 3, 6)]
)
def test_root_count_examples(kind, n, count):
    assert len(positive_roots(kind, n).roots) == count


def test_index_is_a_bijection():
    for kind in KINDS:
        system = positive_roots(kind, 5)
        indices = [system.index_of(r) for r in system.roots]
        assert indices == list(range(len(system.roots)))


def test_canonical_order_is_documented_one():
    system = positive_roots(RootSystemKind.B, 3)
    assert [str(r) for r in system.roots] == [
        "e1-e2", "e2-e3", "e1-e3", "e1", "e2", "e3", "e1+e2", "e1+e3", "e2+e3",
    ]


def test_rank_out_of_range():
    for kind in KINDS:
        with pytest.raises(RankRangeError):
            positive_roots(kind, 1)


def test_rank_past_the_int_digit_limit_raises_the_typed_error():
    # The message used to format n itself, which raised a bare ValueError.
    with pytest.raises(RankRangeError, match="got an int of 16610 bits$"):
        positive_roots("A", -10**5000)


def test_rank_above_the_bound_raises_before_the_cache():
    # An n such as 10**6 used to build its roots until memory ran out.
    roots_module._system.cache_clear()
    for kind in KINDS:
        with pytest.raises(RankRangeError,
                           match=f"needs n <= {roots_module.MAX_N}, got {roots_module.MAX_N + 1}$"):
            positive_roots(kind, roots_module.MAX_N + 1)
    assert roots_module._system.cache_info().misses == 0


@pytest.mark.parametrize("n", [3.0, "3", None, True, Fraction(3)])
def test_rank_that_is_not_an_int_raises_cold_and_warm(n):
    # 3.0 used to return A3 once A3 was cached, and raise an untyped
    # TypeError when it was not; "3" and None failed in the comparison.
    roots_module._system.cache_clear()
    with pytest.raises(RankRangeError, match="needs an int n, got"):
        positive_roots("A", n)
    assert roots_module._system.cache_info().misses == 0  # rejected before the cache
    positive_roots("A", 3)
    with pytest.raises(RankRangeError, match="needs an int n, got"):
        positive_roots("A", n)


def test_membership_constraints():
    a = positive_roots(RootSystemKind.A, 4)
    d = positive_roots(RootSystemKind.D, 4)
    for system, root in ((a, short(1)), (a, sum_root(1, 2)), (d, short(1)), (a, diff(1, 5))):
        assert root not in system.roots
        with pytest.raises(InvalidRootError):
            system.index_of(root)
    with pytest.raises(InvalidRootError):
        diff(3, 2)


@pytest.mark.parametrize("call", [
    lambda: diff(10**5000, 1),
    lambda: get_system("A", 4).index_of(diff(1, 10**5000)),
])
def test_index_past_the_int_digit_limit_is_a_short_root_error(call):
    # str/repr of such an int raises ValueError under the int-digit limit;
    # the message then names its bit length instead
    with pytest.raises(InvalidRootError) as info:
        call()
    assert len(str(info.value)) < 200


# ---------------------------------------------------------------------------
# Interned roots
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind, n", [("A", 5), ("B", 4), ("D", 4)])
def test_every_construction_gives_the_one_live_root(kind, n):
    for root in get_system(kind, n).roots:
        built = {DIFF: diff, SHORT: short, SUM: sum_root}[root.tag](
            *((root.i,) if root.tag == SHORT else (root.i, root.j)))
        same = [
            built,
            PositiveRoot(root.tag, root.i, root.j),
            parse_root(str(root)),
            get_system(kind, n + 1).roots[get_system(kind, n + 1).index_of(root)],
            dataclasses.replace(root),
            copy.copy(root),
            copy.deepcopy(root),
            pickle.loads(pickle.dumps(root)),
        ]
        assert all(other is root for other in same)
    moved = dataclasses.replace(diff(1, 2), j=3)
    assert moved is diff(1, 3)


def test_roots_compare_and_hash_by_identity():
    assert PositiveRoot.__eq__ is object.__eq__
    assert PositiveRoot.__hash__ is object.__hash__
    root = diff(1, 2)
    assert hash(root) == object.__hash__(root)
    assert {root: 1}[parse_root("e1-e2")] == 1


@pytest.mark.parametrize("call", [
    lambda: diff(3, 2),
    lambda: diff(0, 2),
    lambda: short(0),
    lambda: sum_root(2, 2),
    lambda: PositiveRoot(SHORT, 1, 2),
    lambda: PositiveRoot("bogus", 1),
    lambda: diff(True, 2),
    lambda: diff(1.0, 2),
    lambda: parse_root("e3-e1"),
])
def test_invalid_roots_raise_and_stay_out_of_the_table(call):
    before = set(roots_module._interned)
    with pytest.raises(InvalidRootError):
        call()
    assert set(roots_module._interned) <= before


def test_threads_building_one_root_get_one_object():
    keys = [(k, k + 5 * 10**6) for k in range(1, 3001)]
    results = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: results.append([diff(*k) for k in keys]))
                   for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == len(threads)
    for built in zip(*results):
        assert all(root is built[0] for root in built)


def test_parsing_many_distinct_roots_leaves_the_table_bounded():
    gc.collect()
    before = len(roots_module._interned)
    for k in range(1, 20001):
        root = parse_root(f"e{k}-e{k + 10**6}")
        assert root not in get_system("A", 4).roots
    gc.collect()
    assert len(roots_module._interned) <= before + 1
    # A root that something still holds stays the one live root.
    kept = parse_root("e1-e1000001")
    assert parse_root("e1-e1000001") is kept


# ---------------------------------------------------------------------------
# Matrix realizations
# ---------------------------------------------------------------------------

def test_root_vector_examples():
    assert root_vector("A", 3, diff(1, 2)).entries == {(1, 2): 1}
    assert root_vector("B", 3, short(2)).entries == {(2, 4): 1, (4, 6): -1}
    assert root_vector("D", 3, sum_root(1, 3)).entries == {(1, 4): 1, (3, 6): -1}


def test_root_vector_invalid_root():
    with pytest.raises(InvalidRootError):
        root_vector("A", 3, short(1))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_matrix_shape_invariants(kind, n):
    system = positive_roots(kind, n)
    for alpha in system.roots:
        mat = root_vector(kind, n, alpha)
        assert mat.dim == matrix_dim(kind, n)
        assert 1 <= len(mat.entries) <= 2
        for (r, c), v in mat.entries.items():
            assert r < c, "strictly upper triangular"
            assert v in (-1, 1)
        if kind is not RootSystemKind.A:
            # antisymmetry about the antidiagonal: X^T J + J X = 0
            dense = mat.to_dense()
            m = mat.dim
            for r in range(m):
                for c in range(m):
                    assert dense[r][c] == -dense[m - 1 - c][m - 1 - r]


# ---------------------------------------------------------------------------
# Brackets
# ---------------------------------------------------------------------------

def test_bracket_examples():
    assert bracket("A", 3, diff(1, 2), diff(2, 3)) == (1, diff(1, 3))
    assert bracket("A", 3, diff(2, 3), diff(1, 2)) == (-1, diff(1, 3))
    assert bracket("B", 3, diff(1, 2), short(2)) == (1, short(1))
    assert bracket("B", 3, short(1), short(2)) == (-1, sum_root(1, 2))


def test_structure_table_examples():
    # the smallest type-A system with any bracket at all has three indices:
    # the single nonzero family [e_{12}, e_{23}] = e_{13} and its negative
    assert structure_table("A", 2).table == {}
    t3 = structure_table("A", 3)
    assert len(t3.table) == 2
    assert t3.get(diff(1, 2), diff(2, 3)) == (1, diff(1, 3))
    assert t3.get(diff(1, 2), diff(1, 2)) is None
    td = structure_table("D", 3)
    assert td.get(diff(1, 2), sum_root(2, 3)) == (1, sum_root(1, 3))


def test_bracket_table_stores_only_the_position_keyed_rows():
    table = structure_table("B", 4)
    assert BracketTable.__slots__ == ("system", "by_index")
    assert not hasattr(table, "__dict__")
    # the root-keyed view is a read-only property rebuilt from by_index
    with pytest.raises(AttributeError):
        table.table = {}


@pytest.mark.parametrize("kind, n", [("A", 4), ("B", 3), ("D", 4)])
def test_cached_bracket_rows_are_read_only(kind, n):
    # structure_table hands every caller the one cached table, so a row it
    # could edit would change every later bracket, dimension and chart.
    table = structure_table(kind, n)
    assert type(table.by_index) is tuple
    for row in table.by_index:
        for method in ("clear", "pop", "popitem", "setdefault", "update"):
            assert not hasattr(row, method)
        for b, entry in row.items():
            with pytest.raises(TypeError):
                row[b] = entry  # the same value, so an allowed write would change nothing
    assert structure_table(kind, n) is table


@pytest.mark.parametrize("attribute", ["system", "by_index"])
def test_cached_bracket_table_attributes_cannot_be_rebound(attribute):
    # Rebinding by_index to empty rows on the one cached table used to make
    # every later orbit dimension of the system 0.
    system = get_system("A", 4)
    table = structure_table("A", 4)
    kept = getattr(table, attribute)
    replacement = tuple({} for _ in system.roots) if attribute == "by_index" else get_system("A", 5)
    with pytest.raises(AttributeError):
        setattr(table, attribute, replacement)
    with pytest.raises(AttributeError):
        delattr(table, attribute)
    assert getattr(table, attribute) is kept
    assert structure_table("A", 4) is table
    assert orbit_dimension(e_star(system, diff(1, 3), 2)) == 2


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bracket_grading_and_antisymmetry(kind, n):
    table = structure_table(kind, n)
    system = table.system
    for alpha in system.roots:
        assert table.get(alpha, alpha) is None
    for (alpha, beta), (c, gamma) in table.table.items():
        assert c != 0
        assert add_roots(alpha, beta) == gamma
        assert gamma in system.roots
        assert table.get(beta, alpha) == (-c, gamma)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_observed_structure_constants(kind, n):
    constants = structure_table(kind, n).nonzero_constants()
    assert constants <= {-1, 1}
    print(f"structure constants {kind.value} n={n}: {sorted(constants)}")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_jacobi_identity_exhaustive(kind, n):
    table = structure_table(kind, n)
    roots = table.system.roots

    def ad2(x, y, z):
        # [x, [y, z]] as a root -> int map
        inner = table.get(y, z)
        if inner is None:
            return {}
        c1, g = inner
        outer = table.get(x, g)
        if outer is None:
            return {}
        c2, h = outer
        return {h: c1 * c2}

    for a, b, c in itertools.combinations_with_replacement(roots, 3):
        acc = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for root, v in ad2(x, y, z).items():
                acc[root] = acc.get(root, 0) + v
        assert all(v == 0 for v in acc.values()), (a, b, c, acc)


def test_bracket_never_needs_fallback():
    # the decomposition error is a guard that must not fire on any valid pair
    for kind in KINDS:
        system = positive_roots(kind, 4)
        for alpha in system.roots:
            for beta in system.roots:
                try:
                    bracket(kind, 4, alpha, beta)
                except BracketDecompositionError as exc:  # pragma: no cover
                    pytest.fail(f"unexpected decomposition failure: {exc}")


def _commutator(a: dict[tuple[int, int], int], b: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}

    def accumulate(x, y, sign):
        for (r1, c1), v1 in x.items():
            for (r2, c2), v2 in y.items():
                if c1 == r2:
                    key = (r1, c2)
                    out[key] = out.get(key, 0) + sign * v1 * v2

    accumulate(a, b, 1)
    accumulate(b, a, -1)
    return {k: v for k, v in out.items() if v != 0}


def _reference_bracket(kind, n, alpha, beta):
    """The per-pair matrix commutator, decomposed against e_{alpha+beta}. Kept as
    the reference for the matrix-unit products in ``_structure_table``."""
    system = positive_roots(kind, n)
    system.index_of(alpha)
    system.index_of(beta)
    comm = _commutator(
        root_vector(kind, n, alpha).entries, root_vector(kind, n, beta).entries
    )
    if not comm:
        return None
    gamma = add_roots(alpha, beta)
    if gamma is None or gamma not in system.roots:
        raise BracketDecompositionError(
            f"[{alpha}, {beta}] is nonzero but {alpha}+{beta} is not a positive root"
        )
    target = root_vector(kind, n, gamma).entries
    pos, base = next(iter(target.items()))
    if pos not in comm or comm[pos] % base != 0:
        raise BracketDecompositionError(f"[{alpha}, {beta}] is not a multiple of e_{gamma}")
    coef = comm[pos] // base
    if comm != {p: coef * v for p, v in target.items()}:
        raise BracketDecompositionError(f"[{alpha}, {beta}] is not a multiple of e_{gamma}")
    return coef, gamma


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(2, 9))
def test_structure_table_equals_per_pair_reference(kind, n):
    table = structure_table(kind, n)
    roots = table.system.roots
    index_of = table.system.index_of
    for a, alpha in enumerate(roots):
        for b, beta in enumerate(roots):
            expected = _reference_bracket(kind, n, alpha, beta)
            assert table.get(alpha, beta) == expected, (alpha, beta)
            # The position-keyed view holds the same bracket.
            by_index = None if expected is None else (expected[0], index_of(expected[1]))
            assert table.by_index[a].get(b) == by_index, (alpha, beta)


def test_structure_table_consistency_check_fires(monkeypatch):
    import coadorbits.roots as roots_mod

    realize = roots_mod.root_vector

    def skewed(kind, n, alpha):
        if alpha == diff(1, 3):
            return MatrixRealization(3, {(1, 3): 2})
        return realize(kind, n, alpha)

    monkeypatch.setattr(roots_mod, "root_vector", skewed)
    with pytest.raises(BracketDecompositionError):
        roots_mod._structure_table.__wrapped__(RootSystemKind.A, 3)


def test_structure_table_rejects_a_constant_other_than_one(monkeypatch):
    # With e_{e1-e2} = 2 E[1,2], [e_{e1-e2}, e_{e2-e3}] = 2 E[1,3] is exactly
    # 2 e_{e1-e3}: a multiple of one root vector, but not +1 or -1 times it.
    realize = roots_module.root_vector

    def doubled(kind, n, alpha):
        if alpha == diff(1, 2):
            return MatrixRealization(3, {(1, 2): 2})
        return realize(kind, n, alpha)

    monkeypatch.setattr(roots_module, "root_vector", doubled)
    with pytest.raises(BracketDecompositionError,
                       match=r"^\[e1-e2, e2-e3\] is not \+1 or -1 times one root vector$"):
        roots_module._structure_table.__wrapped__(RootSystemKind.A, 3)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["e1-e4", "e2", "e1+e3", "e10-e12"])
def test_parse_round_trip(name):
    assert str(parse_root(name)) == name


def test_parse_rejects_junk():
    for bad in ("", "e0", "x1-e2", "e2-e2", "e3-e1", "e1*e2"):
        with pytest.raises(InvalidRootError):
            parse_root(bad)


def test_system_json_schema():
    payload = system_to_json(get_system("D", 3))
    assert payload == {
        "kind": "D",
        "n": 3,
        "roots": ["e1-e2", "e2-e3", "e1-e3", "e1+e2", "e1+e3", "e2+e3"],
    }


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
def test_root_constructors_vs_parser(i, j):
    if i < j:
        assert parse_root(f"e{i}-e{j}") == diff(i, j)
        assert parse_root(f"e{i}+e{j}") == sum_root(i, j)
    assert parse_root(f"e{i}") == short(i)
