"""Basic subsets, derived sets, decomposition, achievable dimensions."""

import itertools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coadorbits.basic import (
    BasicSubset,
    DecompositionResult,
    NotBasicError,
    WrongKindError,
    achievable_dimensions,
    basic_map,
    basic_map_from_json,
    basic_map_to_json,
    basic_point,
    basic_subset,
    chains_in,
    decompose,
    derived_set,
    enumerate_basic_subsets,
    is_basic,
    is_single_orbit,
    iter_scan_records,
    max_dimension,
    max_singular_witness,
    max_weyl_index,
    s_of,
    witness_basic_subsets,
)
from coadorbits.basic import _root_set, _singular_mask, _singular_masks
from coadorbits.functionals import (coadjoint_apply, e_star, functional, orbit_dimension,
                                    zero_functional)
from coadorbits.linalg import det, rank
from coadorbits.oracle import default_word_length, random_functional, random_word
from coadorbits.orbits import chart_point, orbit_chart, singular_set
from coadorbits.roots import (InvalidRootError, PositiveRoot, RootSystemKind, diff, get_system,
                              short, sum_root)

A4 = get_system("A", 4)
A6 = get_system("A", 6)


def rook_condition(roots):
    firsts = [r.i for r in roots]
    seconds = [r.j for r in roots]
    return len(set(firsts)) == len(firsts) and len(set(seconds)) == len(seconds)


# ---------------------------------------------------------------------------
# Support and basicness
# ---------------------------------------------------------------------------

def support(f):
    """Roots where the type-A functional is nonzero, in canonical order.

    A private copy of the removed ``basic.support`` and ``Functional.nonzero_roots``,
    which nothing called.
    """
    if f.system.kind is not RootSystemKind.A:
        raise WrongKindError(f"type A only, got kind {f.system.kind.value}")
    return tuple(r for r in f.system.roots if r in f.values)


def plus(f, g):
    """f + g on one system.

    A private copy of the removed ``Functional.plus``, which nothing called.
    """
    assert f.system == g.system
    values = dict(f.values)
    for r, v in g.values.items():
        w = values.get(r, Q(0)) + v
        if w:
            values[r] = w
        else:
            values.pop(r, None)
    return functional(f.system, values)


def test_support_examples():
    assert support(zero_functional(A4)) == ()
    f = functional(A4, {diff(1, 3): 3, diff(2, 4): -1})
    assert set(support(f)) == {diff(1, 3), diff(2, 4)}


def test_support_of_chart_point():
    chart = orbit_chart("A", 4, diff(1, 4), 1)
    f = chart_point(chart, {diff(1, 3): 1, diff(2, 4): 1, diff(1, 2): 0, diff(3, 4): 0})
    got = set(support(f))
    assert {diff(1, 4), diff(1, 3), diff(2, 4), diff(2, 3)} <= got


def test_support_rejects_other_kinds():
    with pytest.raises(WrongKindError):
        support(e_star(get_system("B", 3), short(1)))


def test_is_basic_examples():
    assert is_basic([diff(1, 3), diff(2, 5), diff(3, 4)])
    assert is_basic([])
    assert not is_basic([diff(1, 3), diff(1, 2)])
    assert is_basic([diff(1, 2), diff(2, 3)])  # chains are basic
    assert not is_basic([diff(1, 3), diff(2, 3)])


def test_is_basic_rejects_non_diff_roots():
    with pytest.raises(WrongKindError):
        is_basic([short(1)])


@given(st.lists(st.sampled_from(A6.roots), max_size=5))
def test_is_basic_equals_rook_condition(roots):
    # a repeated root counts once: it is one rook, not two on one row
    assert is_basic(roots) == rook_condition(set(roots))


def test_basic_subset_constructor_validates():
    with pytest.raises(NotBasicError):
        basic_subset(4, [diff(1, 3), diff(2, 3)])


@pytest.mark.parametrize("root", [diff(1, 9), short(1), sum_root(1, 3)])
@pytest.mark.parametrize("call", [s_of, derived_set])
def test_unvalidated_subset_with_a_root_outside_a_n_is_a_root_error(call, root):
    # Built without basic_subset; these used to raise IndexError, give
    # s = 0 for e1, and read e1+e3 as e1-e3.
    subset = BasicSubset(4, (diff(2, 3), root))
    with pytest.raises(InvalidRootError, match=f"^{re.escape(str(root))} is not a positive root"):
        call(subset)


# ---------------------------------------------------------------------------
# Singular unions
# ---------------------------------------------------------------------------

def _singular_union(subset: BasicSubset) -> frozenset[PositiveRoot]:
    """The roots at the bits of the mask behind ``s_of``."""
    return _root_set(subset.n, _singular_mask(subset))


def test_singular_union_examples():
    assert s_of(basic_subset(4, [])) == 0
    d = basic_subset(4, [diff(1, 4), diff(2, 3)])
    assert s_of(d) == 4
    assert _singular_union(d) == {diff(1, 2), diff(2, 4), diff(1, 3), diff(3, 4)}
    assert s_of(basic_subset(3, [diff(2, 3)])) == 0
    # S(e1-e4) and S(e2-e5) both hold e2-e4, which counts once.
    d = basic_subset(5, [diff(1, 4), diff(2, 5)])
    assert _singular_union(d) == {diff(1, 2), diff(1, 3), diff(2, 4), diff(3, 4),
                                  diff(2, 3), diff(3, 5), diff(4, 5)}
    assert s_of(d) == 7


def _reference_singular_union(subset: BasicSubset) -> tuple[PositiveRoot, ...]:
    """The union of the roots' singular sets as a set of roots, in canonical order.
    Kept as the reference for the bitmask union behind ``s_of``."""
    system = get_system("A", subset.n)
    union: set[PositiveRoot] = set()
    for alpha in subset.roots:
        union.update(singular_set(system.kind, subset.n, alpha).singular)
    return tuple(r for r in system.roots if r in union)


def _reference_s_of(subset: BasicSubset) -> int:
    return len(_reference_singular_union(subset))


@pytest.mark.parametrize("n", range(2, 10))
def test_s_of_equals_set_union_reference(n):
    for subset in enumerate_basic_subsets(n):
        expected = _reference_singular_union(subset)
        assert _singular_union(subset) == set(expected), subset
        assert s_of(subset) == len(expected), subset


@pytest.mark.parametrize("n", range(2, 10))
def test_singular_masks_are_the_closed_form(n):
    system = get_system("A", n)
    masks = _singular_masks(n)
    assert list(masks) == list(system.roots)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            closed = {diff(i, k) for k in range(i + 1, j)} | {diff(k, j) for k in range(i + 1, j)}
            expected = sum(1 << system.index_of(r) for r in closed)
            assert masks[diff(i, j)] == expected, (i, j)


def _crossings(subset: BasicSubset) -> int:
    """The pairs of arcs (a, b), (c, d) of D with a < c < b < d."""
    arcs = [(r.i, r.j) for r in subset.roots]
    return sum(1 for (a, b), (c, d) in itertools.permutations(arcs, 2) if a < c < b < d)


# Derived-free basic subsets of A_n with at least one crossing.
CROSSING_DERIVED_FREE = {2: 0, 3: 0, 4: 0, 5: 1, 6: 10, 7: 68, 8: 396, 9: 2132}


@pytest.mark.parametrize("n", range(2, 10))
def test_s_of_is_twice_the_arc_lengths_less_the_crossings(n):
    # S(e_i - e_j) holds 2(j-i-1) roots, and two arcs of a rook placement
    # share exactly one singular root where they cross and none elsewhere.
    noncrossing = crossing_derived_free = 0
    for subset in enumerate_basic_subsets(n):
        crs = _crossings(subset)
        expected = 2 * sum(r.j - r.i - 1 for r in subset.roots) - crs
        assert s_of(subset) == expected == len(_reference_singular_union(subset)), subset
        if not crs:
            noncrossing += 1
            assert derived_set(subset) == frozenset(), subset
        elif not derived_set(subset):
            crossing_derived_free += 1
    # The noncrossing set partitions of {1..n} number Catalan(n).
    assert noncrossing == math.comb(2 * n, n) // (n + 1)
    assert crossing_derived_free == CROSSING_DERIVED_FREE[n]


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def bell(n):
    # Bell numbers via the Stirling triangle; rook placements on the
    # strictly-upper staircase board are counted by them.
    b = [1]
    for _ in range(n):
        row = [b[-1]]
        for v in b:
            row.append(row[-1] + v)
        b = row
    return b[0]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_enumeration_count_is_bell_number(n):
    assert sum(1 for _ in enumerate_basic_subsets(n)) == bell(n)


def test_enumeration_small_cases_exactly():
    assert [set(d.roots) for d in enumerate_basic_subsets(2)] == [set(), {diff(1, 2)}]
    got = [frozenset(d.roots) for d in enumerate_basic_subsets(3)]
    assert len(got) == len(set(got)) == 5


@pytest.mark.parametrize("n", [3, 4, 5])
def test_enumeration_matches_brute_force_filter(n):
    system = get_system("A", n)
    expected = set()
    for k in range(len(system.roots) + 1):
        for combo in itertools.combinations(system.roots, k):
            if is_basic(combo):
                expected.add(frozenset(combo))
    got = {frozenset(d.roots) for d in enumerate_basic_subsets(n)}
    assert got == expected


def _reference_enumerate_basic_subsets(n: int):
    """The root-tuple recursion that ``enumerate_basic_subsets`` replaced; it fixes the order."""
    def rec(i, used, acc):
        if i == n:
            yield BasicSubset(n, tuple(sorted(acc, key=PositiveRoot.sort_key)))
            return
        yield from rec(i + 1, used, acc)
        for j in range(i + 1, n + 1):
            if j not in used:
                yield from rec(i + 1, used | {j}, acc + (diff(i, j),))

    yield from rec(1, frozenset(), ())


@pytest.mark.parametrize("n", range(2, 9))
def test_enumeration_keeps_the_reference_order(n):
    assert list(enumerate_basic_subsets(n)) == list(_reference_enumerate_basic_subsets(n))


# ---------------------------------------------------------------------------
# Chains and derived sets
# ---------------------------------------------------------------------------

def test_chains_in_subset():
    d = basic_subset(6, [diff(1, 3), diff(3, 5), diff(2, 4)])
    assert sorted(chains_in(d)) == [(1, 3), (1, 3, 5), (2, 4), (3, 5)]


def test_derived_set_worked_example():
    d = basic_subset(6, [diff(1, 3), diff(3, 5), diff(2, 4), diff(4, 6)])
    assert derived_set(d) == frozenset({diff(1, 2)})
    assert not is_single_orbit(d)


def test_derived_set_of_singletons_and_empty():
    assert derived_set(basic_subset(6, [diff(1, 6)])) == frozenset()
    assert derived_set(basic_subset(4, [])) == frozenset()
    assert is_single_orbit(basic_subset(4, [diff(2, 4)]))
    assert is_single_orbit(basic_subset(4, []))


def test_derived_set_condition_iii_and_iv_matter():
    # a forward extension landing inside the partner chain keeps the pair special
    d1 = basic_subset(5, [diff(1, 3), diff(3, 4), diff(2, 5)])
    assert derived_set(d1) == frozenset({diff(1, 2)})
    # ... but an extension landing past its end kills it
    d2 = basic_subset(6, [diff(1, 3), diff(3, 5), diff(2, 4)])
    assert derived_set(d2) == frozenset()
    # a backward extension of the partner chain starting too early also kills it
    assert derived_set(basic_subset(6, [diff(3, 5), diff(4, 6)])) == frozenset({diff(3, 4)})
    assert derived_set(basic_subset(6, [diff(2, 4), diff(3, 5), diff(4, 6)])) == frozenset()


@dataclass(frozen=True)
class Chain:
    """Indices i_1 < ... < i_r denoting the roots e_{i_t} - e_{i_{t+1}}."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.indices) < 2:
            raise ValueError("a chain needs at least two indices")
        if any(a >= b for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError("chain indices must strictly increase")

    def roots(self) -> tuple[PositiveRoot, ...]:
        return tuple(diff(a, b) for a, b in zip(self.indices, self.indices[1:]))


def _successor_map(subset: BasicSubset) -> dict[int, int]:
    return {r.i: r.j for r in subset.roots}


def _reference_chains_in(subset: BasicSubset) -> list[Chain]:
    """All chains contained in the subset: contiguous segments of its paths."""
    nxt = _successor_map(subset)
    chains = []
    for root in subset.roots:
        indices = [root.i, root.j]
        chains.append(Chain(tuple(indices)))
        while indices[-1] in nxt:
            indices.append(nxt[indices[-1]])
            chains.append(Chain(tuple(indices)))
    return chains


def _is_special_pair(c: Chain, cp: Chain, prev: dict[int, int], nxt: dict[int, int]) -> bool:
    """``prev`` maps the end of each root of D to its start, ``nxt`` its start to its end."""
    if len(c.indices) != len(cp.indices):
        return False
    merged = [x for pair in zip(c.indices, cp.indices) for x in pair]
    if any(a >= b for a, b in zip(merged, merged[1:])):
        return False  # chains must intertwine strictly
    # A root of D ending at the start of cp must itself start after c does.
    j0 = prev.get(cp.indices[0])
    if j0 is not None and not c.indices[0] < j0:
        return False
    # A root of D extending c forward must land before cp ends.
    i_next = nxt.get(c.indices[-1])
    if i_next is not None and not i_next < cp.indices[-1]:
        return False
    return True


def _reference_derived_set(subset: BasicSubset) -> frozenset[PositiveRoot]:
    """The pair-loop derived set over every ordered pair of chains. Kept as the
    reference for the (start, length) partner lookup in ``derived_set``."""
    chains = _reference_chains_in(subset)
    prev = {r.j: r.i for r in subset.roots}
    nxt = _successor_map(subset)
    out: set[PositiveRoot] = set()
    for c in chains:
        for cp in chains:
            if _is_special_pair(c, cp, prev, nxt):
                out.add(diff(c.indices[0], cp.indices[0]))
    return frozenset(out)


@pytest.mark.parametrize("n", range(2, 10))
def test_derived_set_equals_pair_loop_reference(n):
    for subset in enumerate_basic_subsets(n):
        assert sorted(chains_in(subset)) == sorted(c.indices for c in _reference_chains_in(subset))
        assert derived_set(subset) == _reference_derived_set(subset), subset


def test_scan_objects_share_what_they_can():
    # A caller that keeps a whole scan keeps Bell(n) subsets and derived sets.
    assert not hasattr(basic_subset(4, []), "__dict__")
    assert derived_set(basic_subset(4, [])) is derived_set(basic_subset(4, [diff(1, 4)]))
    d1 = basic_subset(5, [diff(1, 3), diff(2, 4)])
    d2 = basic_subset(5, [diff(1, 3), diff(2, 4), diff(4, 5)])
    assert derived_set(d1) == {diff(1, 2)} and derived_set(d1) is derived_set(d2)


def test_enumeration_and_derived_set_hand_out_the_system_roots():
    system = get_system("A", 7)
    for subset in enumerate_basic_subsets(7):
        for r in subset.roots + tuple(derived_set(subset)):
            assert r is system.roots[system.index_of(r)]


def test_derived_set_is_inside_singular_union():
    for n in (4, 5, 6):
        for subset in enumerate_basic_subsets(n):
            assert derived_set(subset) <= _singular_union(subset)


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

def test_decompose_zero():
    result = decompose(zero_functional(A4))
    assert result.subset.roots == ()
    assert result.map.phi == {}


def test_decompose_rook_points():
    for n in (3, 4, 5):
        for subset in enumerate_basic_subsets(n):
            phi = {r: Q((-1) ** r.i * (r.i + r.j), 2) for r in subset.roots}
            f = basic_point(basic_map(subset, phi)) if phi else zero_functional(get_system("A", n))
            result = decompose(f)
            assert result.subset == subset
            assert result.map.phi == phi


def test_decompose_is_word_invariant():
    rng = random.Random("basic-dec")
    for n in (3, 4, 5, 6):
        system = get_system("A", n)
        subsets = list(enumerate_basic_subsets(n))
        for _ in range(25):
            subset = subsets[rng.randrange(len(subsets))]
            phi = {r: Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
                   for r in subset.roots}
            f = basic_point(basic_map(subset, phi)) if phi else zero_functional(system)
            moved = coadjoint_apply(random_word(system, rng, default_word_length(system)), f)
            result = decompose(moved)
            assert result.subset == subset
            assert result.map.phi == phi


def _reference_decompose(f):
    """The corner-rank decomposition: positions from the double differences of
    top-right corner ranks, each phi from the maximal corner minor divided by
    the phi of the other pivots that corner contains. Kept as the reference
    for the two-sided reduction in ``decompose``."""
    n = f.system.n
    F = [
        [f.value(diff(i, j)) if i < j else Q(0) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]

    rank_cache: dict[tuple[int, int], int] = {}

    def corner_rank(a: int, b: int) -> int:
        # rank of rows 1..a against columns b..n
        if a < 1 or b > n:
            return 0
        key = (a, b)
        if key not in rank_cache:
            rank_cache[key] = rank([row[b - 1:] for row in F[:a]])
        return rank_cache[key]

    pivots: list[tuple[int, int]] = []
    for a in range(1, n):
        for b in range(a + 1, n + 1):
            d2 = (
                corner_rank(a, b)
                - corner_rank(a - 1, b)
                - corner_rank(a, b + 1)
                + corner_rank(a - 1, b + 1)
            )
            if d2 == 1:
                pivots.append((a, b))
            elif d2 != 0:
                raise AssertionError(f"corner-rank double difference {d2} at {(a, b)}")

    pivots.sort()
    phi: dict[tuple[int, int], Q] = {}
    for a, b in pivots:
        corner = sorted((r, c) for r, c in pivots if r <= a and c >= b)
        rows = [r for r, _ in corner]
        col_seq = [c for _, c in corner]
        cols = sorted(col_seq)
        minor = det([[F[r - 1][c - 1] for c in cols] for r in rows])
        inversions = sum(
            1
            for t in range(len(col_seq))
            for u in range(t + 1, len(col_seq))
            if col_seq[t] > col_seq[u]
        )
        sign = -1 if inversions % 2 else 1
        value = sign * minor
        for r, c in corner:
            if (r, c) != (a, b):
                value /= phi[(r, c)]
        if value == 0:
            raise AssertionError(f"vanishing pivot minor at {(a, b)}")
        phi[(a, b)] = value

    subset = basic_subset(n, [diff(a, b) for a, b in pivots])
    bmap = basic_map(subset, {diff(a, b): v for (a, b), v in phi.items()})
    return DecompositionResult(subset, bmap)


def _reference_inputs(n):
    """Seeded zero, dense, half-density and moved basic-point functionals of A_n."""
    system = get_system("A", n)
    rng = random.Random(f"reference-decompose:{n}")

    def value():
        return Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))

    yield zero_functional(system)
    for _ in range(6):
        yield functional(system, {r: value() for r in system.roots})
    for _ in range(6):
        yield random_functional(system, rng)
    subsets = list(enumerate_basic_subsets(n))
    for _ in range(12):
        subset = subsets[rng.randrange(len(subsets))]
        phi = {r: value() for r in subset.roots}
        f = basic_point(basic_map(subset, phi)) if phi else zero_functional(system)
        yield coadjoint_apply(random_word(system, rng, default_word_length(system)), f)


@pytest.mark.parametrize("n", range(2, 9))
def test_decompose_equals_corner_rank_reference(n):
    for f in _reference_inputs(n):
        got, expected = decompose(f), _reference_decompose(f)
        assert got.subset == expected.subset
        assert got.map.phi == expected.map.phi


def test_decompose_rejects_other_kinds():
    with pytest.raises(WrongKindError):
        decompose(e_star(get_system("B", 3), short(1)))


def test_decompose_single_elementary_orbit_points():
    rng = random.Random("dec-elem")
    for n in (3, 4, 5):
        system = get_system("A", n)
        for alpha in system.roots:
            c = Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
            chart = orbit_chart("A", n, alpha, c)
            assignment = {r: Q(rng.choice([-2, -1, 0, 1, 2])) for r in chart.data.singular}
            f = chart_point(chart, assignment)
            result = decompose(f)
            assert result.subset.roots == (alpha,)
            assert result.map.phi == {alpha: c}


def test_decompose_on_true_coordinatewise_sums():
    # points of a basic sum built as literal sums of independently sampled
    # elementary orbit points, not as word images of the distinguished point
    rng = random.Random("dec-sums")
    for n in (4, 5, 6):
        system = get_system("A", n)
        subsets = [d for d in enumerate_basic_subsets(n) if d.roots]
        for _ in range(40):
            subset = subsets[rng.randrange(len(subsets))]
            phi = {}
            total = zero_functional(system)
            for alpha in subset.roots:
                c = Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
                phi[alpha] = c
                chart = orbit_chart("A", n, alpha, c)
                assignment = {
                    r: Q(rng.choice([-2, -1, 0, 1, 2]), rng.choice([1, 2]))
                    for r in chart.data.singular
                }
                total = plus(total, chart_point(chart, assignment))
            result = decompose(total)
            assert result.subset == subset
            assert result.map.phi == phi


def test_dimension_bounded_by_s_generatively():
    rng = random.Random("dim-bound")
    for n in (3, 4, 5):
        system = get_system("A", n)
        for subset in enumerate_basic_subsets(n):
            if not subset.roots:
                continue
            phi = {r: Q(rng.choice([-2, -1, 1, 2])) for r in subset.roots}
            f = basic_point(basic_map(subset, phi))
            moved = coadjoint_apply(random_word(system, rng, 8), f)
            assert orbit_dimension(moved) <= s_of(subset)


def test_single_orbit_dichotomy_small():
    for n in (2, 3, 4, 5):
        for subset in enumerate_basic_subsets(n):
            if not subset.roots:
                continue
            f = basic_point(basic_map(subset, {r: 1 for r in subset.roots}))
            dim = orbit_dimension(f)
            if is_single_orbit(subset):
                assert dim == s_of(subset)
            else:
                assert dim < s_of(subset)


def test_two_dimensional_orbits_have_tight_support_window():
    # every sampled functional with a two-dimensional orbit decomposes into
    # a basic subset with s(D) of 2 or 3
    rng = random.Random("window")
    hits = 0
    for n in (3, 4, 5, 6):
        system = get_system("A", n)
        for _ in range(120):
            values = {}
            for root in system.roots:
                if rng.randrange(4) == 0:
                    values[root] = Q(rng.choice([-2, -1, 1, 2]))
            f = functional(system, values)
            if orbit_dimension(f) != 2:
                continue
            hits += 1
            assert s_of(decompose(f).subset) in (2, 3)
    assert hits > 20, "sampling must actually exercise the window"


# ---------------------------------------------------------------------------
# Achievable dimensions
# ---------------------------------------------------------------------------

def test_achievable_dimension_examples():
    assert achievable_dimensions(4) == [0, 2, 4]
    assert max_dimension(4) == 4
    assert achievable_dimensions(3) == [0, 2]
    assert max_dimension(3) == 2
    assert achievable_dimensions(6) == [0, 2, 4, 6, 8, 10, 12]
    assert max_dimension(6) == 12
    assert max_weyl_index(7) == 9


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_achievable_dimensions_match_exhaustive_scan(n):
    reachable = sorted({s_of(d) for d in enumerate_basic_subsets(n) if is_single_orbit(d)})
    assert reachable == achievable_dimensions(n)


def test_witnesses_match_printed_families():
    ws6 = dict(witness_basic_subsets(6))
    assert ws6[0].roots == (diff(3, 4),)
    assert ws6[1].roots == (diff(3, 5),)
    assert ws6[2].roots == (diff(2, 5),)
    assert ws6[3].roots == (diff(2, 6),)
    assert ws6[4].roots == (diff(1, 6),)
    ws5 = dict(witness_basic_subsets(5))
    assert ws5[0].roots == (diff(3, 4),)
    assert ws5[1].roots == (diff(2, 4),)
    assert ws5[2].roots == (diff(2, 5),)
    assert ws5[3].roots == (diff(1, 5),)


@pytest.mark.parametrize("n", range(2, 11))
def test_witnesses_cover_every_achievable_dimension(n):
    ws = witness_basic_subsets(n)
    assert [m for m, _ in ws] == list(range(max_weyl_index(n) + 1))
    for m, subset in ws:
        assert is_single_orbit(subset)
        assert s_of(subset) == 2 * m


@pytest.mark.parametrize("n", range(2, 9))
def test_max_singular_witness_attains_the_scan_maximum(n):
    witness = max_singular_witness(n)
    assert s_of(witness) == max_dimension(n)
    assert max(s_of(d) for d in enumerate_basic_subsets(n)) == s_of(witness)


def test_max_singular_witness_examples():
    assert set(max_singular_witness(4).roots) == {diff(1, 4), diff(2, 3)}
    assert s_of(max_singular_witness(5)) == 8
    assert s_of(max_singular_witness(6)) == 12


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_basic_map_json_round_trip():
    subset = basic_subset(5, [diff(1, 3), diff(2, 5)])
    bmap = basic_map(subset, {diff(1, 3): Q(2), diff(2, 5): Q(-1, 3)})
    payload = basic_map_to_json(bmap)
    assert payload == {
        "n": 5,
        "roots": ["e1-e3", "e2-e5"],
        "phi": {"e1-e3": "2", "e2-e5": "-1/3"},
    }
    assert basic_map_from_json(payload) == bmap


@pytest.mark.parametrize("value", [0.1, True, [1], 2])
def test_basic_map_json_rejects_non_string_rational(value):
    payload = {"n": 5, "roots": ["e1-e3", "e2-e5"], "phi": {"e1-e3": "2", "e2-e5": value}}
    with pytest.raises(ValueError, match="e2-e5"):
        basic_map_from_json(payload)


@pytest.mark.parametrize("other", [" e1-e3", "e01-e3", "e1-e03 "])
def test_basic_map_json_rejects_a_root_named_twice(other):
    payload = {"n": 5, "roots": ["e1-e3"], "phi": {"e1-e3": "2", other: "-3"}}
    with pytest.raises(ValueError, match=f"keys 'e1-e3' and '{other}' name the same root e1-e3"):
        basic_map_from_json(payload)


@pytest.mark.parametrize("value", [5.5, 5.0, "5", True])
def test_basic_map_json_rejects_non_integer_n(value):
    payload = {"n": value, "roots": ["e1-e3"], "phi": {"e1-e3": "2"}}
    with pytest.raises(ValueError, match="'n'"):
        basic_map_from_json(payload)


@pytest.mark.parametrize("phi", [[["e1-e3", "2"]], "ab"])
def test_basic_map_json_phi_must_be_an_object(phi):
    payload = {"n": 5, "roots": ["e1-e3"], "phi": phi}
    with pytest.raises(ValueError, match="'phi' must be a JSON object"):
        basic_map_from_json(payload)


@pytest.mark.parametrize("key", ["n", "roots", "phi"])
def test_basic_map_json_missing_key_is_value_error(key):
    payload = {"n": 5, "roots": ["e1-e3"], "phi": {"e1-e3": "2"}}
    del payload[key]
    with pytest.raises(ValueError, match=key):
        basic_map_from_json(payload)


def test_scan_records_shape():
    records = list(iter_scan_records(3))
    assert len(records) == 5
    by_roots = {tuple(r["roots"]): r for r in records}
    assert by_roots[("e1-e3",)]["s"] == 2
    assert by_roots[("e1-e3",)]["single_orbit"] is True
    assert by_roots[()]["s"] == 0


def test_basic_map_validation():
    subset = basic_subset(4, [diff(1, 3)])
    with pytest.raises(ValueError):
        basic_map(subset, {diff(1, 3): 0})
    with pytest.raises(ValueError):
        basic_map(subset, {diff(1, 4): 1})
