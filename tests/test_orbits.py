"""Singular data, orbit charts, membership, parametrization, group words."""

import math
import random
import re
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction as Q
from types import MappingProxyType

import pytest

from coadorbits.functionals import (GroupWord, _act, _from_vector, coadjoint_apply, e_star,
                                    functional, orbit_dimension, zero_functional)
from coadorbits.oracle import (CERTIFIED_SIGN_RULE, SIGN_RULES, _paper_form, random_functional,
                               random_orbit_point)
from coadorbits.orbits import (
    _STYLES,
    ChartVariableError,
    NotInOrbitError,
    OrbitChart,
    PairSignError,
    SingularData,
    ZeroScalarError,
    _ZERO,
    _level_one,
    _membership_form,
    _render,
    _satisfies,
    _singular_data,
    _word_letters,
    chart_lines,
    chart_point,
    chart_to_json,
    construct_group_word,
    contains,
    orbit_chart,
    singular_set,
    singular_size_formula,
)
from coadorbits.polynomials import Polynomial
from coadorbits.roots import (
    DIFF,
    SHORT,
    SUM,
    BracketTable,
    InvalidRootError,
    PositiveRoot,
    RootSystemKind,
    bracket,
    diff,
    get_system,
    short,
    structure_table,
    sum_root,
)

KINDS = tuple(RootSystemKind)


def var(system, root):
    """The chart variable of root: its canonical position in system."""
    return Polynomial.var(system.index_of(root))


# Private copies of the removed weight helpers of ``roots``, which nothing in
# the package called: root sums computed on weights, independently of the
# bracket table.

def weight(root):
    """Coefficients of the root in the epsilon-coordinate basis."""
    if root.tag == DIFF:
        return {root.i: 1, root.j: -1}
    if root.tag == SHORT:
        return {root.i: 1}
    return {root.i: 1, root.j: 1}


def root_from_weight(w):
    """Interpret an epsilon-coordinate vector as a positive root, if it is one."""
    support = sorted(k for k, v in w.items() if v != 0)
    vals = [w[k] for k in support]
    if vals == [1]:
        return short(support[0])
    if vals == [1, -1]:
        return diff(support[0], support[1])
    if vals == [1, 1]:
        return sum_root(support[0], support[1])
    return None


def add_roots(a, b):
    """The positive root a + b, or None when the sum is not a positive root."""
    w = weight(a)
    for k, v in weight(b).items():
        w[k] = w.get(k, 0) + v
    return root_from_weight(w)


def left(data):
    """The left member of each pair, in canonical order."""
    return tuple(gamma for gamma, _, _ in data.pairs)


def right(data):
    """The partner half of the pairing, in canonical order (the removed ``SingularData.right``)."""
    partners = {partner for _, partner, _ in data.pairs}
    return tuple(r for r in data.singular if r in partners)


# ---------------------------------------------------------------------------
# Singular sets
# ---------------------------------------------------------------------------

def test_singular_set_examples():
    data = singular_set("A", 4, diff(1, 4))
    assert set(data.singular) == {diff(1, 2), diff(2, 4), diff(1, 3), diff(3, 4)}
    data = singular_set("B", 3, short(1))
    assert set(data.singular) == {diff(1, 2), short(2), diff(1, 3), short(3)}
    data = singular_set("D", 3, sum_root(1, 3))
    assert set(data.singular) == {diff(1, 2), sum_root(2, 3)}
    assert data.pairs == ((diff(1, 2), sum_root(2, 3), 1),)


def test_singular_set_worked_example_b3():
    data = singular_set("B", 3, sum_root(1, 3))
    assert set(data.singular) == {diff(1, 2), sum_root(2, 3), short(1), short(3)}
    assert set(data.regular) == {
        sum_root(1, 3), diff(1, 3), diff(2, 3), short(2), sum_root(1, 2),
    }


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(2, 9))
def test_singular_cardinalities_and_partition(kind, n):
    system = get_system(kind, n)
    for alpha in system.roots:
        data = singular_set(kind, n, alpha)
        assert len(data.singular) == singular_size_formula(kind, n, alpha)
        assert len(data.singular) + len(data.regular) == len(system.roots)
        assert set(data.singular).isdisjoint(data.regular)
        assert alpha in data.regular


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(2, 9))
def test_singular_set_is_the_sum_definition(kind, n):
    # S(alpha) = {beta : beta + gamma = alpha for some root gamma}, with the
    # sums computed on weights, independently of the bracket table.
    system = get_system(kind, n)
    summands = {alpha: set() for alpha in system.roots}
    for beta in system.roots:
        for gamma in system.roots:
            total = add_roots(beta, gamma)
            if total in summands:
                summands[total].add(beta)
    for alpha in system.roots:
        assert set(singular_set(kind, n, alpha).singular) == summands[alpha]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(2, 7))
def test_sum_root_pairings(kind, n):
    system = get_system(kind, n)
    for alpha in system.roots:
        data = singular_set(kind, n, alpha)
        assert set(left(data)) | set(right(data)) == set(data.singular)
        assert set(left(data)).isdisjoint(right(data))
        assert 2 * len(data.pairs) == len(data.singular)
        # each pair once, in canonical order of its left member
        assert list(left(data)) == sorted(left(data), key=system.index_of)
        for gamma, partner, sign in data.pairs:
            assert gamma.i == alpha.i
            assert add_roots(gamma, partner) == alpha
            assert bracket(kind, n, gamma, partner) == (sign, alpha)
            assert sign in (1, -1)
            if alpha.tag != "sum":
                assert sign == 1


def _reference_singular_data(kind, n):
    """Every root's SingularData from the root-keyed table, with N^2 scans over roots.

    The builder before ``_singular_data`` read positions from ``by_index``.
    """
    table = structure_table(kind, n)
    roots = table.system.roots
    pairs = {alpha: {} for alpha in roots}
    for (beta, gamma), (c, alpha) in table.table.items():
        if beta.i == alpha.i:
            if c not in (1, -1):
                raise PairSignError(f"pair ({beta}, {gamma}) does not bracket to +/- e_{alpha}")
            pairs[alpha][beta] = (gamma, c)
    out = {}
    for alpha, found in pairs.items():
        sing = set(found) | {partner for partner, _ in found.values()}
        out[alpha] = SingularData(
            alpha,
            tuple(r for r in roots if r in sing),
            tuple(r for r in roots if r not in sing),
            tuple((gamma, *found[gamma]) for gamma in roots if gamma in found),
        )
    return out


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(2, 10))
def test_singular_data_equals_root_keyed_reference(kind, n):
    got = _singular_data(kind, n)
    expected = _reference_singular_data(kind, n)
    assert got == expected
    # the same order, down to the pairs
    assert repr(got) == repr(expected)


def test_singular_data_rejects_a_pair_without_unit_sign(monkeypatch):
    import coadorbits.orbits as orbits_mod

    system = get_system("A", 3)
    # [e_{e1-e2}, e_{e2-e3}] = 2 e_{e1-e3}: a pair of S(e1-e3) with c = 2
    by_index = ({1: (2, 2)}, {}, {})
    monkeypatch.setattr(orbits_mod, "structure_table",
                        lambda kind, n: BracketTable(system, by_index))
    with pytest.raises(PairSignError, match=r"^pair \(e1-e2, e2-e3\) .* e_e1-e3$"):
        _singular_data.__wrapped__(RootSystemKind.A, 3)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(2, 6))
def test_singular_data_is_a_hashable_record_of_tuples(kind, n):
    for alpha in get_system(kind, n).roots:
        data = singular_set(kind, n, alpha)
        assert [field.name for field in fields(data)] == ["alpha", "singular", "regular", "pairs"]
        assert all(type(getattr(data, field.name)) is tuple for field in fields(data)[1:])
        for attr in ("left", "pairing", "pair_signs"):
            assert not hasattr(data, attr)
        for pair in data.pairs:
            assert type(pair) is tuple and len(pair) == 3
            gamma, partner, sign = pair
            assert isinstance(gamma, PositiveRoot) and isinstance(partner, PositiveRoot)
            assert type(sign) is int
        rebuilt = _singular_data.__wrapped__(RootSystemKind(kind), n)[alpha]
        assert rebuilt is not data and rebuilt == data
        assert hash(rebuilt) == hash(data)
        assert {data: alpha}[rebuilt] == alpha


def test_cached_singular_data_survives_attempted_edits():
    # A genuine orbit point: one flipped sign in the cached record would make
    # construct_group_word reject it for every later caller.
    alpha = diff(1, 4)
    f, _ = random_orbit_point("A", 4, alpha, 1, seed=3)
    data = singular_set("A", 4, alpha)
    before = repr(data)
    gamma, partner, sign = data.pairs[0]
    with pytest.raises(FrozenInstanceError):
        data.pairs = ((gamma, partner, -sign),) + data.pairs[1:]
    with pytest.raises(TypeError):
        data.pairs[0] = (gamma, partner, -sign)
    with pytest.raises(TypeError):
        data.singular[0] = partner
    assert singular_set("A", 4, alpha) is data
    assert repr(orbit_chart("A", 4, alpha).data) == before
    word = construct_group_word("A", 4, alpha, f)
    assert coadjoint_apply(word, e_star(f.system, alpha)) == f
    assert contains(orbit_chart("A", 4, alpha), f)


# ---------------------------------------------------------------------------
# Charts: frozen worked examples
# ---------------------------------------------------------------------------

def test_chart_type_a_example():
    chart = orbit_chart("A", 4, diff(1, 4), 1)
    system = chart.system
    assert chart.constraints[diff(1, 4)] == Polynomial.const(1)
    assert chart.constraints[diff(2, 3)] == var(system, diff(1, 3)) * var(system, diff(2, 4))


def test_chart_b3_short_root_example():
    chart = orbit_chart("B", 3, short(1), 1)
    system = chart.system
    assert chart.constraints[short(1)] == Polynomial.const(1)
    assert chart.constraints[diff(2, 3)] == var(system, diff(1, 3)) * var(system, short(2))
    for beta in (sum_root(1, 2), sum_root(1, 3), sum_root(2, 3)):
        assert not chart.constraints[beta]


def test_chart_b3_diff_root_example():
    # the orbit of e*_{e1-e3} in B3 pins every other regular coordinate to zero
    chart = orbit_chart("B", 3, diff(1, 3), 1)
    assert set(chart.data.singular) == {diff(1, 2), diff(2, 3)}
    assert chart.constraints[diff(1, 3)] == Polynomial.const(1)
    for beta in (short(1), short(2), short(3), sum_root(1, 2), sum_root(1, 3), sum_root(2, 3)):
        assert not chart.constraints[beta]


def test_chart_b3_sum_root_certified_values():
    chart = orbit_chart("B", 3, sum_root(1, 3), 1)
    system = chart.system
    minus_half_sq = Q(-1, 2) * (var(system, short(1)) * var(system, short(1)))
    assert chart.constraints[diff(1, 3)] == minus_half_sq
    # the printed example's f(e2)^2 variant is rejected by the oracle; the
    # equation family gives f(e1)^2 here as well
    assert chart.constraints[diff(2, 3)] == minus_half_sq * var(system, sum_root(2, 3))
    assert chart.constraints[short(2)] == var(system, short(1)) * var(system, sum_root(2, 3))
    assert not chart.constraints[sum_root(1, 2)]


def test_chart_d3_sum_root_certified_values():
    # the two nonzero claims for this chart in circulation are typos: every
    # regular root except alpha itself is pinned to zero
    chart = orbit_chart("D", 3, sum_root(1, 3), 1)
    assert chart.constraints[sum_root(1, 3)] == Polynomial.const(1)
    for beta in (diff(1, 3), diff(2, 3), sum_root(1, 2)):
        assert not chart.constraints[beta]


def test_chart_simple_root_is_a_point():
    chart = orbit_chart("A", 3, diff(1, 2), 1)
    assert chart.data.singular == ()
    assert chart.constraints[diff(1, 2)] == Polynomial.const(1)
    assert not chart.constraints[diff(2, 3)]
    assert not chart.constraints[diff(1, 3)]


def test_zero_scalar_rejected():
    with pytest.raises(ZeroScalarError):
        orbit_chart("A", 3, diff(1, 3), 0)


def test_certified_sign_rule_is_constant_minus():
    assert CERTIFIED_SIGN_RULE == "constant-minus"
    # distinguishing point: B4, alpha = e1+e2, orbit point with a generic tail
    f, _ = random_orbit_point("B", 4, sum_root(1, 2), 1, seed="signs-separate")
    assert f.value(diff(1, 4)) * f.value(sum_root(1, 4)) != 0, "seed must hit a generic point"
    good = orbit_chart("B", 4, sum_root(1, 2), 1)
    assert contains(good, f)
    for rule in ("alternating", "alternating-offset"):
        bad = _paper_form("B", 4, sum_root(1, 2), rule)
        assert not _satisfies(bad, Q(1), f)


def test_alternating_rule_disagrees_at_n4():
    printed, _, _ = _paper_form("B", 4, sum_root(1, 2), "alternating")
    certified = orbit_chart("B", 4, sum_root(1, 2), 1)
    assert printed != certified.constraints


# ---------------------------------------------------------------------------
# Derived charts against the paper's equations
# ---------------------------------------------------------------------------

def _reference_tail(kind, n, i, j, rule):
    """The bracketed factor of the constraints at the roots e_r - e_j."""
    system = get_system(kind, n)
    tail = Polynomial.zero()
    if kind is RootSystemKind.B:
        tail = tail + Q(-1, 2) * (var(system, short(i)) * var(system, short(i)))
    for k in range(j + 1, n + 1):
        term = var(system, diff(i, k)) * var(system, sum_root(i, k))
        tail = tail + rule(k, j) * term
    return tail


def _reference_chart(kind, n, alpha, sign_rule=CERTIFIED_SIGN_RULE):
    """The level-1 constraints written out family by family, as the paper prints them.

    This is the hand-written case split that the derived orbit_chart
    replaced, with its sign-rule argument; the check that two overlapping
    cases agree raises AssertionError.
    """
    system = get_system(kind, n)
    rule = SIGN_RULES[sign_rule]
    data = singular_set(kind, n, alpha)
    sing = set(data.singular)
    kind = system.kind
    i, j = alpha.i, alpha.j
    cache = {}

    def value_of(root):
        """f(e_root) on the level-1 chart: 1 at alpha, free on S(alpha), else its constraint."""
        if root == alpha:
            return Polynomial.const(1)
        if root in sing:
            return var(system, root)
        got = cache.get(root)
        if got is None:
            got = _constraint(root)
            cache[root] = got
        return got

    def _diff_alpha_constraint(beta):
        if beta.tag == DIFF and i < beta.i < beta.j < j:
            return value_of(diff(i, beta.j)) * value_of(diff(beta.i, j))
        return Polynomial.zero()

    def _short_alpha_constraint(beta):
        if beta.tag == DIFF and i < beta.i < beta.j <= n:
            return value_of(diff(i, beta.j)) * value_of(short(beta.i))
        return Polynomial.zero()

    def _sum_alpha_constraint(beta):
        tail = _reference_tail(kind, n, i, j, rule)
        if beta.tag == DIFF:
            r, s = beta.i, beta.j
            if s == j and i <= r < j:
                return value_of(sum_root(r, j)) * tail
            if i <= r < s < j:
                return value_of(diff(i, s)) * value_of(sum_root(r, j))
            if i < r < j < s <= n:
                return value_of(diff(i, s)) * value_of(sum_root(r, j))
            if j < r < s <= n:
                return (value_of(diff(j, s)) * value_of(sum_root(i, r))
                        - value_of(diff(i, s)) * value_of(sum_root(j, r)))
            return Polynomial.zero()
        if beta.tag == SUM:
            r, s = beta.i, beta.j
            if i < r < j < s <= n:
                return value_of(sum_root(i, s)) * value_of(sum_root(r, j))
            if j < r < s <= n:
                return (value_of(sum_root(j, s)) * value_of(sum_root(i, r))
                        - value_of(sum_root(i, s)) * value_of(sum_root(j, r)))
            return Polynomial.zero()
        # short root (type B ambient only)
        r = beta.i
        if i < r < j:
            return value_of(short(i)) * value_of(sum_root(r, j))
        if j < r <= n:
            return (value_of(short(j)) * value_of(sum_root(i, r))
                    - value_of(short(i)) * value_of(sum_root(j, r)))
        return Polynomial.zero()

    def _constraint(beta):
        if alpha.tag == DIFF:
            return _diff_alpha_constraint(beta)
        if alpha.tag == SHORT:
            return _short_alpha_constraint(beta)
        return _sum_alpha_constraint(beta)

    constraints = {beta: value_of(beta) for beta in data.regular}

    if alpha.tag == SUM:
        # The generic diff case at s == j must agree with the dedicated
        # e_r - e_j case once the chart's own value at e_i - e_j is
        # substituted for that coordinate.
        for r in range(i, j):
            beta = diff(r, j)
            via_generic = value_of(diff(i, j)) * value_of(sum_root(r, j))
            assert via_generic == constraints[beta], f"overlapping cases disagree at {beta}"

    return constraints


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(2, 8))
def test_derived_chart_equals_reference(kind, n):
    system = get_system(kind, n)
    for alpha in system.roots:
        data = singular_set(kind, n, alpha)
        letters = _word_letters(data, lambda root: var(system, root))
        start = [0] * len(system.roots)
        start[system.index_of(alpha)] = Polynomial.const(1)
        vec, den = _act(system, letters, start, 1)
        moved = dict(zip(system.roots, vec))
        assert den == 1
        assert all(moved[s] == var(system, s) for s in data.singular)
        assert moved[alpha] == Polynomial.const(1)
        assert orbit_chart(kind, n, alpha, 1).constraints == _reference_chart(kind, n, alpha)


@pytest.mark.parametrize("kind", ["B", "D"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_paper_chart_equals_reference_under_every_rule(kind, n):
    for alpha in get_system(kind, n).roots:
        if alpha.tag != SUM:
            continue
        for rule in SIGN_RULES:
            got, _, _ = _paper_form(kind, n, alpha, rule)
            assert got == _reference_chart(kind, n, alpha, rule), (alpha, rule)


# ---------------------------------------------------------------------------
# Membership, chart points, scaling
# ---------------------------------------------------------------------------

def test_contains_base_point_and_zero():
    for kind in KINDS:
        system = get_system(kind, 3)
        for alpha in system.roots:
            chart = orbit_chart(kind, 3, alpha, Q(-3, 5))
            assert contains(chart, e_star(system, alpha, Q(-3, 5)))
            assert not contains(chart, functional(system, {}))


def test_contains_random_orbit_points():
    for kind in KINDS:
        for n in (2, 3, 4):
            system = get_system(kind, n)
            for alpha in system.roots:
                chart = orbit_chart(kind, n, alpha, 1)
                for t in range(10):
                    f, _ = random_orbit_point(kind, n, alpha, 1, seed=f"cs:{kind.value}:{n}:{alpha}:{t}")
                    assert contains(chart, f)


def test_contains_requires_matching_system():
    chart = orbit_chart("A", 3, diff(1, 3), 1)
    with pytest.raises(ValueError):
        contains(chart, e_star(get_system("A", 4), diff(1, 3)))


def test_chart_point_zero_assignment_is_base_point():
    chart = orbit_chart("B", 3, sum_root(1, 3), Q(7, 2))
    assignment = {r: 0 for r in chart.data.singular}
    assert chart_point(chart, assignment) == e_star(chart.system, sum_root(1, 3), Q(7, 2))


def test_chart_point_product_example():
    chart = orbit_chart("A", 4, diff(1, 4), 1)
    a, b = Q(5, 3), Q(-7, 2)
    assignment = {diff(1, 3): a, diff(2, 4): b, diff(1, 2): 0, diff(3, 4): 0}
    f = chart_point(chart, assignment)
    assert f.value(diff(2, 3)) == a * b
    assert f.value(diff(1, 4)) == 1


def test_chart_point_dimension_matches_singular_count():
    rng = random.Random("cp-dim")
    for kind in KINDS:
        system = get_system(kind, 4)
        for alpha in (system.roots[-1], system.roots[0]):
            chart = orbit_chart(kind, 4, alpha, 1)
            assignment = {r: Q(rng.choice([-2, -1, 1, 2, 3])) for r in chart.data.singular}
            f = chart_point(chart, assignment)
            assert orbit_dimension(f) == len(chart.data.singular)
            assert contains(chart, f)


def test_chart_point_variable_errors():
    chart = orbit_chart("A", 4, diff(1, 4), 1)
    with pytest.raises(ChartVariableError):
        chart_point(chart, {diff(1, 3): 1})
    full = {r: 0 for r in chart.data.singular}
    with pytest.raises(ChartVariableError):
        chart_point(chart, full | {diff(2, 3): 1})


@pytest.mark.parametrize("c", [Q(2), Q(-1), Q(7, 3)])
def test_scaling_relation(c):
    for kind in KINDS:
        system = get_system(kind, 3)
        for alpha in system.roots:
            chart_c = orbit_chart(kind, 3, alpha, c)
            chart_1 = orbit_chart(kind, 3, alpha, 1)
            for t in range(5):
                f, _ = random_orbit_point(kind, 3, alpha, c, seed=f"sc:{kind.value}:{alpha}:{c}:{t}")
                assert contains(chart_c, f)
                assert contains(chart_1, f.scaled(1 / c))
                assert not contains(chart_1, f) or c == 1 or f.value(alpha) == 1


# ---------------------------------------------------------------------------
# Integer membership against the Fraction reference
# ---------------------------------------------------------------------------

def _reference_contains(constraints, c, f):
    """Membership as the Fraction loop tested it: (1/c) f against each level-1 constraint."""
    index_of = f.system.index_of
    h = [Q(0)] * len(f.system.roots)
    for root, v in f.values.items():
        h[index_of(root)] = v / c
    for beta, poly in constraints.items():
        total = Q(0)
        for mono, coef in poly.terms.items():
            prod = coef
            for k in mono:
                prod *= h[k]
            total += prod
        if h[index_of(beta)] != total:
            return False
    return True


def _nudged(f, root, by=Q(1, 7)):
    """f with its value at root moved by ``by``."""
    return functional(f.system, f.values | {root: f.value(root) + by})


def _agree(chart, f):
    """contains(chart, f), asserted equal to the Fraction reference."""
    verdict = contains(chart, f)
    assert verdict is _reference_contains(chart.constraints, chart.c, f)
    return verdict


def _agree_form(form, f):
    """_satisfies(form, 1, f), as sign certification asks it, asserted equal to the reference."""
    verdict = _satisfies(form, Q(1), f)
    assert verdict is _reference_contains(form[0], Q(1), f)
    return verdict


DIFFERENTIAL_SCALARS = (Q(1), Q(-1), Q(2), Q(-3, 5), Q(7, 2))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(2, 7))
def test_contains_equals_fraction_reference(kind, n):
    system = get_system(kind, n)
    rng = random.Random(f"differential:{kind.value}:{n}")
    for alpha in system.roots:
        for c in DIFFERENTIAL_SCALARS:
            chart = orbit_chart(kind, n, alpha, c)
            f, _ = random_orbit_point(kind, n, alpha, c, seed=f"diff:{kind.value}:{n}:{alpha}:{c}")
            assert _agree(chart, f)
            assert not _agree(chart, _nudged(f, rng.choice(chart.data.regular)))
            if chart.data.singular:
                _agree(chart, _nudged(f, rng.choice(chart.data.singular)))
            # The same point against the level-1 chart, where c != 1 moves it off.
            _agree(orbit_chart(kind, n, alpha, 1), f)
            assert not _agree(chart, zero_functional(system))
            # Singular values with denominators up to 2^64: on the orbit, then nudged.
            big = {s: Q(rng.randrange(-2**64, 2**64), rng.randrange(1, 2**64))
                   for s in chart.data.singular}
            point = chart_point(chart, big)
            assert _agree(chart, point)
            assert not _agree(chart, _nudged(point, rng.choice(chart.data.regular)))
            if big:
                assert not _agree(chart, _nudged(point, alpha, Q(1, 2**64 + 1)))
            # Off-orbit functionals with small and with 64-bit denominators.
            g = random_functional(system, rng, force_root=alpha)
            _agree(chart, g)
            _agree(chart, functional(system, {r: v / rng.randrange(1, 2**64)
                                              for r, v in g.values.items()}))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(2, 7))
def test_a_nudge_at_any_regular_coordinate_leaves_the_orbit(kind, n):
    # Each regular coordinate in turn, so both membership paths run: the
    # positions whose constraint is zero and the evaluated constraints.
    system = get_system(kind, n)
    paths = set()
    for alpha in system.roots:
        for c in (Q(1), Q(-3, 5)):
            chart = orbit_chart(kind, n, alpha, c)
            f, _ = random_orbit_point(kind, n, alpha, c, seed=f"every:{kind.value}:{n}:{alpha}:{c}")
            assert _agree(chart, f)
            for beta in chart.data.regular:
                assert not _agree(chart, _nudged(f, beta))
                paths.add(bool(chart.constraints[beta]))
    assert paths == ({True} if (kind, n) == (RootSystemKind.A, 2) else {False, True})
    # The paper's printed equations, one form per sign rule, agree with the
    # reference at every nudge.
    for alpha in system.roots:
        if alpha.tag != SUM:
            continue
        f, _ = random_orbit_point(kind, n, alpha, 1, seed=f"every-rule:{kind.value}:{n}:{alpha}")
        for rule in sorted(SIGN_RULES):
            form = _paper_form(kind, n, alpha, rule)
            _agree_form(form, f)
            for beta in singular_set(kind, n, alpha).regular:
                _agree_form(form, _nudged(f, beta))


@pytest.mark.parametrize("kind", ["B", "D"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_contains_honours_replaced_constraints(kind, n):
    system = get_system(kind, n)
    for alpha in system.roots:
        if alpha.tag != SUM:
            continue
        for rule in sorted(SIGN_RULES):
            form = _paper_form(kind, n, alpha, rule)
            for t in range(4):
                f, _ = random_orbit_point(kind, n, alpha, 1, seed=f"rules:{kind}:{n}:{alpha}:{t}")
                _agree_form(form, f)
                _agree_form(form, _nudged(f, diff(alpha.i, n)))


def test_replaced_constraint_rejects_what_the_derived_chart_accepts():
    f, _ = random_orbit_point("B", 4, sum_root(1, 2), 1, seed="signs-separate")
    assert _agree(orbit_chart("B", 4, sum_root(1, 2), 1), f)
    assert not _agree_form(_paper_form("B", 4, sum_root(1, 2), "alternating"), f)


def test_chart_point_equals_fraction_reference():
    # Each regular value is c times the level-1 constraint at (1/c) times the assignment.
    rng = random.Random("chart-point-reference")
    for kind in KINDS:
        system = get_system(kind, 5)
        for alpha in system.roots:
            for c in DIFFERENTIAL_SCALARS:
                chart = orbit_chart(kind, 5, alpha, c)
                assignment = {s: Q(rng.randrange(-9, 10), rng.choice((1, 2, 3, 2**64)))
                              for s in chart.data.singular}
                h = [Q(0)] * len(system.roots)
                for s, v in assignment.items():
                    h[system.index_of(s)] = v / c
                point = chart_point(chart, assignment)
                for beta, poly in chart.constraints.items():
                    expected = c * sum((coef * math.prod(h[k] for k in mono)
                                        for mono, coef in poly.terms.items()), Q(0))
                    assert point.value(beta) == expected
                assert _agree(chart, point)


# ---------------------------------------------------------------------------
# The level-1 derivation cache
# ---------------------------------------------------------------------------

def test_charts_share_the_cached_constraints():
    alpha = sum_root(1, 2)
    first = orbit_chart("B", 4, alpha, 1)
    second = orbit_chart("B", 4, alpha, Q(-3, 5))
    cached, _, _ = _level_one(RootSystemKind.B, 4, alpha)
    assert first.constraints is cached and second.constraints is cached
    assert type(cached) is MappingProxyType
    # So an in-place edit, which would reach every chart of the root, raises.
    with pytest.raises(TypeError):
        first.constraints[diff(3, 4)] = Polynomial.const(5)
    with pytest.raises(TypeError):
        del first.constraints[diff(3, 4)]
    for method in ("clear", "pop", "popitem", "setdefault", "update"):
        assert not hasattr(first.constraints, method)
    # Both charts read membership through the one cached form.
    assert first._form is second._form is _level_one(RootSystemKind.B, 4, alpha)


def test_a_chart_is_built_with_the_cached_form_and_a_replaced_one_reads_its_own():
    alpha = sum_root(1, 2)
    cached = _level_one(RootSystemKind.B, 4, alpha)
    chart = orbit_chart("B", 4, alpha, Q(-3, 5))
    assert vars(chart)["_form"] is cached
    assert chart.data is _singular_data(RootSystemKind.B, 4)[alpha]
    # A chart made by replace is built, and so checked and given its form, anew.
    rescaled = replace(chart, c=Q(2))
    assert vars(rescaled)["_form"] is cached and rescaled == orbit_chart("B", 4, alpha, 2)


def test_a_chart_checks_its_root_when_built():
    system = get_system("A", 4)
    with pytest.raises(InvalidRootError):
        OrbitChart(system, diff(1, 9), 1)
    with pytest.raises(InvalidRootError):
        replace(orbit_chart("A", 4, diff(1, 4)), alpha=sum_root(1, 2))


@pytest.mark.parametrize("c", [0, Q(0), "0", "-0/3"])
def test_a_chart_made_by_replace_rejects_a_zero_scalar(c):
    # replace(chart, c=0) used to build a chart that contained e*_{e1-e3},
    # on which chart_point raised a bare ZeroDivisionError.
    chart = orbit_chart("A", 4, diff(1, 4))
    with pytest.raises(ZeroScalarError):
        replace(chart, c=c)
    with pytest.raises(ZeroScalarError):
        OrbitChart(chart.system, diff(1, 4), c)


@pytest.mark.parametrize("c", [2, "2", -3, "-3/5"])
def test_a_chart_made_by_replace_holds_its_scalar_as_a_fraction(c):
    # replace(chart, c=2) used to keep the int 2, and scaled_constraints then
    # computed 2 ** -1, the float 0.5, so rendering raised ValueError.
    for kind, n, alpha in (("A", 4, diff(1, 4)), ("B", 4, sum_root(1, 2)),
                           ("D", 5, sum_root(1, 3))):
        made = replace(orbit_chart(kind, n, alpha), c=c)
        direct = orbit_chart(kind, n, alpha, c)
        assert type(made.c) is Q and made == direct
        for fmt in ("text", "latex"):
            assert chart_lines(made, fmt) == chart_lines(direct, fmt)
        assert chart_to_json(made) == chart_to_json(direct)


def test_chart_polynomials_are_read_only():
    # Every chart of a root holds the cached level-1 polynomials themselves, so
    # terms an edit could reach would change every later chart's equations
    # while contains kept reading the stale cached integer form.
    alpha, beta = diff(1, 4), diff(2, 3)
    f, _ = random_orbit_point("A", 4, alpha, 1, seed=3)
    expected = (chart_lines(orbit_chart("A", 4, alpha), "text"),
                chart_to_json(orbit_chart("A", 4, alpha)))
    poly = orbit_chart("A", 4, alpha).constraints[beta]
    assert poly is _level_one(RootSystemKind.A, 4, alpha)[0][beta]
    for mono in list(poly.terms):
        with pytest.raises(TypeError):
            poly.terms[mono] = Q(7)
    for method in ("clear", "pop", "popitem", "setdefault", "update"):
        assert not hasattr(poly.terms, method)
    fresh = orbit_chart("A", 4, alpha)
    assert (chart_lines(fresh, "text"), chart_to_json(fresh)) == expected
    assert "f(e2-e3) = f(e1-e3)*f(e2-e4)" in expected[0]
    assert contains(fresh, f) and not contains(fresh, _nudged(f, beta))


def test_a_polynomial_keeps_its_own_copy_of_the_terms_given():
    terms = {(0,): Q(2), (0, 1): Q(-1, 3)}
    poly = Polynomial(terms)
    value = poly.evaluate([Q(1), Q(3)])
    terms[(0,)] = Q(7)
    terms.clear()
    assert poly.terms == {(0,): Q(2), (0, 1): Q(-1, 3)}
    assert poly.evaluate([Q(1), Q(3)]) == value == 1
    assert poly == Polynomial(dict(poly.terms)) and -(-poly) == poly


def test_equal_polynomials_hash_equal_however_built():
    a = Polynomial({(0, 1): Q(1, 2), (2,): 3, (): -1})
    b = Polynomial({(): -1, (1, 0): Q(1, 4), (2,): Q(3), (0, 1): Q(1, 4)})
    c = Polynomial.var(2) * 3 + Polynomial.var(1) * Polynomial.var(0) * Q(1, 2) - 1
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert len({a, b, c, Polynomial.var(2)}) == 2
    assert {a: "a"}[c] == "a"
    assert hash(Polynomial({(0,): 0})) == hash(Polynomial.zero())


@pytest.mark.parametrize("kind, n, alpha", [("A", 5, diff(1, 5)), ("B", 4, sum_root(1, 2)),
                                            ("B", 4, short(2)), ("D", 5, sum_root(1, 3))])
def test_charts_of_one_root_are_equal_and_hash_equal(kind, n, alpha):
    first, second = orbit_chart(kind, n, alpha, Q(-3, 5)), orbit_chart(kind, n, alpha, Q(-3, 5))
    assert first == second and hash(first) == hash(second)
    assert len({first, second, orbit_chart(kind, n, alpha, 2)}) == 2
    # A chart made by replace is equal, and hashes equal, when its fields are.
    copy = replace(first, c="-3/5")
    assert copy == first and hash(copy) == hash(first)


def test_a_second_chart_call_derives_nothing(monkeypatch):
    import coadorbits.orbits as orbits_module

    alpha = diff(1, 5)
    first = orbit_chart("A", 6, alpha, 1)
    point = chart_point(first, {root: 1 for root in first.data.singular})
    assert contains(first, point)
    before = _level_one.cache_info()
    calls = []
    monkeypatch.setattr(orbits_module, "_act", lambda *args: calls.append(args))
    monkeypatch.setattr(orbits_module, "_membership_form", lambda *args: calls.append(args))
    chart = orbit_chart("A", 6, alpha, Q(7, 2))
    after = _level_one.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    # Membership and chart points read the form the chart was built with, so
    # they ask the cache nothing more.
    assert contains(chart, point.scaled(Q(7, 2)))
    scaled = {root: Q(7, 2) for root in chart.data.singular}
    assert chart_point(chart, scaled) == point.scaled(Q(7, 2))
    forms_after = _level_one.cache_info()
    assert (forms_after.hits, forms_after.misses) == (after.hits, after.misses)
    assert chart.constraints is _level_one(RootSystemKind.A, 6, alpha)[0]
    assert calls == []


def test_unconstrained_regular_roots_share_one_zero():
    for kind in KINDS:
        system = get_system(kind, 5)
        for alpha in system.roots:
            for poly in orbit_chart(kind, 5, alpha, 1).constraints.values():
                assert poly or poly is _ZERO


# ---------------------------------------------------------------------------
# Constructive group words
# ---------------------------------------------------------------------------

def test_word_for_base_point_has_zero_parameters():
    for kind in KINDS:
        system = get_system(kind, 3)
        alpha = system.roots[-1]
        word = construct_group_word(kind, 3, alpha, e_star(system, alpha))
        assert all(t == 0 for _, t in word.letters)


def test_word_round_trip_type_a_two_letters():
    system = get_system("A", 3)
    chart = orbit_chart("A", 3, diff(1, 3), 1)
    f = chart_point(chart, {diff(1, 2): Q(4), diff(2, 3): Q(-5, 2)})
    word = construct_group_word("A", 3, diff(1, 3), f)
    assert len(word.letters) == 2
    assert coadjoint_apply(word, e_star(system, diff(1, 3))) == f


def test_word_round_trip_b3_short_root():
    system = get_system("B", 3)
    chart = orbit_chart("B", 3, short(1), 1)
    assignment = {diff(1, 2): Q(2), short(2): Q(-1, 3), diff(1, 3): Q(1, 2), short(3): Q(3)}
    f = chart_point(chart, assignment)
    word = construct_group_word("B", 3, short(1), f)
    assert len(word.letters) == 4
    assert coadjoint_apply(word, e_star(system, short(1))) == f


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_word_round_trip_everywhere(kind, n):
    rng = random.Random(f"rt:{kind.value}:{n}")
    system = get_system(kind, n)
    for alpha in system.roots:
        chart = orbit_chart(kind, n, alpha, 1)
        for _ in range(5):
            assignment = {r: Q(rng.choice([-3, -2, -1, 0, 1, 2])) for r in chart.data.singular}
            f = chart_point(chart, assignment)
            word = construct_group_word(kind, n, alpha, f)
            assert coadjoint_apply(word, e_star(system, alpha)) == f


def _reference_letters(kind, n, alpha, f):
    """The per-family constructive letters, with sum-root pairs found on weights.

    Difference and short roots use their explicit products; a sum root pairs
    each singular root gamma through alpha's first index with the root
    alpha - gamma, signed by the matrix commutator.
    """
    i, j = alpha.i, alpha.j
    letters = []
    if alpha.tag == "diff":
        for k in range(i + 1, j):
            letters.append((diff(k, j), f.value(diff(i, k))))
        for k in range(i + 1, j):
            letters.append((diff(i, k), -f.value(diff(k, j))))
    elif alpha.tag == "short":
        for k in range(i + 1, n + 1):
            letters.append((short(k), f.value(diff(i, k))))
        for k in range(i + 1, n + 1):
            letters.append((diff(i, k), -f.value(short(k))))
    else:
        pairs = []
        for gamma in singular_set(kind, n, alpha).singular:
            if i not in weight(gamma):
                continue
            w = weight(alpha)
            for k, v in weight(gamma).items():
                w[k] = w.get(k, 0) - v
            partner = root_from_weight(w)
            sign, target = bracket(kind, n, gamma, partner)
            assert target == alpha
            pairs.append((gamma, partner, sign))
        for gamma, partner, sign in pairs:
            letters.append((partner, sign * f.value(gamma)))
        for gamma, partner, sign in pairs:
            letters.append((gamma, -sign * f.value(partner)))
    return letters


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(2, 7))
def test_word_equals_reference_letters(kind, n):
    rng = random.Random(f"letters:{kind.value}:{n}")
    system = get_system(kind, n)
    for alpha in system.roots:
        chart = orbit_chart(kind, n, alpha, 1)
        for _ in range(3):
            assignment = {r: Q(rng.randint(-4, 4), rng.randint(1, 3)) for r in chart.data.singular}
            f = chart_point(chart, assignment)
            word = construct_group_word(kind, n, alpha, f)
            assert list(word.letters) == _reference_letters(kind, n, alpha, f)


def test_word_requires_orbit_membership():
    system = get_system("A", 4)
    with pytest.raises(NotInOrbitError):
        construct_group_word("A", 4, diff(1, 4), functional(system, {diff(1, 4): 2}))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_word_rejects_a_shifted_regular_coordinate(kind, n):
    rng = random.Random(f"shift:{kind.value}:{n}")
    system = get_system(kind, n)
    for alpha in system.roots:
        chart = orbit_chart(kind, n, alpha, 1)
        f = chart_point(chart, {r: Q(rng.randint(-3, 3)) for r in chart.data.singular})
        for beta in chart.data.regular:
            moved = functional(system, {**f.values, beta: f.value(beta) + 1})
            with pytest.raises(NotInOrbitError):
                construct_group_word(kind, n, alpha, moved)


def test_word_rejects_a_functional_on_another_system():
    f = e_star(get_system("A", 4), diff(1, 4))
    with pytest.raises(ValueError):
        construct_group_word("A", 5, diff(1, 4), f)


def _replayed_word(kind, n, alpha, f):
    """The word by replay, the reference for construct_group_word's chart test.

    The constructive letters at f's singular values are applied to e*_alpha;
    f is in the level-1 orbit exactly when that gives f back.
    """
    letters = _word_letters(singular_set(kind, n, alpha), f.value)
    moved = _act(f.system, letters, e_star(f.system, alpha).nums, 1)
    if _from_vector(f.system, *moved) != f:
        raise NotInOrbitError(f"functional is not in the level-1 orbit of {alpha}")
    return GroupWord(letters)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(2, 7))
def test_word_rejects_exactly_where_the_replay_rejects(kind, n):
    rng = random.Random(f"replay:{kind.value}:{n}")
    system = get_system(kind, n)

    def accepted(alpha, f):
        """Whether the replay accepts f, asserted to match construct_group_word."""
        try:
            expected = _replayed_word(kind, n, alpha, f)
        except NotInOrbitError:
            with pytest.raises(NotInOrbitError):
                construct_group_word(kind, n, alpha, f)
            return False
        assert construct_group_word(kind, n, alpha, f) == expected
        return True

    for alpha in system.roots:
        chart = orbit_chart(kind, n, alpha, 1)
        f = chart_point(chart, {r: Q(rng.randint(-4, 4), rng.randint(1, 3))
                                for r in chart.data.singular})
        assert accepted(alpha, f)
        assert accepted(alpha, random_orbit_point(kind, n, alpha, 1, seed=f"replay:{alpha}")[0])
        for beta in chart.data.regular:
            assert not accepted(alpha, _nudged(f, beta))
        for _ in range(3):
            accepted(alpha, random_functional(system, rng, force_root=alpha))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def test_chart_text_rendering():
    lines = chart_lines(orbit_chart("A", 4, diff(1, 4), 1), "text")
    assert "f(e2-e3) = f(e1-e3)*f(e2-e4)" in lines
    assert "f(e1-e4) = 1" in lines
    assert lines[-1] == "free: e1-e2 e3-e4 e1-e3 e2-e4"
    lines = chart_lines(orbit_chart("B", 3, short(1), 1), "text")
    assert "f(e2-e3) = f(e1-e3)*f(e2)" in lines
    lines = chart_lines(orbit_chart("B", 3, sum_root(1, 3), 1), "text")
    assert "f(e1-e3) = -1/2*f(e1)^2" in lines
    # A simple root has no singular roots: every other coordinate vanishes.
    lines = chart_lines(orbit_chart("A", 4, diff(1, 2), 1), "text")
    assert lines[0] == "f(e1-e2) = 1" and lines[-1] == "free: (none)"


def test_chart_scaled_rendering():
    lines = chart_lines(orbit_chart("A", 4, diff(1, 4), Q(2)), "text")
    assert "f(e1-e4) = 2" in lines
    assert "f(e2-e3) = 1/2*f(e1-e3)*f(e2-e4)" in lines


def test_chart_latex_rendering():
    lines = chart_lines(orbit_chart("B", 3, sum_root(1, 3), 1), "latex")
    joined = "\n".join(lines)
    assert r"f(e_{\epsilon_{1}-\epsilon_{3}}) = -\frac{1}{2}f(e_{\epsilon_{1}})^{2}" in joined
    assert lines[-1] == (r"\text{free: } e_{\epsilon_{1}-\epsilon_{2}}, e_{\epsilon_{1}}, "
                         r"e_{\epsilon_{3}}, e_{\epsilon_{2}+\epsilon_{3}}")
    lines = chart_lines(orbit_chart("A", 4, diff(1, 2), 1), "latex")
    assert lines[-1] == r"\text{free: } "


def _rendered(poly: Polynomial, fmt: str = "text") -> str:
    """poly as chart_lines renders a constraint of A3."""
    return _render(poly, get_system("A", 3).roots, _STYLES[fmt])


def test_polynomial_text_corner_cases():
    system = get_system("A", 3)
    assert _rendered(Polynomial.zero()) == _rendered(Polynomial.zero(), "latex") == "0"
    assert _rendered(Polynomial.const(Q(-3, 4))) == "-3/4"
    assert _rendered(Polynomial.const(Q(-3, 4)), "latex") == r"-\frac{3}{4}"
    p = Polynomial.const(1) - var(system, diff(1, 2)) * var(system, diff(1, 2))
    assert _rendered(p) == "1 - f(e1-e2)^2"
    assert _rendered(p, "latex") == r"1 - f(e_{\epsilon_{1}-\epsilon_{2}})^{2}"


@pytest.mark.parametrize("k", [diff(1, 2), Q(1), 1.0, True, "1", None])
def test_polynomial_var_rejects_a_non_int_position(k):
    # A root passed where its position belongs used to fail only in __mul__'s sort.
    with pytest.raises(ValueError, match=f"an int; got a {type(k).__name__}$"):
        Polynomial.var(k)


@pytest.mark.parametrize("k", [-1, -5, pytest.param(-10**5000, id="past-the-int-digit-limit")])
def test_polynomial_var_rejects_a_negative_position(k):
    # var(-1) used to evaluate the last position of the values.
    with pytest.raises(ValueError, match="non-negative int; got a negative int$"):
        Polynomial.var(k)


@pytest.mark.parametrize("value", [0.0, -0.0, False, None, [], ""])
def test_polynomial_addition_rejects_a_falsy_non_rational(value):
    # Adding a falsy float, bool, None, [] or "" used to return the polynomial
    # itself, although + 0.5 and + True raised.
    p = Polynomial.var(0)
    for add in (lambda: p + value, lambda: value + p, lambda: p - value):
        with pytest.raises(ValueError, match=re.escape(repr(value)) + "$"):
            add()


@pytest.mark.parametrize("zero", [0, Q(0), "0", "-0/5"])
def test_adding_an_exact_zero_returns_the_polynomial_itself(zero):
    p = Polynomial.var(0) * Q(3, 2)
    assert p + zero is p and zero + p is p
    assert p + "1/2" == p + Q(1, 2) == Q(1, 2) + p


def test_a_polynomial_rejects_a_float_coefficient():
    # It used to be stored, and the integer form then raised AttributeError.
    with pytest.raises(ValueError, match="got 0.5$"):
        Polynomial({(0,): 0.5})


def test_a_polynomial_rejects_a_bool_coefficient():
    # True used to be stored as a coefficient.
    with pytest.raises(ValueError, match="got True$"):
        Polynomial({(0,): True})


def test_a_polynomial_drops_a_zero_coefficient():
    # Polynomial({(): Fraction(0)}) used to be truthy and unequal to zero.
    zero = Polynomial({(): Q(0), (1, 0): "0/3"})
    assert not zero and zero == Polynomial.zero() and zero.terms == {}


def test_a_polynomial_merges_monomials_that_sort_alike():
    # Unsorted monomials used to stay apart, so this sum stayed nonzero and
    # rendered as -f(e1-e2)*f(e2-e3) + f(e2-e3)*f(e1-e2).
    assert not Polynomial({(1, 0): 1}) + Polynomial({(0, 1): -1})
    merged = Polynomial({(1, 0): 1, (0, 1): Q(1, 2), (2,): "-3/4"})
    assert merged.terms == {(0, 1): Q(3, 2), (2,): Q(-3, 4)}
    assert all(type(c) is Q for c in merged.terms.values())
    assert _rendered(merged) == "-3/4*f(e1-e3) + 3/2*f(e1-e2)*f(e2-e3)"


@pytest.mark.parametrize("mono", [(-1,), (2, -1), (0, Q(1)), (True,), (0, "1")])
def test_a_polynomial_rejects_a_position_that_is_not_a_non_negative_int(mono):
    # Polynomial({(-1,): 1}) used to read values[-1], the last position.
    with pytest.raises(ValueError, match="^a variable is a position, a"):
        Polynomial({mono: 1})


def _reference_sorted_terms(poly, roots):
    """The display order of root-keyed monomials: by degree, then the roots' sort keys."""
    return sorted(poly.terms.items(),
                  key=lambda item: (len(item[0]), [roots[k].sort_key() for k in item[0]]))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(2, 7))
def test_sorted_terms_keep_the_root_key_order(kind, n):
    roots = get_system(kind, n).roots
    for alpha in roots:
        for c in (Q(1), Q(-3, 5)):
            chart = orbit_chart(kind, n, alpha, c)
            for polys in (chart.constraints, chart.scaled_constraints()):
                for poly in polys.values():
                    assert poly.sorted_terms() == _reference_sorted_terms(poly, roots)
                    for mono in poly.terms:
                        factors = [roots[k] for k in mono]
                        assert factors == sorted(factors, key=lambda r: r.sort_key())


def test_chart_json_shape():
    payload = chart_to_json(orbit_chart("B", 3, sum_root(1, 3), Q(1)))
    assert payload["alpha"] == "e1+e3"
    assert payload["c"] == "1"
    assert payload["free"] == ["e1-e2", "e1", "e3", "e2+e3"]
    assert payload["constraints"]["e1-e3"] == [["-1/2", ["e1", "e1"]]]
