"""Coadjoint action, skew forms, orbit dimensions, radicals."""

import copy
import itertools
import math
import pickle
import random
import re
import sys
from dataclasses import replace
from functools import lru_cache
from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coadorbits import functionals
from coadorbits.basic import basic_map, basic_point, basic_subset, enumerate_basic_subsets
from coadorbits.functionals import (
    Functional,
    GroupWord,
    _act,
    _ad_chains,
    _from_vector,
    _functional,
    _skew_rows,
    coadjoint_apply,
    coadjoint_apply_one,
    concat_words,
    e_star,
    functional,
    functional_from_json,
    functional_to_json,
    orbit_dimension,
    radical_basis,
    skew_form,
    word_from_json,
    word_to_json,
    zero_functional,
)
from coadorbits.linalg import _forward, _kernel, _reduce_above, kernel_basis, rank
from coadorbits.oracle import (default_word_length, random_functional, random_orbit_point,
                               random_word)
from coadorbits.orbits import _word_letters, chart_point, contains, orbit_chart, singular_set
from coadorbits.polynomials import Polynomial
from coadorbits.roots import (
    SHORT,
    InvalidRootError,
    RootSystemKind,
    bracket,
    diff,
    get_system,
    short,
    structure_table,
    sum_root,
)
from test_linalg import (_eliminate, _exact_kernel, _interleaved_reduced,
                         assert_spans_the_canonical_kernel, canonical, closed_form_height,
                         flag_order, flag_rows)

KINDS = tuple(RootSystemKind)

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
).filter(lambda q: q != 0)


def small_words(system, max_len=4):
    roots = st.sampled_from(system.roots)
    return st.lists(st.tuples(roots, rationals), max_size=max_len).map(GroupWord)


# ---------------------------------------------------------------------------
# One-letter action
# ---------------------------------------------------------------------------

def test_simple_root_functionals_are_fixed_points():
    for kind in KINDS:
        system = get_system(kind, 4)
        for alpha in system.simple_roots():
            f = e_star(system, alpha, Q(5, 3))
            for beta in system.roots:
                assert coadjoint_apply_one(beta, Q(7, 2), f) == f


def test_zero_parameter_is_identity():
    system = get_system("B", 3)
    f = e_star(system, sum_root(1, 3), 2)
    assert coadjoint_apply_one(diff(1, 2), 0, f) == f


def test_one_letter_worked_example():
    # acting along e2-e3 on e*_{e1-e3} feeds the parameter into the e1-e2 slot
    system = get_system("A", 3)
    f = e_star(system, diff(1, 3))
    g = coadjoint_apply_one(diff(2, 3), Q(5, 7), f)
    assert g.values == {diff(1, 2): Q(5, 7), diff(1, 3): Q(1)}


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

def test_empty_word_is_identity():
    system = get_system("D", 3)
    f = e_star(system, sum_root(1, 3), -2)
    assert coadjoint_apply(GroupWord([]), f) == f


def test_inverse_word():
    system = get_system("B", 3)
    f = functional(system, {sum_root(1, 3): Q(2), diff(1, 2): Q(-1, 3)})
    w = GroupWord([(short(2), Q(3, 2)), (short(2), Q(-3, 2))])
    assert coadjoint_apply(w, f) == f


@given(rationals, rationals)
def test_one_parameter_subgroup_law(s, t):
    system = get_system("B", 3)
    f = functional(system, {sum_root(1, 3): 1, diff(1, 3): Q(1, 2), short(3): -2})
    beta = short(2)
    two = coadjoint_apply(GroupWord([(beta, s), (beta, t)]), f)
    one = coadjoint_apply(GroupWord([(beta, s + t)]), f)
    assert two == one


@given(st.data())
def test_concatenation_is_group_multiplication(data):
    system = get_system("A", 4)
    w1 = data.draw(small_words(system))
    w2 = data.draw(small_words(system))
    f = functional(system, {diff(1, 4): 1, diff(2, 4): Q(1, 2)})
    lhs = coadjoint_apply(concat_words(w1, w2), f)
    rhs = coadjoint_apply(w1, coadjoint_apply(w2, f))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# The index-based action against the per-root series it replaced
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _reference_chains(kind, n):
    """Per (beta, gamma): the nonzero tail of exp(ad(-t e_beta)) e_gamma, keyed by roots."""
    table = structure_table(kind, n)
    chains = {}
    for beta in table.system.roots:
        for gamma in table.system.roots:
            entries = []
            cur = gamma
            c = 1
            m = 0
            while True:
                hit = table.get(beta, cur)
                if hit is None:
                    break
                k, cur = hit
                c *= k
                m += 1
                entries.append((cur, m, Q(c, math.factorial(m))))
            if entries:
                chains[(beta, gamma)] = tuple(entries)
    return chains


def _reference_apply_one(beta, t, f):
    """One letter, root by root: f(exp(ad(-t e_beta)) e_gamma) for every gamma."""
    system = f.system
    system.index_of(beta)
    t = Q(t)
    if t == 0 or not f.values:
        return f
    chains = _reference_chains(system.kind, system.n)
    vals = {}
    for gamma in system.roots:
        v = f.values.get(gamma, Q(0))
        for target, m, coef in chains.get((beta, gamma), ()):
            fv = f.values.get(target)
            if fv:
                v += fv * coef * (-t) ** m
        if v:
            vals[gamma] = v
    return functional(system, vals)


def _reference_apply(word, f):
    for beta, t in reversed(word.letters):
        f = _reference_apply_one(beta, t, f)
    return f


REFERENCE_SYSTEMS = (
    [("A", n) for n in range(2, 7)] + [("B", n) for n in range(2, 6)]
    + [("D", n) for n in range(2, 6)]
)
# Zero, integer and fractional parameters; ints are left unconverted.
PARAMETERS = (0, 0, 1, -1, 2, -3, Q(1, 2), Q(-5, 3), Q(7, 4))


def _stored_exactly(f):
    return all(type(v) is Q and v != 0 for v in f.values.values())


def _reference_cases(system, rng):
    """(word, functional) pairs: random, zero, elementary; repeated letters and the empty word."""
    for trial in range(12):
        if trial % 4 == 0:
            f = zero_functional(system)
        elif trial % 4 == 1:
            f = e_star(system, rng.choice(system.roots), rng.choice(PARAMETERS[2:]))
        else:
            f = random_functional(system, rng)
        letters = []
        for _ in range(rng.randrange(0, 2 * len(system.roots) + 1)):
            letter = (rng.choice(system.roots), rng.choice(PARAMETERS))
            letters.extend([letter] * rng.choice((1, 1, 2, 3)))
        yield GroupWord(tuple(letters)), f
    yield GroupWord(), random_functional(system, rng)


@pytest.mark.parametrize("kind,n", REFERENCE_SYSTEMS)
def test_action_equals_per_root_reference(kind, n):
    system = get_system(kind, n)
    rng = random.Random(f"reference:{kind}:{n}")
    for word, f in _reference_cases(system, rng):
        got = coadjoint_apply(word, f)
        assert got == _reference_apply(word, f)
        assert _stored_exactly(got)
        if not word.letters or not f.values:
            assert got is f
        for beta, t in word.letters:
            one = coadjoint_apply_one(beta, t, f)
            assert one == _reference_apply_one(beta, t, f)
            assert _stored_exactly(one)


@lru_cache(maxsize=None)
def _reference_ad_chains(kind, n):
    """The ad-chains built by root-pair table lookups, as before the index-keyed table."""
    table = structure_table(kind, n)
    roots = table.system.roots
    index_of = table.system.index_of
    chains = []
    for beta in roots:
        moved = []
        for g, gamma in enumerate(roots):
            tail = []
            cur, c, m = gamma, 1, 0
            while (hit := table.get(beta, cur)) is not None:
                k, cur = hit
                c *= -k
                m += 1
                tail.append((index_of(cur), m, Q(c, math.factorial(m))))
            if tail:
                moved.append((g, tuple(tail)))
        chains.append(tuple(moved))
    return tuple(chains)


def _plan_tails(plan):
    """A letter's plan (twos, plus, minus) as three lists [(g, ((target, m, coef), ...)), ...].

    A two-term tail stores its second-order coefficient as a numerator over
    2; a one-term tail's coefficient is its sign group's, +1 or -1.
    """
    twos, plus, minus = plan
    return ([(g, ((p, 1, c), (q, 2, Q(d2, 2)))) for g, _, p, c, q, d2 in twos],
            [(g, ((p, 1, 1),)) for g, _, p in plus],
            [(g, ((p, 1, -1),)) for g, _, p in minus])


def _plan_groups(tail):
    """Where the reference tail falls in a plan: two-term first, then +1, then -1 one-term."""
    return (0,) if len(tail) == 2 else (1, -tail[0][2])


@pytest.mark.parametrize("kind", KINDS)
def test_ad_chains_equal_root_pair_reference(kind):
    for n in range(2, 9):
        reads, plans = _ad_chains(kind, n)
        reference = _reference_ad_chains(kind, n)
        roots = get_system(kind, n).roots
        assert list(reads) == list(plans) == list(roots)
        # The same tails, two-term first, then one-term by sign, in gamma
        # order within a group, and a reads mask with the bit of every
        # position a tail reads.
        for beta, moved in zip(roots, reference):
            twos, plus, minus = _plan_tails(plans[beta])
            assert twos + plus + minus == sorted(moved, key=lambda item: _plan_groups(item[1]))
            assert reads[beta] == sum({1 << target for _, tail in moved for target, _, _ in tail})
        # Every plan entry is an int and carries its gamma's bit. Only type
        # B's short roots have second-order tails, and each stores the
        # reference's -1/2 as the numerator -1 over 2.
        for beta, (twos, plus, minus) in plans.items():
            assert all(type(x) is int for entry in twos + plus + minus for x in entry)
            assert all(entry[1] == 1 << entry[0] for entry in twos + plus + minus)
            if twos:
                assert kind is RootSystemKind.B and beta.tag == SHORT
            for g, bit, p, c, q, d2 in twos:
                assert d2 == -1 and Q(d2, 2) == Q(-1, 2)


@pytest.mark.parametrize("kind", KINDS)
def test_ad_chain_plans_read_no_gamma_they_have_updated(kind):
    """In-place updates are exact, and the sign groups may run in any order.

    No gamma is read by a gamma listed after it in its plan; no two-term
    entry reads what a two-term entry writes; no one-term entry reads what
    any entry of its letter writes.
    """
    for n in range(2, 9):
        for plan in _ad_chains(kind, n)[1].values():
            twos, plus, minus = _plan_tails(plan)
            written = set()
            for g, tail in twos + plus + minus:
                assert not written & {target for target, _, _ in tail}
                written.add(g)
            reads = lambda entries: {target for _, tail in entries for target, _, _ in tail}
            assert not reads(twos) & {g for g, _ in twos}
            assert not reads(plus + minus) & written


# ---------------------------------------------------------------------------
# The integer action against the all-Fraction loop it replaced
# ---------------------------------------------------------------------------

def _reference_act(system, letters, values):
    """The action loop over all-Fraction ad-chains, as it ran before ints travelled inside."""
    index_of = system.index_of
    moves = []
    for beta, t in reversed(letters):
        b = index_of(beta)
        if t:
            moves.append((b, t))
    if not moves or not values:
        return values
    chains = _reference_ad_chains(system.kind, system.n)
    vec = [0] * len(system.roots)
    for root, v in values.items():
        vec[index_of(root)] = v
    for b, t in moves:
        powers = [1, t]
        deltas = []
        for g, tail in chains[b]:
            while len(powers) <= len(tail):
                powers.append(powers[-1] * t)
            d = 0
            for target, m, coef in tail:
                x = vec[target]
                if x:
                    d += x * coef * powers[m]
            if d:
                deltas.append((g, d))
        for g, d in deltas:
            vec[g] += d
    roots = system.roots
    return {roots[k]: v for k, v in enumerate(vec) if v}


def _reference_evaluate(poly, values):
    """poly at values, a list over canonical positions, in Fractions throughout."""
    total = Q(0)
    for mono, c in poly.terms.items():
        prod = c
        for k in mono:
            prod *= Q(values[k])
        total += prod
    return total


ACT_SYSTEMS = [(kind, n) for kind in "ABD" for n in range(2, 7)]
# Integral and non-integral parameters and values, zero included.
act_rationals = st.one_of(
    st.integers(-3, 3).map(Q),
    st.sampled_from([Q(-3, 5), Q(1, 2), Q(-7, 4)]),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@st.composite
def act_cases(draw):
    """(system, letters, values); a type-B word always carries a short-root letter."""
    kind, n = draw(st.sampled_from(ACT_SYSTEMS))
    system = get_system(kind, n)
    roots = st.sampled_from(system.roots)
    letters = draw(st.lists(st.tuples(roots, act_rationals), max_size=2 * len(system.roots)))
    if kind == "B":
        short_roots = [r for r in system.roots if r.tag == SHORT]
        letters.insert(draw(st.integers(0, len(letters))),
                       (draw(st.sampled_from(short_roots)), draw(st.integers(1, 3).map(Q))))
    values = draw(st.dictionaries(roots, act_rationals, max_size=len(system.roots)))
    return system, letters, values


@given(act_cases())
def test_action_equals_all_fraction_reference(case):
    system, letters, values = case
    f = functional(system, values)
    word = GroupWord(letters)
    got = coadjoint_apply(word, f)
    assert got.values == _reference_act(system, word.letters, f.values)
    assert _stored_exactly(got)
    beta, t = word.letters[-1] if word.letters else (system.roots[0], Q(1))
    one = coadjoint_apply_one(beta, t, f)
    assert one.values == _reference_act(system, ((beta, t),), f.values)
    assert _stored_exactly(one)


def _assert_action_matches_reference(word, f):
    got = coadjoint_apply(word, f)
    assert got.values == _reference_act(f.system, word.letters, f.values)
    assert _stored_exactly(got)
    return got


def test_action_equals_reference_on_workload_shaped_inputs():
    # Every alpha of B4-B6 under random 2N-letter words, whose odd parameters
    # make real halves on short-root letters.
    rng = random.Random("workload-shaped")
    non_integral = 0
    for n in (4, 5, 6):
        system = get_system("B", n)
        for alpha in system.roots:
            f = e_star(system, alpha, rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(2):
                word = random_word(system, rng, default_word_length(system))
                got = _assert_action_matches_reference(word, f)
                non_integral += any(v.denominator != 1 for v in got.values.values())
    assert non_integral
    # Basic points of A6-A8 with phi denominators 1 to 3: values over a
    # common denominator above 1.
    with_denominator = 0
    for n in (6, 7, 8):
        system = get_system("A", n)
        subsets = list(enumerate_basic_subsets(n))
        for _ in range(8):
            subset = subsets[rng.randrange(len(subsets))]
            phi = {root: Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
                   for root in subset.roots}
            f = basic_point(basic_map(subset, phi)) if phi else zero_functional(system)
            with_denominator += any(v.denominator != 1 for v in f.values.values())
            _assert_action_matches_reference(
                random_word(system, rng, default_word_length(system)), f)
    assert with_denominator
    # A rational parameter between two odd short-root letters. On odd values
    # the first letter applied meets odd second-order terms wherever its plan
    # has any; the rational middle letter puts Fractions into the vector,
    # which the last letter meets in some cases as second-order terms.
    odd_halves = fraction_halves = 0
    for n in (2, 3, 4, 5):
        system = get_system("B", n)
        plans = _ad_chains(system.kind, n)[1]
        shorts = [r for r in system.roots if r.tag == SHORT]
        f = functional(system, {r: 2 * (k % 3) + 1 for k, r in enumerate(system.roots)})
        for first, last, middle in itertools.product(shorts, shorts, system.roots):
            word = GroupWord([(last, 3), (middle, Q(-2, 3)), (first, 1)])
            _assert_action_matches_reference(word, f)
            between = _reference_act(system, word.letters[1:], f.values)
            odd_halves += bool(plans[first][0])
            fraction_halves += any(
                Q(between.get(system.roots[q], 0)).denominator != 1
                for _, _, _, _, q, _ in plans[last][0])
    assert odd_halves and fraction_halves


def _reads(system, beta):
    """The positions the reference plan of the letter beta reads."""
    chains = _reference_ad_chains(system.kind, system.n)
    return {target for _, tail in chains[system.index_of(beta)] for target, _, _ in tail}


@lru_cache(maxsize=None)
def _basic_subsets(n):
    return tuple(enumerate_basic_subsets(n))


@st.composite
def sparse_act_cases(draw):
    """(system, start, letters): an integral e*_alpha or basic point and a word.

    The word is built in the order its letters act. A letter that reads a nonzero value takes an integral parameter and is
    followed, or not, by its inverse, which returns the values it wrote to
    zero and leaves their live bits set. A letter that reads none takes a
    non-integral parameter, which must then never reach the vector.
    """
    kind, n = draw(st.sampled_from(ACT_SYSTEMS))
    system = get_system(kind, n)
    nonzero = st.sampled_from((-3, -2, -1, 1, 2, 3))
    if kind == "A" and draw(st.booleans()):
        subset = draw(st.sampled_from(_basic_subsets(n)))
        phi = {root: Q(draw(nonzero)) for root in subset.roots}
        start = basic_point(basic_map(subset, phi)) if phi else zero_functional(system)
    else:
        start = e_star(system, draw(st.sampled_from(system.roots)), draw(nonzero))
    values, applied = start.values, []
    for _ in range(draw(st.integers(0, 2 * len(system.roots)))):
        beta = draw(st.sampled_from(system.roots))
        if _reads(system, beta).isdisjoint(map(system.index_of, values)):
            step = [(beta, draw(st.sampled_from((Q(1, 2), Q(-3, 5), Q(7, 4)))))]
        else:
            t = Q(draw(nonzero))
            step = [(beta, t), (beta, -t)] if draw(st.booleans()) else [(beta, t)]
        applied += step
        values = _reference_act(system, step[::-1], values)
    return system, start, tuple(applied[::-1])


@given(sparse_act_cases())
def test_masked_action_equals_reference_on_sparse_starts(case):
    system, start, letters = case
    assert start.den == 1
    # The action reads a word's stored parameters, where an integral one is an int.
    vec, den, live = _act(system, GroupWord(letters)._letters, start.nums, start.den,
                          start.support)
    assert all(type(v) is int for v in vec)
    assert _covers(live, vec)
    got = Functional(system, 1, tuple(vec)).scaled(Q(1, den))
    assert got.values == _reference_act(system, letters, start.values)


@pytest.mark.parametrize("kind", KINDS)
def test_a_word_that_reads_nothing_of_f_returns_f_itself(kind):
    system = get_system(kind, 5)
    skipped = 0
    for alpha in system.roots:
        f = e_star(system, alpha, -3)
        a = system.index_of(alpha)
        blind = [beta for beta in system.roots if a not in _reads(system, beta)]
        word = GroupWord((beta, Q(2 * k + 1, 2)) for k, beta in enumerate(blind))
        assert coadjoint_apply(word, f) is f
        skipped += len(blind)
    assert skipped


@given(st.sampled_from(ACT_SYSTEMS), st.data())
def test_chart_action_and_evaluation_equal_all_fraction_reference(system_key, data):
    kind, n = system_key
    system = get_system(kind, n)
    alpha = data.draw(st.sampled_from(system.roots))
    sing = singular_set(kind, n, alpha)
    letters = _word_letters(sing, lambda root: Polynomial.var(system.index_of(root)))
    start = [0] * len(system.roots)
    start[system.index_of(alpha)] = Polynomial.const(1)
    moved, den, live = _act(system, letters, start, 1, 1 << system.index_of(alpha))
    assert den == 1 and _covers(live, moved)
    assert ({root: v for root, v in zip(system.roots, moved) if v}
            == _reference_act(system, letters, {alpha: Polynomial.const(1)}))
    c = data.draw(act_rationals.filter(bool))
    chart = orbit_chart(kind, n, alpha, c)
    for polys in (chart.constraints, chart.scaled_constraints()):
        for poly in polys.values():
            # int == Fraction holds, so only the type shows an int leaking out.
            assert all(type(coef) is Q for coef in poly.terms.values())
    # contains feeds evaluate integral values as ints.
    assignment = {s: data.draw(st.one_of(act_rationals, st.integers(-3, 3)))
                  for s in sing.singular}
    env = [0] * len(system.roots)
    for s, v in assignment.items():
        env[system.index_of(s)] = v
    for poly in chart.constraints.values():
        value = poly.evaluate(env)
        assert value == _reference_evaluate(poly, env)
        assert type(value) is Q
    point = chart_point(chart, assignment)
    assert _stored_exactly(point)
    assert contains(chart, point)


@pytest.mark.parametrize("kind", "ABD")
@pytest.mark.parametrize("n", range(2, 6))
def test_integer_evaluation_equals_fraction_reference(kind, n):
    # Level-1 and scaled constraints, values with denominators up to 2^64, and
    # a negative common denominator e, as a negative scalar gives contains.
    system = get_system(kind, n)
    rng = random.Random(f"integer-evaluation:{kind}:{n}")
    size = len(system.roots)
    x = Polynomial.var
    # Chart constraints are homogeneous; these are not.
    extra = [Polynomial.zero(), Polynomial.const(Q(-5, 3)), x(size - 1) * Q(1, 2**64),
             x(0) * x(size - 1) * x(size - 1) * Q(3, 4) - x(0) * Q(2, 9) + 7,
             x(size - 1) * x(size - 1) + x(0) * Q(-1, 6)]
    for alpha in system.roots:
        chart = orbit_chart(kind, n, alpha, rng.choice((Q(1), Q(-3, 5), Q(7, 2))))
        for poly in [*chart.constraints.values(), *chart.scaled_constraints().values(), *extra]:
            wide = [Q(rng.randrange(-2**64, 2**64), rng.randrange(1, 2**64)) for _ in range(size)]
            values = [rng.choice((0, 1, -2, v)) for v in wide]
            value = poly.evaluate(values)
            assert type(value) is Q and value == _reference_evaluate(poly, values)
            ints = [rng.randrange(-9, 10) for _ in range(size)]
            e = rng.choice((1, -1, 6, -2**64 - 1))
            scale, degree, _ = poly._integer_form
            num, den = poly._integer_ratio(ints, e)
            assert den == scale * e ** degree
            assert num == den * _reference_evaluate(poly, [Q(v, e) for v in ints])


@pytest.mark.parametrize("kind,n", REFERENCE_SYSTEMS)
def test_foreign_letter_raises_at_either_end(kind, n):
    system = get_system(kind, n)
    foreign = diff(1, n + 1)
    rng = random.Random(f"foreign:{kind}:{n}")
    inner = [(rng.choice(system.roots), Q(rng.choice((1, -2)))) for _ in range(3)]
    for f in (random_functional(system, rng, force_root=system.roots[-1]),
              zero_functional(system)):
        for letters in ([(foreign, Q(1))] + inner, inner + [(foreign, Q(1))],
                        [(foreign, Q(0))]):
            with pytest.raises(InvalidRootError):
                coadjoint_apply(GroupWord(letters), f)
        with pytest.raises(InvalidRootError):
            coadjoint_apply_one(foreign, 1, f)


# ---------------------------------------------------------------------------
# One canonical form: ints over one denominator, by canonical position
# ---------------------------------------------------------------------------

def _covers(support, vec):
    """Whether the bitmask support has the bit of every nonzero entry of vec."""
    return all(support >> k & 1 for k, v in enumerate(vec) if v)


def _is_canonical(f):
    """den >= 1, one int numerator per root, gcd(den, *nums) == 1, and den == 1 at zero.

    And a support that covers the nonzero numerators.
    """
    return (type(f.den) is int and f.den >= 1
            and type(f.nums) is tuple and len(f.nums) == len(f.system.roots)
            and all(type(v) is int for v in f.nums)
            and math.gcd(f.den, *f.nums) == 1
            and (any(f.nums) or f.den == 1)
            and _covers(f.support, f.nums))


@pytest.mark.parametrize("kind", KINDS)
def test_e_star_equals_the_general_constructor(kind):
    system = get_system(kind, 4)
    for alpha in system.roots:
        for c in (0, Q(0), -3, Q(-5, 2), Q(7, 6), "-3/5", 1):
            built = e_star(system, alpha, c)
            assert built == functional(system, {alpha: c})
            assert _is_canonical(built)
    with pytest.raises(InvalidRootError):
        e_star(system, diff(1, 6), Q(1, 2))
    with pytest.raises(InvalidRootError, match="expected a RootSystem"):
        e_star(kind.value, diff(1, 2))


def test_equal_functionals_hash_equal_however_built():
    system = get_system("B", 3)
    alpha, beta = sum_root(1, 2), short(3)
    by_strings = functional(system, {alpha: "-3/2", beta: "0", diff(1, 2): "4/2"})
    by_fractions = functional(system, {diff(1, 2): Q(2), alpha: Q(-3, 2)})
    by_scaling = functional(system, {diff(1, 2): 4, alpha: -3}).scaled(Q(1, 2))
    by_json = functional_from_json(functional_to_json(by_fractions))
    # The word is w w^-1 for w = exp(e_beta) exp(-5/3 e_{e2-e3}), so it carries
    # f back to f through a rational parameter and a short-root letter.
    word = GroupWord([(beta, Q(1)), (diff(2, 3), Q(-5, 3)), (diff(2, 3), Q(5, 3)), (beta, -1)])
    by_action = coadjoint_apply(word, by_fractions)
    assert by_action is not by_fractions
    built = [by_strings, by_fractions, by_scaling, by_json, by_action]
    assert all(g == by_fractions and hash(g) == hash(by_fractions) for g in built)
    assert all(_is_canonical(g) for g in built)
    assert by_fractions == Functional(system, 2, by_fractions.nums)
    assert by_fractions.nums[system.index_of(diff(1, 2))] == 4
    assert len(set(built)) == 1
    assert {g: k for k, g in enumerate(built)} == {by_fractions: len(built) - 1}
    other = by_fractions.scaled(2)
    assert other != by_fractions and len({other, *built}) == 2
    assert hash(zero_functional(system)) == hash(by_fractions.scaled(0))


def test_functionals_that_differ_only_in_support_are_equal_and_hash_equal():
    system = get_system("B", 3)
    f = functional(system, {diff(1, 2): Q(-3, 2), short(3): 4})
    exact = 1 << system.index_of(diff(1, 2)) | 1 << system.index_of(short(3))
    assert f.support == exact
    stale = _functional(system, f.den, f.nums, (1 << len(system.roots)) - 1)
    assert stale.support != f.support
    assert stale == f and hash(stale) == hash(f) and repr(stale) == repr(f)
    assert len({f, stale}) == 1 and str(stale) == str(f)
    # The public constructor scans the numerators for the support and takes no mask.
    built = Functional(system, f.den, f.nums)
    assert built == f and built.support == exact
    with pytest.raises(TypeError):
        Functional(system, f.den, f.nums, 0)
    with pytest.raises(TypeError):
        Functional(system, f.den, f.nums, support=0)
    # replace builds anew, so it scans; copies and pickles keep the support given.
    assert replace(stale, den=f.den).support == exact
    for other in (copy.copy(stale), copy.deepcopy(stale), pickle.loads(pickle.dumps(stale))):
        assert other == f and other.support == stale.support
    with pytest.raises(AttributeError):
        f.support = 0


_A3 = get_system("A", 3)


@pytest.mark.parametrize("fields, message", [
    # A common factor: 2 e*_{e1-e3} is (0, 0, 2) over 1, not (0, 0, 4) over 2.
    ({"den": 2, "nums": (0, 0, 4)}, "coprime"),
    # Zero is (0, 0, 0) over 1.
    ({"den": 3, "nums": (0, 0, 0)}, "coprime"),
    ({"den": -1}, "positive int"),
    ({"den": 0}, "positive int"),
    ({"den": True}, "positive int"),
    ({"den": 2.0}, "positive int"),
    ({"nums": (0, 0, True)}, r"nums\[2\] must be an int"),
    ({"nums": (0, 0, 1.5)}, r"nums\[2\] must be an int"),
    ({"nums": (0, 0, Q(1))}, r"nums\[2\] must be an int"),
    ({"nums": [0, 0, 1]}, "tuple of 3 ints"),
    ({"nums": (0, 1)}, "tuple of 3 ints"),
    ({"nums": (0, 1, 0, 0)}, "tuple of 3 ints"),
])
def test_the_constructor_rejects_a_functional_that_is_not_canonical(fields, message):
    f = functional(_A3, {diff(1, 3): 2})
    assert (f.den, f.nums) == (1, (0, 0, 2))
    given = {"den": 1, "nums": (0, 0, 1)} | fields
    with pytest.raises(ValueError, match=message):
        Functional(_A3, given["den"], given["nums"])
    with pytest.raises(ValueError, match=message):
        replace(f, **fields)


def test_the_constructor_rejects_a_system_that_is_not_a_root_system():
    with pytest.raises(InvalidRootError, match="expected a RootSystem"):
        Functional("A", 1, (0, 0, 1))
    with pytest.raises(InvalidRootError, match="expected a RootSystem"):
        replace(e_star(_A3, diff(1, 2)), system=("A", 3))


def test_the_constructor_accepts_what_functional_builds():
    # Every canonical triple, the zero functional among them, builds and
    # equals the functional that `functional` builds from the same values.
    for den, nums in [(1, (0, 0, 0)), (1, (0, 0, 2)), (2, (1, 0, -4)), (3, (0, 0, -1))]:
        built = Functional(_A3, den, nums)
        values = {root: Q(v, den) for root, v in zip(_A3.roots, nums) if v}
        assert built == functional(_A3, values) and built.support == functional(_A3, values).support


def _inverse(word):
    """The word w^-1: w's letters in reverse order with negated parameters."""
    return GroupWord((beta, -t) for beta, t in reversed(word.letters))


@pytest.mark.parametrize("kind", KINDS)
def test_every_way_of_building_a_functional_stores_a_covering_support(kind):
    # Workload-shaped words of 2N letters with cancellations: each word and
    # then its inverse, which brings f back with the bits of cancelled
    # entries still set; the same roots with non-integral parameters; type
    # B's odd halves, which double the denominator; and words that read
    # nothing of f, which return f itself.
    rng = random.Random(f"support:{kind.value}")
    stale = doubled = 0
    for n in (3, 5):
        system = get_system(kind, n)
        for alpha in system.roots:
            a = system.index_of(alpha)
            f = e_star(system, alpha, rng.choice((1, -3, Q(-3, 5), Q(7, 2))))
            assert f.support == 1 << a
            word = random_word(system, rng, default_word_length(system))
            halves = GroupWord((beta, t + Q(1, 2)) for beta, t in word.letters)
            built = [f, f.scaled(Q(-2, 3)), f.scaled(0)]
            for w in (word, halves):
                moved = coadjoint_apply(w, f)
                back = coadjoint_apply(_inverse(w), moved)
                assert back == f and hash(back) == hash(f)
                stale += back.support != f.support
                doubled += moved.den > f.den
                built += [moved, back, coadjoint_apply_one(*w.letters[0], f),
                          functional(system, moved.values), moved.scaled(Q(5, 7))]
            blind = GroupWord((beta, Q(1, 3)) for beta in system.roots
                              if a not in _reads(system, beta))
            assert coadjoint_apply(blind, f) is f
            chart = orbit_chart(kind, n, alpha, rng.choice((1, Q(-3, 5))))
            built.append(chart_point(chart, {s: Q(rng.randint(-3, 3), rng.choice((1, 2)))
                                             for s in chart.data.singular}))
            for g in built:
                assert _covers(g.support, g.nums), g
    assert stale
    assert doubled or kind is not RootSystemKind.B


def test_editing_values_leaves_the_functional_unchanged():
    system = get_system("A", 4)
    given = {diff(2, 3): Q(-1, 2), diff(1, 4): Q(1)}
    f, twin = functional(system, given), functional(system, given)
    values = f.values
    values[diff(1, 4)] = Q(0)
    values[diff(1, 2)] = Q(5)
    del values[diff(2, 3)]
    assert f == twin and hash(f) == hash(twin)
    assert f.values == given and f.values is not f.values
    assert list(f.values) == [r for r in system.roots if r in given]
    assert f.value(diff(1, 2)) == 0 and f.value(diff(2, 3)) == Q(-1, 2)
    assert orbit_dimension(f) == orbit_dimension(twin)
    with pytest.raises(AttributeError):
        f.nums = (0,) * len(system.roots)


@given(act_cases(), st.data())
def test_functionals_are_built_in_canonical_form(case, data):
    # Parameters from act_rationals; each type-B word carries an integral
    # short-root letter, whose odd second-order terms double the denominator.
    system, letters, values = case
    f = functional(system, values)
    assert _is_canonical(f)
    word = GroupWord(letters)
    moved = coadjoint_apply(word, f)
    assert _is_canonical(moved)
    if word.letters:
        assert _is_canonical(coadjoint_apply_one(*word.letters[0], f))
    alpha = data.draw(st.sampled_from(system.roots))
    chart = orbit_chart(system.kind, system.n, alpha, data.draw(act_rationals.filter(bool)))
    point = chart_point(chart, {s: data.draw(act_rationals) for s in chart.data.singular})
    assert _is_canonical(point)
    assert _is_canonical(coadjoint_apply(word, point))


def _reference_from_vector(system, vec, den):
    """The lcm-first canonicaliser the gcd-first one replaced: denominators read first."""
    denominators = [v.denominator for v in vec if type(v) is not int]
    if denominators:
        scale = math.lcm(*denominators)
        vec = [v * scale if type(v) is int else v.numerator * (scale // v.denominator)
               for v in vec]
        den *= scale
    if den != 1:
        g = math.gcd(den, *vec)
        if g != 1:
            den //= g
            vec = [v // g for v in vec]
    return Functional(system, den, tuple(vec))


def _assert_same_canonical_form(system, vec, den, support):
    got = _from_vector(system, list(vec), den, support)
    expected = _reference_from_vector(system, list(vec), den)
    assert (got.den, got.nums) == (expected.den, expected.nums)
    assert type(got.den) is int and all(type(v) is int for v in got.nums)
    # The support is stored as it came, and still covers the reduced numerators.
    assert got.support == support and _covers(support, got.nums)
    return got


def test_gcd_first_canonicaliser_equals_the_lcm_path():
    rng = random.Random("gcd-first")
    system = get_system("B", 4)
    size = len(system.roots)
    # All-int vectors, and the same vectors with some entries made
    # Fractions, integral ones among them; common factors small and large.
    for _ in range(300):
        ints = [rng.choice((0, 0, 1, -2, 6, 12, -18, 2**70)) for _ in range(size)]
        den = rng.choice((1, 2, 6, 9, 2**64))
        mixed = [v if rng.randrange(3) else Q(v, rng.choice((1, 2, 3, 4))) for v in ints]
        support = Functional(system, 1, tuple(ints)).support
        _assert_same_canonical_form(system, ints, den, support)
        _assert_same_canonical_form(system, mixed, den, support)
    _assert_same_canonical_form(system, [0] * size, 7, 0)
    _assert_same_canonical_form(system, [Q(0)] * size, 1, 1)
    # Type-B words with odd parameters: odd second-order halves double the
    # vector and den, which the gcd then takes back out where it can.
    doubled = 0
    for alpha in system.roots:
        f = e_star(system, alpha, rng.choice((-3, -1, 1, 3)))
        vec, den, live = _act(system,
                              random_word(system, rng, default_word_length(system))._letters,
                              f.nums, f.den, f.support)
        doubled += den > f.den
        _assert_same_canonical_form(system, vec, den, live)
    assert doubled


def test_functional_hands_the_canonicaliser_an_int_vector(monkeypatch):
    # Integral values as ints, so a functional of integral values takes the
    # gcd-first exit; the others as Fractions, which the canonicaliser
    # brings over the lcm of their denominators.
    system = get_system("A", 4)
    values = {diff(1, 2): Q(6, 2), diff(2, 3): "-4", diff(1, 4): Q(1, 2), diff(3, 4): 5,
              diff(2, 4): Q(-5, 3)}
    handed = []
    monkeypatch.setattr(functionals, "_from_vector",
                        lambda system, vec, den, support: handed.append((vec, den))
                        or _from_vector(system, vec, den, support))
    f = functional(system, values)
    vec, den = handed[0]
    assert den == 1
    assert {root: (type(vec[system.index_of(root)]), vec[system.index_of(root)])
            for root in values} == {
        diff(1, 2): (int, 3), diff(2, 3): (int, -4), diff(1, 4): (Q, Q(1, 2)),
        diff(3, 4): (int, 5), diff(2, 4): (Q, Q(-5, 3))}
    assert f.den == 6 and f.nums == (18, -24, 30, 0, -10, 3)
    reference = [0] * len(system.roots)
    for root, v in values.items():
        reference[system.index_of(root)] = Q(v)
    assert f == _reference_from_vector(system, reference, 1)
    assert functional(system, {diff(1, 2): Q(6, 2)}) == functional(system, {diff(1, 2): 3})
    assert handed[1:] == [([3, 0, 0, 0, 0, 0], 1)] * 2


# ---------------------------------------------------------------------------
# Skew form, dimension, radical
# ---------------------------------------------------------------------------

def test_skew_form_of_zero():
    system = get_system("A", 3)
    m = skew_form(zero_functional(system))
    assert all(v == 0 for row in m.rows for v in row)


def test_skew_form_rank_two_example():
    system = get_system("A", 3)
    m = skew_form(e_star(system, diff(1, 3)))
    a = system.index_of(diff(1, 2))
    b = system.index_of(diff(2, 3))
    assert m.rows[a][b] == 1
    assert m.rows[b][a] == -1
    assert orbit_dimension(e_star(system, diff(1, 3))) == 2


@pytest.mark.parametrize("kind", KINDS)
def test_skew_form_antisymmetry_random(kind):
    system = get_system(kind, 3)
    rng = random.Random(f"skew:{kind.value}")
    for _ in range(5):
        f = random_functional(system, rng)
        m = skew_form(f)
        size = len(system.roots)
        for a in range(size):
            for b in range(size):
                assert m.rows[a][b] == -m.rows[b][a]


@pytest.mark.parametrize("kind, n", [("A", 5), ("B", 4), ("D", 4)])
def test_skew_form_equals_matrix_commutators(kind, n):
    # Every entry, zeros included, against f([e_a, e_b]) from the matrices
    # themselves rather than from the bracket table.
    system = get_system(kind, n)
    rng = random.Random(f"skew-bracket:{kind}:{n}")
    brackets = [[bracket(kind, n, a, b) for b in system.roots] for a in system.roots]
    for _ in range(4):
        f = random_functional(system, rng)
        rows = skew_form(f).rows
        for row, hits in zip(rows, brackets, strict=True):
            assert len(row) == len(system.roots)
            for entry, hit in zip(row, hits, strict=True):
                assert type(entry) is Q
                assert entry == (0 if hit is None else hit[0] * f.value(hit[1]))


def test_orbit_dimension_examples():
    assert orbit_dimension(zero_functional(get_system("A", 3))) == 0
    assert orbit_dimension(e_star(get_system("A", 4), diff(1, 4))) == 4
    assert orbit_dimension(e_star(get_system("D", 3), sum_root(1, 3))) == 2


def test_orbit_dimension_matches_singular_count_spot():
    for kind in KINDS:
        for n in (2, 3, 4, 5, 6):
            system = get_system(kind, n)
            for alpha in (system.roots[0], system.roots[-1]):
                expected = len(singular_set(kind, n, alpha).singular)
                for c in (Q(1), Q(2), Q(-3, 5)):
                    assert orbit_dimension(e_star(system, alpha, c)) == expected


def test_orbit_dimension_invariant_along_orbits():
    for kind in KINDS:
        for n in (2, 3, 4):
            system = get_system(kind, n)
            for t in range(50):
                rng = random.Random(f"orbinv:{kind.value}:{n}:{t}")
                f = random_functional(system, rng)
                w = random_word(system, rng, 2 * len(system.roots))
                assert orbit_dimension(coadjoint_apply(w, f)) == orbit_dimension(f)


@given(rationals)
def test_orbit_dimension_scaling_invariance(c):
    system = get_system("B", 3)
    f = functional(system, {sum_root(1, 3): 1, diff(1, 2): Q(1, 2), short(2): -1})
    assert orbit_dimension(f.scaled(c)) == orbit_dimension(f)


def test_radical_of_zero_is_everything():
    system = get_system("D", 3)
    assert len(radical_basis(zero_functional(system))) == len(system.roots)


def test_radical_of_elementary_functional():
    for kind in KINDS:
        system = get_system(kind, 4)
        for alpha in (system.roots[0], system.roots[-1]):
            f = e_star(system, alpha, Q(3, 2))
            data = singular_set(kind, 4, alpha)
            basis = radical_basis(f)
            assert len(basis) == len(data.regular)
            m = skew_form(f).rows
            for beta in data.regular:
                k = system.index_of(beta)
                assert all(row[k] == 0 for row in m), "coordinate vector is in the kernel"


def test_radical_kernel_dimension_example():
    system = get_system("A", 3)
    assert len(radical_basis(e_star(system, diff(1, 3)))) == 1


# ---------------------------------------------------------------------------
# Flag order: the skew form's rows and columns by height, highest first
# ---------------------------------------------------------------------------

def _flag_pivots(f):
    """The canonical positions of the pivot columns of f's forward form in flag order."""
    order = flag_order(f.system)
    return {order[k] for k in functionals._echelon_form(f.system, f.nums)}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(2, 10))
def test_flag_order_is_by_closed_form_height_and_an_ideal_flag(kind, n):
    system = get_system(kind, n)
    by_index = structure_table(kind, n).by_index
    assert functionals._heights(by_index) == [closed_form_height(system, r) for r in system.roots]
    column, gather, rows = functionals._flag_plan(kind, n)
    order = flag_order(system)
    assert [column[p] for p in order] == list(range(len(order)))
    assert gather(tuple(order)) == tuple(range(len(order)))
    # [e_a, e_p] = c e_g puts g before p, so every prefix spans an ideal.
    for a, row in enumerate(by_index):
        for p, (c, g) in row.items():
            assert column[g] < column[p]
            assert (column[p], c, g) in rows[column[a]]
    assert [len(row) for row in rows] == [len(by_index[p]) for p in order]


PAPER_SYSTEMS = ([("A", n) for n in range(2, 9)] + [("B", n) for n in range(2, 6)]
                 + [("D", n) for n in range(3, 7)])


@pytest.mark.parametrize("kind, n", PAPER_SYSTEMS)
def test_flag_pivots_of_an_elementary_functional_are_its_singular_set(kind, n):
    # The paper's charts take S(alpha) as their free coordinates: they are the
    # jump positions of c e*_alpha, and its radical is spanned by the unit
    # vectors at R(alpha).
    system = get_system(kind, n)
    size = len(system.roots)
    for k, alpha in enumerate(system.roots):
        f = e_star(system, alpha, Q((-1) ** k * (k % 3 + 1), k % 2 + 1))
        data = singular_set(kind, n, alpha)
        assert _flag_pivots(f) == {system.index_of(beta) for beta in data.singular}
        basis = radical_basis(f)
        units = {tuple(Q(int(j == system.index_of(beta))) for j in range(size))
                 for beta in data.regular}
        assert len(basis) == len(units) and set(basis) == units


@pytest.mark.parametrize("kind, n", [("A", 5), ("A", 7), ("B", 4), ("B", 5), ("D", 5)])
def test_flag_pivots_are_the_same_along_an_orbit(kind, n):
    # The pivots in flag order are the orbit's jump set: a word moves f
    # within its orbit and leaves them as they are.
    system = get_system(kind, n)
    rng = random.Random(f"jump-set:{kind}{n}")
    for _ in range(10):
        f = random_functional(system, rng)
        jumps = _flag_pivots(f)
        assert len(jumps) == orbit_dimension(f)
        for _ in range(3):
            word = GroupWord((system.roots[rng.randrange(len(system.roots))],
                              Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3))))
                             for _ in range(8))
            g = coadjoint_apply(word, f)
            assert _flag_pivots(g) == jumps


# Value draws for the integer skew rows: integers, denominators from distinct
# primes (so the scale is their product) and denominators that share factors.
VALUE_STYLES = {
    "integer": lambda rng: Q(rng.choice((-3, -2, -1, 1, 2, 5))),
    "coprime": lambda rng: Q(rng.choice((-4, -1, 1, 3, 8)), rng.choice((1, 2, 3, 5, 7, 11, 13))),
    "shared": lambda rng: Q(rng.choice((-5, -1, 1, 2, 3, 7)), rng.choice((4, 6, 12))),
}


def _reference_skew_rows(f):
    """The dense Fraction skew form from the root-keyed table, as before the integer rows."""
    system = f.system
    table = structure_table(system.kind, system.n)
    index_of = system.index_of
    size = len(system.roots)
    rows = [[Q(0)] * size for _ in range(size)]
    for (alpha, beta), (c, gamma) in table.table.items():
        v = f.values.get(gamma)
        if v:
            rows[index_of(alpha)][index_of(beta)] = c * v
    return tuple(tuple(row) for row in rows)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(2, 8))
def test_integer_skew_rows_equal_the_dense_fraction_path(kind, n):
    # orbit_dimension and radical_basis read the integer skew rows; the dense
    # Fraction rows of the root-keyed table, through rank and kernel_basis,
    # are the reference, and skew_form must read the integer rows back as them.
    system = get_system(kind, n)
    cases = [zero_functional(system)]
    for style, draw in VALUE_STYLES.items():
        rng = random.Random(f"integer-rows:{kind.value}{n}:{style}")
        for _ in range(2):
            cases.append(functional(system, {r: draw(rng) for r in system.roots
                                             if rng.randrange(2)}))
    # The integer rows are the reference rows in flag order, times f's denominator.
    for f in cases:
        rows = _reference_skew_rows(f)
        assert skew_form(f).rows == rows
        assert all(type(x) is Q for row in skew_form(f).rows for x in row)
        flagged = flag_rows(rows, system)
        assert [{l: Q(x, f.den) for l, x in row.items()} for row in _skew_rows(system, f.nums)] \
            == [{l: x for l, x in enumerate(row) if x} for row in flagged]
        basis = radical_basis(f)
        assert basis == canonical(kernel_basis(flagged), system)
        assert all(type(x) is Q for v in basis for x in v)
        assert orbit_dimension(f) == rank(rows) == rank(flagged)
        assert_spans_the_canonical_kernel(f, basis)


def test_radical_dimension_count_random():
    for kind in KINDS:
        system = get_system(kind, 4)
        rng = random.Random(f"radcount:{kind.value}")
        for _ in range(5):
            f = random_functional(system, rng)
            assert len(radical_basis(f)) == len(system.roots) - orbit_dimension(f)


# Functionals shaped like the benchmark's orbit-rank checks: (style, kind, n).
ORBIT_RANK_CASES = (
    [("random", kind, n) for kind, n in [("A", 8), ("A", 9), ("B", 5), ("B", 6), ("D", 6), ("D", 7)]]
    + [("orbit", kind, n) for kind, n in [("A", 9), ("A", 10), ("A", 11), ("B", 6), ("D", 7)]]
    + [("wide", "B", 6)]
)


@pytest.mark.parametrize("style, kind, n", ORBIT_RANK_CASES)
def test_orbit_dimension_and_radical_equal_the_fraction_elimination(style, kind, n):
    # Half-density random values, highest-root orbit points and values near
    # 2^200 / 2^80: the dimension, the radical count and the Fraction rank
    # agree, and the radical is the reduced kernel of the skew rows.
    system = get_system(kind, n)
    name = f"orbit-rank-shaped:{style}:{kind}{n}"
    rng = random.Random(name)
    if style == "orbit":
        alpha = max(system.roots, key=lambda a: len(singular_set(kind, n, a).singular))
        f, _ = random_orbit_point(kind, n, alpha, rng.choice([-3, -2, -1, 1, 2, 3]), seed=name)
    elif style == "wide":
        f = functional(system, {r: Q(rng.randrange(-2**200, 2**200), rng.randrange(1, 2**80))
                                for r in system.roots if rng.randrange(2)})
    else:
        f = random_functional(system, rng)
    rows = skew_form(f).rows
    basis = radical_basis(f)
    assert orbit_dimension(f) == len(system.roots) - len(basis) == len(_eliminate(rows)[1])
    assert basis == canonical(_exact_kernel(flag_rows(rows, system)), system)
    assert_spans_the_canonical_kernel(f, basis)
    if style == "orbit":
        assert orbit_dimension(f) == len(singular_set(kind, n, alpha).singular)


def _uncached_radical(f):
    """The radical from a fresh interleaved reduction of f's skew rows, which no cache holds,
    moved back from flag columns to canonical positions."""
    return canonical(_kernel(_interleaved_reduced(_skew_rows(f.system, f.nums)),
                             len(f.system.roots)), f.system)


def _slot_traffic():
    """(hits, misses) of the echelon-form cache since the fixture emptied it."""
    info = functionals._echelon_form.cache_info()
    assert info.maxsize == 1 and info.currsize <= 1
    return info.hits, info.misses


@pytest.fixture
def count_reductions(monkeypatch):
    """An emptied echelon-form cache and a list that records each call of functionals._forward."""
    calls = []

    def counted(int_rows):
        calls.append(len(int_rows))
        return _forward(int_rows)

    functionals._echelon_form.cache_clear()
    monkeypatch.setattr(functionals, "_forward", counted)
    return calls


def test_a_dimension_never_reduces_above_and_a_radical_reuses_the_forward_form(
        count_reductions, monkeypatch):
    above = []

    def counted(echelon):
        above.append(len(echelon))
        return _reduce_above(echelon)

    monkeypatch.setattr(functionals, "_reduce_above", counted)
    system = get_system("D", 5)
    f = random_functional(system, random.Random("forward-only:D5"))
    dim = orbit_dimension(f)
    assert (len(count_reductions), len(above)) == (1, 0)
    cached = functionals._echelon_form(system, f.nums)
    kept = copy.deepcopy(cached)
    basis = radical_basis(f)
    assert (len(count_reductions), len(above)) == (1, 1)
    assert above == [dim]
    # The radical reduced the cached forward form without changing it.
    assert functionals._echelon_form(system, f.nums) is cached and cached == kept
    assert basis == _uncached_radical(f) and dim == len(system.roots) - len(basis)
    # A second dimension of the same functional eliminates nothing.
    assert orbit_dimension(f) == dim
    assert (len(count_reductions), len(above)) == (1, 1)


def test_dimension_and_radical_of_one_functional_reduce_it_once(count_reductions):
    system = get_system("B", 4)
    rng = random.Random("reduce-once:B4")
    f = random_functional(system, rng)
    dim = orbit_dimension(f)
    basis = radical_basis(f)
    assert len(count_reductions) == 1
    assert basis == _uncached_radical(f) and dim == len(system.roots) - len(basis)
    # An equal functional built afresh is keyed by its values, not its identity.
    twin = functional(system, {root: str(v) for root, v in f.values.items()})
    assert twin is not f and twin.values is not f.values
    assert orbit_dimension(twin) == dim and radical_basis(twin) == basis
    assert len(count_reductions) == 1
    assert _slot_traffic() == (3, 1)
    other = random_functional(system, rng)
    assert other != f
    assert radical_basis(other) == _uncached_radical(other)
    assert len(count_reductions) == 2
    assert _slot_traffic() == (3, 2)


def test_equal_values_in_another_system_are_reduced_again(count_reductions):
    # A4 and D3 both have six roots, and e1-e3, e2-e3 lie in both.
    a4, d3 = get_system("A", 4), get_system("D", 3)
    assert len(a4.roots) == len(d3.roots)
    values = {diff(1, 3): Q(2), diff(2, 3): Q(-1, 3)}
    f, g = functional(a4, values), functional(d3, values)
    assert f.values == g.values
    assert radical_basis(f) == _uncached_radical(f)
    assert radical_basis(g) == _uncached_radical(g)
    assert len(count_reductions) == 2
    assert orbit_dimension(g) == len(d3.roots) - len(_uncached_radical(g))
    assert len(count_reductions) == 2
    assert _slot_traffic() == (1, 2)
    # The same values at the same canonical positions give equal slot keys.
    h = functional(a4, {a4.roots[d3.index_of(root)]: v for root, v in g.values.items()})
    assert (h.den, h.nums) == (g.den, g.nums)
    assert radical_basis(h) == _uncached_radical(h)
    assert len(count_reductions) == 3
    assert _slot_traffic() == (1, 3)


def test_functionals_with_equal_integer_rows_share_one_reduction(count_reductions):
    # e*_alpha / 2 and e*_alpha have the same scaled values, so the same rows.
    system = get_system("B", 4)
    alpha = system.roots[-1]
    half, whole = e_star(system, alpha, Q(1, 2)), e_star(system, alpha)
    assert half.nums == whole.nums and half != whole
    dim = orbit_dimension(half)
    assert radical_basis(whole) == _uncached_radical(whole)
    assert dim == len(system.roots) - len(_uncached_radical(half))
    assert len(count_reductions) == 1
    assert _slot_traffic() == (1, 1)


@pytest.mark.parametrize("kind, n", [("A", 6), ("B", 4), ("D", 5)])
def test_interleaved_dimensions_and_radicals_equal_fresh_reductions(count_reductions, kind, n):
    system = get_system(kind, n)
    rng = random.Random(f"interleaved:{kind}{n}")
    f, g = random_functional(system, rng), random_functional(system, rng)
    assert f != g
    size = len(system.roots)
    dim_f = orbit_dimension(f)
    rad_g = radical_basis(g)
    rad_f = radical_basis(f)
    dim_g = orbit_dimension(g)
    assert rad_f == _uncached_radical(f) and dim_f == size - len(rad_f)
    assert rad_g == _uncached_radical(g) and dim_g == size - len(rad_g)
    # Each call follows a call on the other functional, so each one misses.
    assert len(count_reductions) == 4
    assert _slot_traffic() == (0, 4)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_functional_json_round_trip():
    system = get_system("B", 3)
    f = functional(system, {diff(1, 3): Q(-3, 7), short(2): Q(4), sum_root(1, 2): Q(1, 2)})
    payload = functional_to_json(f)
    assert payload["kind"] == "B" and payload["n"] == 3
    assert payload["values"]["e1-e3"] == "-3/7"
    assert functional_from_json(payload) == f


@pytest.mark.parametrize("other", [" e1-e3", "e01-e3", "e1-e003", "e1-e3\n"])
def test_functional_json_rejects_a_root_named_twice(other):
    payload = {"kind": "A", "n": 3, "values": {"e1-e3": "1", "e1-e2": "2", other: "-3"}}
    with pytest.raises(ValueError) as info:
        functional_from_json(payload)
    assert str(info.value) == f"keys 'e1-e3' and {other!r} name the same root e1-e3"


def test_functional_json_rejects_bad_input():
    with pytest.raises(ValueError):
        functional_from_json({"kind": "A", "values": {}})
    with pytest.raises(Exception):
        functional_from_json({"kind": "A", "n": 3, "values": {"e1": "1"}})


# JSON numbers, booleans and containers are not exact rational strings.
NON_STRING_RATIONALS = [0.1, True, [1], 2, None]
# Strings Fraction would read that are not "p" or "p/q": decimal, exponent,
# signed-plus, padded, underscored, non-ASCII digits, negative denominators.
NON_GRAMMAR_STRINGS = ["1e3000000", "1.5", "-0.5", "1E3", "+2", " 2", "2 ", "2\n", "1_000",
                       "\u0663", "2/-3", "--2", "", "inf", "nan"]


@pytest.mark.parametrize("value", NON_STRING_RATIONALS + ["1/0", "abc"] + NON_GRAMMAR_STRINGS)
def test_functional_json_rejects_non_string_rational(value):
    payload = {"kind": "A", "n": 3, "values": {"e1-e3": "1", "e1-e2": value}}
    with pytest.raises(ValueError, match="e1-e2"):
        functional_from_json(payload)


@pytest.mark.parametrize("value", NON_STRING_RATIONALS + NON_GRAMMAR_STRINGS)
def test_word_json_rejects_non_string_rational(value):
    with pytest.raises(ValueError, match="e2-e3"):
        word_from_json([["e1-e2", "1"], ["e2-e3", value]])


def test_word_json_round_trip():
    w = GroupWord([(diff(1, 2), Q(-3, 5)), (short(2), Q(4))])
    assert word_to_json(w) == [["e1-e2", "-3/5"], ["e2", "4"]]
    assert word_from_json(word_to_json(w)) == w


@pytest.mark.parametrize("value", [{"e1-e2": "1"}, {"ab": "1"}, "e1-e2", 5, None])
def test_word_json_rejects_anything_but_an_array(value):
    # An object used to be read key by key: {"ab": "1"} as root "a" with value "b".
    message = f"a group word must be a JSON array of [root, rational] pairs, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        word_from_json(value)


@pytest.mark.parametrize("entry", [["e1-e2"], ["e1-e2", "1", "2"], [], "e1", [1, "1"],
                                   {"e1-e2": "1"}, None])
def test_word_json_rejects_an_entry_that_is_not_a_pair(entry):
    message = f"entry 1 of a group word must be a [root, rational] pair, got {entry!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        word_from_json([["e1-e2", "1"], entry])
    with pytest.raises(ValueError, match=re.escape(message.replace("entry 1", "entry 0"))):
        word_from_json([entry])


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="int string length unbounded")
def test_over_long_rational_string_is_a_value_error():
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ValueError, match="too long"):
        functional(get_system("A", 3), {diff(1, 3): digits})
    with pytest.raises(ValueError, match="e1-e3"):
        functional_from_json({"kind": "A", "n": 3, "values": {"e1-e3": digits}})


@pytest.mark.parametrize("value", [Q(-3, 5), 4, "-3/5", "10/4", "0", "007"])
def test_exact_rationals_are_accepted(value):
    f = functional(get_system("A", 3), {diff(1, 3): value})
    assert f.value(diff(1, 3)) == (value if not isinstance(value, str) else Q(value))
    assert _stored_exactly(f)


def _library_calls(value):
    """Every public entry that turns a caller's number into a Fraction, fed ``value``."""
    system = get_system("A", 3)
    alpha = diff(1, 3)
    return [
        lambda: functional(system, {alpha: value}),
        lambda: e_star(system, alpha, value),
        lambda: e_star(system, alpha).scaled(value),
        lambda: GroupWord(((alpha, value),)),
        lambda: coadjoint_apply_one(diff(1, 2), value, e_star(system, alpha)),
        lambda: orbit_chart("A", 3, alpha, value),
        lambda: chart_point(orbit_chart("A", 3, alpha),
                            {s: value for s in singular_set("A", 3, alpha).singular}),
        lambda: basic_map(basic_subset(3, [alpha]), {alpha: value}),
        lambda: random_orbit_point("A", 3, alpha, value),
        lambda: Polynomial.const(value),
        lambda: Polynomial.var(0) * value,
        lambda: Polynomial.var(0) + value,
        lambda: value + Polynomial.var(0),
        lambda: Polynomial.var(0) - value,
    ]


@pytest.mark.parametrize("value", [0.1, 2.0, -0.0, True, False, None, [1]])
def test_library_rejects_floats_and_bools(value):
    for call in _library_calls(value):
        with pytest.raises(ValueError, match=re.escape(f"got {value!r}")):
            call()


def test_a_word_built_directly_reads_a_rational_string():
    # GroupWord turns its parameters into Fractions; built directly, a string
    # parameter used to raise TypeError inside the action. Floats and bools
    # raise (test_library_rejects_floats_and_bools).
    word = GroupWord(((diff(1, 2), "1/2"),))
    assert word == GroupWord([(diff(1, 2), Q(1, 2))]) and type(word.letters[0][1]) is Q
    f = e_star(get_system("A", 3), diff(1, 3))
    assert coadjoint_apply(word, f).values == _reference_act(f.system, word.letters, f.values)
    assert coadjoint_apply(word, f).values[diff(2, 3)] == Q(-1, 2)


def test_a_word_of_int_parameters_holds_fractions():
    word = GroupWord(((diff(1, 2), 3), (diff(2, 3), -1)))
    assert [type(t) for _, t in word.letters] == [Q, Q]
    assert word == GroupWord([(diff(1, 2), Q(3)), (diff(2, 3), Q(-1))])
    assert concat_words(word, GroupWord()).letters == word.letters
    # The letters view yields Fractions whatever form each parameter was stored in.
    mixed = GroupWord([(diff(1, 2), 3), (diff(2, 3), Q(1, 2)), (diff(1, 3), "-6/3"),
                        (diff(1, 2), 0), (diff(2, 3), "5/7")])
    assert mixed.letters == ((diff(1, 2), Q(3)), (diff(2, 3), Q(1, 2)), (diff(1, 3), Q(-2)),
                             (diff(1, 2), Q(0)), (diff(2, 3), Q(5, 7)))
    assert [type(t) for _, t in mixed.letters] == [Q] * 5 and len(mixed) == 5


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="int string length unbounded")
def test_library_describes_an_unprintable_value_briefly():
    # repr of an int past the int-digit limit raises ValueError itself
    for call in _library_calls([10**5000]):
        with pytest.raises(ValueError, match=r"got a list too large to print$"):
            call()


@pytest.mark.parametrize("value", ["1e3000000", "1.5", "+2", "2/-3"])
def test_library_holds_strings_to_the_grammar(value):
    for call in _library_calls(value):
        with pytest.raises(ValueError, match=re.escape(f"Invalid literal for Fraction: {value!r}")):
            call()


# ---------------------------------------------------------------------------
# The stored parameter form of group words
# ---------------------------------------------------------------------------

def test_integral_parameters_give_one_word_however_written():
    beta, gamma = diff(1, 2), diff(2, 3)
    words = [GroupWord([(beta, 3), (gamma, -2)]),
             GroupWord([(beta, Q(6, 2)), (gamma, Q(-2))]),
             GroupWord([(beta, "3"), (gamma, "-6/3")]),
             GroupWord(((beta, "3"), (gamma, -2)))]
    assert all(w == words[0] and hash(w) == hash(words[0]) for w in words)
    assert [type(t) for w in words for _, t in w._letters] == [int] * 8
    halves = [GroupWord([(beta, t)]) for t in (Q(-1, 2), "-3/6", Q(2, -4))]
    assert all(w == halves[0] and hash(w) == hash(halves[0]) for w in halves)
    assert words[0] != GroupWord([(beta, 3), (gamma, 2)])


def test_a_word_stays_equal_through_json_concatenation_copy_and_pickle():
    word = GroupWord([(diff(1, 2), 3), (short(2), Q(-1, 2)), (sum_root(1, 2), "0"),
                      (diff(2, 3), "10/4")])
    assert word_to_json(word) == [["e1-e2", "3"], ["e2", "-1/2"], ["e1+e2", "0"], ["e2-e3", "5/2"]]
    assert word_from_json(word_to_json(word)) == word
    assert concat_words(word) == concat_words(GroupWord(), word, GroupWord()) == word
    assert concat_words(word, word).letters == word.letters * 2
    for other in (copy.copy(word), copy.deepcopy(word), pickle.loads(pickle.dumps(word))):
        assert other == word and hash(other) == hash(word) and other.letters == word.letters
    with pytest.raises(AttributeError):
        word.letters = ()
    with pytest.raises(AttributeError):
        word._letters = ()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("t", [3, Q(6, 2), "-1/2", 0])
def test_one_letter_equals_the_one_letter_word(kind, t):
    system = get_system(kind, 4)
    rng = random.Random(f"one-letter:{kind}")
    starts = ([random_functional(system, rng) for _ in range(3)]
              + [e_star(system, alpha, -3) for alpha in system.roots])
    for f in starts:
        for beta in system.roots:
            one = coadjoint_apply_one(beta, t, f)
            assert one == coadjoint_apply(GroupWord([(beta, t)]), f)
            if not t:
                assert one is f


MIXED_PARAMETERS = (1, -1, 2, -3, Q(4, 2), "-6/3", 0, Q(1, 2), Q(-5, 3), "7/4")


@pytest.mark.parametrize("kind,n", [(kind, n) for kind in "ABD" for n in range(2, 8)])
def test_action_on_stored_parameters_equals_reference_on_letters(kind, n):
    system = get_system(kind, n)
    rng = random.Random(f"stored:{kind}:{n}")
    odd = functional(system, {root: 2 * (k % 3) + 1 for k, root in enumerate(system.roots)})
    doubled = 0
    for trial in range(9):
        if trial % 3 == 0:
            f = e_star(system, rng.choice(system.roots), rng.choice((-3, -1, 1, 3)))
        else:
            f = random_functional(system, rng) if trial % 3 == 1 else odd
        # Every third word has only odd integral parameters: on the odd values,
        # a type-B short letter meets odd second-order terms and doubles the vector.
        choices = (1, -1, 3, -3) if trial % 3 == 2 else MIXED_PARAMETERS
        word = GroupWord((rng.choice(system.roots), rng.choice(choices))
                         for _ in range(2 * len(system.roots)))
        got = coadjoint_apply(word, f)
        assert got.values == _reference_act(system, word.letters, f.values)
        assert _stored_exactly(got)
        doubled += trial % 3 == 2 and got.den % 2 == 0
    assert doubled or kind != "B"


def _fraction_random_word(system, rng, length):
    """random_word as it drew its parameters, each one a Fraction."""
    return GroupWord([(system.roots[rng.randrange(len(system.roots))],
                       Q(rng.choice((-3, -2, -1, 1, 2, 3)))) for _ in range(length)])


@pytest.mark.parametrize("kind,n", [("A", 5), ("B", 4), ("D", 4)])
def test_random_word_draws_the_stream_it_drew_with_fraction_parameters(kind, n):
    system = get_system(kind, n)
    rng, reference = random.Random(f"stream:{kind}"), random.Random(f"stream:{kind}")
    length = default_word_length(system)
    for _ in range(3):
        word = random_word(system, rng, length)
        assert word == _fraction_random_word(system, reference, length)
        assert [type(t) for _, t in word._letters] == [int] * length
    assert rng.getstate() == reference.getstate()
