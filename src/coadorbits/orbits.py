"""Elementary coadjoint orbits: singular data, defining-equation charts, words.

For a positive root alpha and a nonzero scalar c, the orbit through
c * e*_alpha is cut out, inside the dual space, by one polynomial constraint
per regular root, in the coordinates indexed by the singular roots. The
singular roots S(alpha) are the roots beta with [e_beta, e_gamma] = c e_alpha
for some root gamma. They and their pairs (left, partner, sign) are read in
one pass over the position-keyed rows of the cached bracket table
(roots.structure_table) into one immutable SingularData per root.

Charts are derived, not written out per family: the constructive group
word of construct_group_word, with its parameters taken as variables, is
applied to e*_alpha by the loop that computes the coadjoint action. Each
singular coordinate comes back as its own variable and each regular one as
its constraint, so the sign of the quadratic tail in the sum-root charts
(CONVENTIONS.md) follows from the derivation. The level-1 equations depend
only on (kind, n, alpha), so one cache entry per root holds them, derived
once, in their membership form: the read-only constraints that every chart
of the root shares, the positions whose constraint is zero, where f must
vanish, with their bitmask, and (position, polynomial) for each other
constraint. A chart is (system, alpha, c), checked when built, and reads
that entry once then. f lies in the level-c chart iff (1/c) f satisfies the
level-1 equations. That is the one membership test, _satisfies: contains
asks it of a chart, construct_group_word of the level-1 chart, as its word
carries e*_alpha to f exactly when the chart contains f, and the oracle of
the paper's printed sum-root equations. One AND of f's support with the
bitmask says whether the zero positions need reading at all. The rest
runs over the integers: (1/c) f is H / e, with H f's numerators times c's
denominator and e an int, and each nonzero constraint is compared by
cross-multiplication with its cached integer form. A chart variable is its
singular root's position; only the renderers decode positions back to
roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import compress, groupby
from types import MappingProxyType
from typing import Callable, Mapping

from .functionals import Functional, GroupWord, Rational, _act, _frac, _from_vector, functional
from .polynomials import Polynomial
from .roots import (
    DIFF,
    SHORT,
    PositiveRoot,
    RootSystem,
    RootSystemKind,
    _not_a_system,
    get_system,
    structure_table,
)


class ZeroScalarError(ValueError):
    """Orbit charts require a nonzero scalar."""


class NotInOrbitError(ValueError):
    """The functional does not satisfy the chart equations."""


class ChartVariableError(ValueError):
    """A chart-point assignment does not cover exactly the singular roots."""


class PairSignError(RuntimeError):
    """A singular pair does not bracket to +/- e_alpha.

    An internal consistency check: every such bracket has structure constant
    1 or -1 (CONVENTIONS.md).
    """


# ---------------------------------------------------------------------------
# Singular and regular roots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularData:
    """S(alpha), R(alpha) and the pairing of S(alpha) into pairs summing to alpha.

    A root beta is singular when [e_beta, e_gamma] = c e_alpha for some root
    gamma, its unique partner alpha - beta. ``pairs`` holds each pair once,
    as (left, partner, sign) in canonical order of left: left is the member
    whose first index is alpha's first index, and sign is the structure
    constant (+/-1) of [e_left, e_partner]. Every field is a tuple, so the
    cached record is hashable and cannot be edited.
    """

    alpha: PositiveRoot
    singular: tuple[PositiveRoot, ...]
    regular: tuple[PositiveRoot, ...]
    pairs: tuple[tuple[PositiveRoot, PositiveRoot, int], ...]


@lru_cache(maxsize=None)
def _singular_data(kind: RootSystemKind, n: int) -> dict[PositiveRoot, SingularData]:
    """Every root's SingularData, read in one pass over the position-keyed table.

    An entry by_index[b][g] = (c, a) is a pair of S(a) when b and a share
    their first index. Rows are read in order of b, so pairs come in
    canonical order of left; positions become roots only at the end.
    """
    table = structure_table(kind, n)
    roots = table.system.roots
    first = [root.i for root in roots]
    pairs: list[list[tuple[int, int, int]]] = [[] for _ in roots]
    for b, row in enumerate(table.by_index):
        for g, (c, a) in row.items():
            if first[b] == first[a]:
                if c not in (1, -1):
                    raise PairSignError(
                        f"pair ({roots[b]}, {roots[g]}) does not bracket to +/- e_{roots[a]}")
                pairs[a].append((b, g, c))
    out = {}
    size = len(roots)
    for alpha, found in zip(roots, pairs):
        singular, regular = bytearray(size), bytearray(b"\x01") * size
        for b, g, _ in found:
            singular[b] = singular[g] = 1
            regular[b] = regular[g] = 0
        out[alpha] = SingularData(
            alpha,
            tuple(compress(roots, singular)),
            tuple(compress(roots, regular)),
            tuple((roots[b], roots[g], c) for b, g, c in found),
        )
    return out


def singular_set(kind: RootSystemKind | str, n: int, alpha: PositiveRoot) -> SingularData:
    """Singular and regular roots of alpha and its pairs: the cached, immutable record."""
    system = get_system(kind, n)
    system.check_member(alpha)
    return _singular_data(system.kind, n)[alpha]


def singular_size_formula(kind: RootSystemKind | str, n: int, alpha: PositiveRoot) -> int:
    """Closed form for |S(alpha)|: 2(j-i-1), 2(n-i), 2(2n-(i+j)) or 2(2n-i-j-1)."""
    system = get_system(kind, n)
    system.check_member(alpha)
    if alpha.tag == DIFF:
        return 2 * (alpha.j - alpha.i - 1)
    if alpha.tag == SHORT:
        return 2 * (n - alpha.i)
    if system.kind is RootSystemKind.B:
        return 2 * (2 * n - (alpha.i + alpha.j))
    return 2 * (2 * n - alpha.i - alpha.j - 1)


# ---------------------------------------------------------------------------
# Orbit charts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitChart:
    """Defining equations of the orbit through c * e*_alpha.

    A chart is (system, alpha, c), checked when built: system must be a
    RootSystem, alpha a root of it and c a nonzero rational, held as a
    Fraction. It then reads alpha's SingularData and the membership form
    of its level-1 chart from their caches, once. ``constraints`` are the
    level-1 polynomials (one per regular root, in the positions of the
    singular roots), the read-only mapping that every chart of alpha
    shares; f lies in the chart iff (1/c) f satisfies them.
    """

    system: RootSystem
    alpha: PositiveRoot
    c: Fraction
    data: SingularData = field(init=False, compare=False, repr=False)
    _form: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        system, alpha = self.system, self.alpha
        try:
            system.check_member(alpha)
        except AttributeError:
            raise _not_a_system(system) from None
        c = _frac(self.c)
        if c == 0:
            raise ZeroScalarError("orbit charts need a nonzero scalar")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "data", _singular_data(system.kind, system.n)[alpha])
        object.__setattr__(self, "_form", _level_one(system.kind, system.n, alpha))

    @property
    def constraints(self) -> Mapping[PositiveRoot, Polynomial]:
        return self._form[0]

    def scaled_constraints(self) -> dict[PositiveRoot, Polynomial]:
        """Constraints written for f itself: each coefficient picks up c^(1-deg)."""
        return {beta: Polynomial({mono: coef * self.c ** (1 - len(mono))
                                  for mono, coef in poly.terms.items()})
                for beta, poly in self.constraints.items()}


def _word_letters(data: SingularData, value: Callable) -> list:
    """The letters of construct_group_word's product, with value(root) in place of f(root)."""
    return ([(p, s * value(g)) for g, p, s in data.pairs]
            + [(g, -s * value(p)) for g, p, s in data.pairs])


# The constraint of every regular root that the derivation leaves at 0.
_ZERO = Polynomial.zero()


def _membership_form(system: RootSystem, constraints: Mapping[PositiveRoot, Polynomial]) -> tuple:
    """The membership form (constraints, zero_mask, zeros, nonzero) of the mapping given.

    zeros holds the positions whose constraint is zero and zero_mask their
    bits, nonzero a (position, polynomial) pair for every other constraint.
    """
    by_position = [(system.index_of(beta), poly) for beta, poly in constraints.items()]
    zeros = tuple(k for k, poly in by_position if not poly)
    return (constraints, sum(1 << k for k in zeros), zeros,
            tuple((k, poly) for k, poly in by_position if poly))


@lru_cache(maxsize=None)
def _level_one(kind: RootSystemKind, n: int, alpha: PositiveRoot) -> tuple:
    """The membership form of alpha's level-1 chart, derived once per (kind, n, alpha).

    The constructive word, with each singular value as a variable, applied
    to e*_alpha: the regular coordinates of the result are the constraints,
    in a read-only mapping that every chart of alpha can share.
    """
    system = get_system(kind, n)
    data = _singular_data(kind, n)[alpha]
    letters = _word_letters(data, lambda root: Polynomial.var(system.index_of(root)))
    k = system.index_of(alpha)
    start = [0] * len(system.roots)
    start[k] = Polynomial.const(1)
    moved, _, _ = _act(system, letters, start, 1, 1 << k)  # a Polynomial vector stays over 1
    return _membership_form(system, MappingProxyType(
        {beta: moved[system.index_of(beta)] or _ZERO for beta in data.regular}))


def orbit_chart(
    kind: RootSystemKind | str, n: int, alpha: PositiveRoot, c: Rational = 1
) -> OrbitChart:
    """The defining-equation chart of the orbit through c * e*_alpha."""
    return OrbitChart(get_system(kind, n), alpha, c)


def _integer_vector(c: Fraction, f: Functional) -> tuple[tuple[int, ...], int]:
    """(H, e) with (1/c) f = H / e: H is f.nums * c.denominator, e is f.den * c.numerator."""
    h = f.nums if c.denominator == 1 else tuple(v * c.denominator for v in f.nums)
    return h, f.den * c.numerator


def contains(chart: OrbitChart, f: Functional) -> bool:
    """Exact membership of f in the chart's orbit."""
    if f.system is not chart.system and f.system != chart.system:
        raise ValueError("functional and chart live on different systems")
    return _satisfies(chart._form, chart.c, f)


def _satisfies(form: tuple, c: Fraction, f: Functional) -> bool:
    """Whether (1/c) f satisfies the equations of a membership form.

    f must vanish at every position whose constraint is zero. f's support
    covers its nonzero positions, so the zero positions are read, in f's
    numerators, only when the support meets the form's zero_mask; a stale
    bit costs only the reads. With (1/c) f = H / e and a nonzero constraint
    P(H / e) = num / den, the test h(beta) = P(h) reads H(beta) den = e num,
    all integers.
    """
    _, zero_mask, zeros, nonzero = form
    if f.support & zero_mask and any(map(f.nums.__getitem__, zeros)):
        return False
    h, e = _integer_vector(c, f)
    for k, poly in nonzero:
        num, den = poly._integer_ratio(h, e)
        if h[k] * den != e * num:
            return False
    return True


def chart_point(chart: OrbitChart, assignment: Mapping[PositiveRoot, Rational]) -> Functional:
    """The unique orbit point with the given values on the singular roots."""
    sing = set(chart.data.singular)
    given = set(assignment)
    if given != sing:
        missing = sorted(str(r) for r in sing - given)
        extra = sorted(str(r) for r in given - sing)
        raise ChartVariableError(
            f"assignment must cover exactly the singular roots; missing={missing}, extra={extra}"
        )
    _, _, _, nonzero = chart._form
    given = functional(chart.system, assignment)
    c = chart.c
    h, e = _integer_vector(c, given)
    # Over given.den, as each regular value is written; a zero constraint's
    # position is one the assignment left at 0.
    vec: list = list(given.nums)
    support = given.support
    for k, poly in nonzero:
        num, den = poly._integer_ratio(h, e)
        vec[k] = Fraction(c.numerator * num * given.den, c.denominator * den)
        support |= 1 << k
    return _from_vector(chart.system, vec, given.den, support)


def construct_group_word(
    kind: RootSystemKind | str, n: int, alpha: PositiveRoot, f: Functional
) -> GroupWord:
    """A word w with w . e*_alpha = f, for f in the level-1 orbit of alpha.

    One constructive product serves every chart family: for each pair
    (gamma, p, s) of SingularData.pairs, first the exponentials along p
    with parameter s f(gamma), then those along gamma with parameter
    -s f(p). For e_i - e_j this runs along e_k - e_j, then e_i - e_k; for
    e_i along e_k, then e_i - e_k; difference and short pairs all have
    sign +1. The level-1 chart is this word with its parameters taken as
    variables, so f is in the orbit, and the word carries e*_alpha to f,
    exactly when the chart contains f.
    """
    chart = orbit_chart(kind, n, alpha)
    if not contains(chart, f):
        raise NotInOrbitError(f"functional is not in the level-1 orbit of {alpha}")
    # The letters over f's numerators are ints: over den 1 they are the
    # parameters as the word stores them, else each is one Fraction over f.den.
    index, nums, den = chart.system.index_of, f.nums, f.den
    return GroupWord((root, t if den == 1 else Fraction(t, den))
                     for root, t in _word_letters(chart.data, lambda root: nums[index(root)]))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _frac_latex(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return rf"{sign}\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"


# Per format: a root's name inside f(...), the power of a repeated factor, a
# coefficient, what joins a coefficient to its factors, and the free line's
# opening, separator and text when no root is free.
_STYLES = {
    "text": (str, "^{}", str, "*", "free: ", " ", "(none)"),
    "latex": (lambda r: rf"e_{{{r.latex()}}}", "^{{{}}}", _frac_latex, "",
              r"\text{free: } ", ", ", ""),
}


def _render(poly: Polynomial, roots: tuple[PositiveRoot, ...], style: tuple) -> str:
    """Terms in display order, variable k as roots[k], in one of the _STYLES."""
    if not poly:
        return "0"
    name, power, number, sep = style[:4]
    rendered = []
    for mono, coef in poly.sorted_terms():
        factors = []
        for k, group in groupby(mono):
            p = len(list(group))
            factors.append(f"f({name(roots[k])})" + (power.format(p) if p > 1 else ""))
        if not factors:
            rendered.append(number(coef))
        elif coef in (1, -1):
            rendered.append(("-" if coef < 0 else "") + sep.join(factors))
        else:
            rendered.append(sep.join([number(coef), *factors]))
    out = rendered[0]
    for term in rendered[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def chart_lines(chart: OrbitChart, fmt: str) -> list[str]:
    """The chart in "text" or "latex": one equation per regular root, then the free roots."""
    style = _STYLES[fmt]
    name, free, comma, none = style[0], *style[4:]
    polys = chart.scaled_constraints()
    roots = chart.system.roots
    lines = [f"f({name(beta)}) = {_render(polys[beta], roots, style)}"
             for beta in chart.data.regular]
    return lines + [free + (comma.join(map(name, chart.data.singular)) or none)]


def chart_to_json(chart: OrbitChart) -> dict:
    polys = chart.scaled_constraints()
    roots = chart.system.roots
    constraints = {}
    for beta in chart.data.regular:
        constraints[str(beta)] = [
            [str(coef), [str(roots[k]) for k in mono]] for mono, coef in polys[beta].sorted_terms()
        ]
    return {
        "kind": chart.system.kind.value,
        "n": chart.system.n,
        "alpha": str(chart.alpha),
        "c": str(chart.c),
        "constraints": constraints,
        "free": [str(r) for r in chart.data.singular],
    }
