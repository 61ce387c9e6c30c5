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
only on (kind, n, alpha), so each is derived once and cached; a chart
carries its scalar c and its own copy of the cached constraints. f lies in
the level-c chart iff (1/c) f satisfies the level-1 equations. Membership
is tested over the integers: (1/c) f is H / e, with H f's numerators by
canonical position times c's denominator and e an int, and each
constraint is compared by cross-multiplication with its cached integer
form, so no Fraction is built. A chart variable is its singular root's
position, and only the renderers decode positions back to roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, groupby
from typing import Callable, Mapping

from .functionals import (Functional, GroupWord, Rational, _act, _frac, _from_vector, e_star,
                          functional, group_word)
from .polynomials import Polynomial
from .roots import (
    DIFF,
    SHORT,
    PositiveRoot,
    RootSystem,
    RootSystemKind,
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

    ``constraints`` holds the level-1 polynomials (one per regular root, in
    the positions of the singular roots); ``c`` is the scalar. Membership at
    level c is tested by feeding (1/c) f to the level-1 equations.
    """

    system: RootSystem
    alpha: PositiveRoot
    c: Fraction
    data: SingularData
    constraints: dict[PositiveRoot, Polynomial]

    def scaled_constraints(self) -> dict[PositiveRoot, Polynomial]:
        """Constraints written for f itself: each coefficient picks up c^(1-deg)."""
        out = {}
        for beta, poly in self.constraints.items():
            out[beta] = Polynomial(
                {mono: coef * self.c ** (1 - len(mono)) for mono, coef in poly.terms.items()}
            )
        return out


def _word_letters(data: SingularData, value: Callable) -> list:
    """The letters of construct_group_word's product, with value(root) in place of f(root)."""
    return ([(p, s * value(g)) for g, p, s in data.pairs]
            + [(g, -s * value(p)) for g, p, s in data.pairs])


# The constraint of every regular root that the derivation leaves at 0.
_ZERO = Polynomial.zero()


@lru_cache(maxsize=None)
def _level_one_constraints(
    kind: RootSystemKind, n: int, alpha: PositiveRoot
) -> dict[PositiveRoot, Polynomial]:
    """The level-1 constraints of alpha's chart, derived once per (kind, n, alpha).

    The constructive word, with each singular value as a variable, applied
    to e*_alpha: the regular coordinates of the result are the constraints.
    Callers copy the dict, so no edit of a chart reaches the cache.
    """
    system = get_system(kind, n)
    data = _singular_data(kind, n)[alpha]
    letters = _word_letters(data, lambda root: Polynomial.var(system.index_of(root)))
    start = [Polynomial.const(1) if root == alpha else 0 for root in system.roots]
    moved, _ = _act(system, letters, start, 1)  # a Polynomial vector stays over 1
    return {beta: moved[system.index_of(beta)] or _ZERO for beta in data.regular}


def orbit_chart(
    kind: RootSystemKind | str, n: int, alpha: PositiveRoot, c: Rational = 1
) -> OrbitChart:
    """The defining-equation chart of the orbit through c * e*_alpha."""
    system = get_system(kind, n)
    system.check_member(alpha)
    c = _frac(c)
    if c == 0:
        raise ZeroScalarError("orbit charts need a nonzero scalar")
    constraints = _level_one_constraints(system.kind, n, alpha)
    return OrbitChart(system, alpha, c, _singular_data(system.kind, n)[alpha], dict(constraints))


def _integer_vector(chart: OrbitChart, f: Functional) -> tuple[tuple[int, ...], int]:
    """(H, e) with (1/c) f = H / e: H is f.nums * c.denominator, e is f.den * c.numerator."""
    c = chart.c
    h = f.nums if c.denominator == 1 else tuple(v * c.denominator for v in f.nums)
    return h, f.den * c.numerator


def contains(chart: OrbitChart, f: Functional) -> bool:
    """Exact membership of f in the chart's orbit.

    With (1/c) f = H / e and a constraint P(H / e) = num / den, the test
    h(beta) = P(h) reads H(beta) den = e num, all integers.
    """
    if f.system != chart.system:
        raise ValueError("functional and chart live on different systems")
    h, e = _integer_vector(chart, f)
    index = chart.system._index
    for beta, poly in chart.constraints.items():
        k = index.get(beta)
        if k is None:
            chart.system.index_of(beta)  # raises InvalidRootError
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
    given = functional(chart.system, assignment)
    h, e = _integer_vector(chart, given)
    c, index = chart.c, chart.system._index
    vec: list = list(given.nums)  # over given.den, as each regular value is written
    for beta, poly in chart.constraints.items():
        k = index.get(beta)
        if k is None:
            chart.system.index_of(beta)  # raises InvalidRootError
        num, den = poly._integer_ratio(h, e)
        vec[k] = Fraction(c.numerator * num * given.den, c.denominator * den)
    return _from_vector(chart.system, vec, given.den)


def construct_group_word(
    kind: RootSystemKind | str, n: int, alpha: PositiveRoot, f: Functional
) -> GroupWord:
    """A word w with w . e*_alpha = f, for f in the level-1 orbit of alpha.

    One constructive product serves every chart family: for each pair
    (gamma, p, s) of SingularData.pairs, first the exponentials along p
    with parameter s f(gamma), then those along gamma with parameter
    -s f(p). For e_i - e_j this runs along e_k - e_j, then e_i - e_k; for
    e_i along e_k, then e_i - e_k; difference and short pairs all have
    sign +1. f is in the orbit exactly when the word carries e*_alpha to f,
    the test the derived chart makes.
    """
    letters = _word_letters(singular_set(kind, n, alpha), f.value)
    if f.system != get_system(kind, n):
        raise ValueError(f"functional lives on a different system than {alpha}")
    moved = _act(f.system, letters, e_star(f.system, alpha).nums, 1)
    if _from_vector(f.system, *moved) != f:
        raise NotInOrbitError(f"functional is not in the level-1 orbit of {alpha}")
    return group_word(letters)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _render(poly: Polynomial, roots: tuple[PositiveRoot, ...],
            factor: Callable[[PositiveRoot, int], str],
            number: Callable[[Fraction], str], sep: str) -> str:
    """Terms in display order, variable k as roots[k]; ``sep`` joins coefficient and factors."""
    if not poly:
        return "0"
    rendered = []
    for mono, coef in poly.sorted_terms():
        factors = [factor(roots[k], len(list(group))) for k, group in groupby(mono)]
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


def polynomial_text(poly: Polynomial, roots: tuple[PositiveRoot, ...]) -> str:
    return _render(poly, roots, lambda v, p: f"f({v})" + (f"^{p}" if p > 1 else ""), str, "*")


def polynomial_latex(poly: Polynomial, roots: tuple[PositiveRoot, ...]) -> str:
    return _render(poly, roots,
                   lambda v, p: rf"f(e_{{{v.latex()}}})" + (f"^{{{p}}}" if p > 1 else ""),
                   _frac_latex, "")


def _frac_latex(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return rf"{sign}\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def chart_equations_text(chart: OrbitChart) -> list[str]:
    polys = chart.scaled_constraints()
    roots = chart.system.roots
    return [f"f({beta}) = {polynomial_text(polys[beta], roots)}" for beta in chart.data.regular]


def chart_equations_latex(chart: OrbitChart) -> list[str]:
    polys = chart.scaled_constraints()
    roots = chart.system.roots
    return [
        rf"f(e_{{{beta.latex()}}}) = {polynomial_latex(polys[beta], roots)}"
        for beta in chart.data.regular
    ]


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
