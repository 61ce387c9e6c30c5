"""Elementary coadjoint orbits: singular data, defining-equation charts, words.

For a positive root alpha and a nonzero scalar c, the orbit through
c * e*_alpha is cut out, inside the dual space, by one polynomial constraint
per regular root, in the coordinates indexed by the singular roots. The
singular roots S(alpha) are the roots beta with [e_beta, e_gamma] = c e_alpha
for some root gamma; they, their pairing and the pair signs are all read
from the cached bracket table (roots.structure_table). Charts are built once
for c = 1 and rescaled on use: f lies in the level-c chart iff (1/c) f
satisfies the level-1 equations.

The quadratic tail that appears in the constraints of sum-root charts
carries a per-term sign; the convention shipped here ("constant-minus") is
the one certified against brute-force orbit sampling by the oracle module,
and is recorded in CONVENTIONS.md. Alternative rules are kept around so the
certification can be rerun (see oracle.resolve_sign_conventions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from typing import Callable, Mapping

from .functionals import Functional, GroupWord, Rational, functional, group_word
from .polynomials import Polynomial
from .roots import (
    DIFF,
    SHORT,
    SUM,
    PositiveRoot,
    RootSystem,
    RootSystemKind,
    diff,
    get_system,
    short,
    structure_table,
    sum_root,
)


class ZeroScalarError(ValueError):
    """Orbit charts require a nonzero scalar."""


class NotInOrbitError(ValueError):
    """The functional does not satisfy the chart equations."""


class ChartVariableError(ValueError):
    """A chart-point assignment does not cover exactly the singular roots."""


class ChartConsistencyError(RuntimeError):
    """Two overlapping chart cases produced different polynomials."""


# ---------------------------------------------------------------------------
# Singular and regular roots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularData:
    """S(alpha), R(alpha) and the pairing of S(alpha) into pairs summing to alpha.

    A root beta is singular when [e_beta, e_gamma] = c e_alpha for some root
    gamma, its unique partner alpha - beta. ``left`` collects
    the member of each pair whose first index is alpha's first index,
    ``pairing`` maps each of them to its partner, and ``pair_signs`` records
    the structure constant c (+/-1) of the bracket [e_left, e_partner].
    """

    alpha: PositiveRoot
    singular: tuple[PositiveRoot, ...]
    regular: tuple[PositiveRoot, ...]
    left: tuple[PositiveRoot, ...]
    pairing: dict[PositiveRoot, PositiveRoot]
    pair_signs: dict[PositiveRoot, int]

    @property
    def right(self) -> tuple[PositiveRoot, ...]:
        """The partner half of the pairing, in canonical order."""
        partners = set(self.pairing.values())
        return tuple(r for r in self.singular if r in partners)


@lru_cache(maxsize=None)
def _singular_data(kind: RootSystemKind, n: int) -> dict[PositiveRoot, SingularData]:
    """Every root's SingularData, read in one pass over the bracket table."""
    table = structure_table(kind, n)
    roots = table.system.roots
    pairs: dict[PositiveRoot, dict[PositiveRoot, tuple[PositiveRoot, int]]] = {
        alpha: {} for alpha in roots
    }
    for (beta, gamma), (c, alpha) in table.table.items():
        if beta.i == alpha.i:
            if c not in (1, -1):
                raise RuntimeError(f"pair ({beta}, {gamma}) does not bracket to +/- e_{alpha}")
            pairs[alpha][beta] = (gamma, c)
    out = {}
    for alpha, found in pairs.items():
        sing = set(found) | {partner for partner, _ in found.values()}
        left = tuple(r for r in roots if r in found)
        out[alpha] = SingularData(
            alpha,
            tuple(r for r in roots if r in sing),
            tuple(r for r in roots if r not in sing),
            left,
            {gamma: found[gamma][0] for gamma in left},
            {gamma: found[gamma][1] for gamma in left},
        )
    return out


def singular_set(kind: RootSystemKind | str, n: int, alpha: PositiveRoot) -> SingularData:
    """Singular and regular roots of alpha, with the pairing of the singular roots."""
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
# Sign rules for the quadratic tail of sum-root charts
# ---------------------------------------------------------------------------

# Each rule maps (k, j) -> +/-1 for the term indexed by k in the tail sum
# running over k = j+1 .. n.
SIGN_RULES: dict[str, Callable[[int, int], int]] = {
    "alternating": lambda k, j: (-1) ** k,
    "alternating-negated": lambda k, j: -((-1) ** k),
    "alternating-offset": lambda k, j: (-1) ** (k - j),
    "alternating-offset-negated": lambda k, j: -((-1) ** (k - j)),
    "constant-minus": lambda k, j: -1,
    "constant-plus": lambda k, j: 1,
}

# Certified against brute-force orbit sampling for both B and D; see
# CONVENTIONS.md and oracle.resolve_sign_conventions.
CERTIFIED_SIGN_RULE = "constant-minus"


# ---------------------------------------------------------------------------
# Orbit charts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitChart:
    """Defining equations of the orbit through c * e*_alpha.

    ``constraints`` holds the level-1 polynomials (one per regular root, in
    the singular-root variables); ``c`` is the scalar. Membership at level c
    is tested by feeding (1/c) f to the level-1 equations.
    """

    system: RootSystem
    alpha: PositiveRoot
    c: Fraction
    data: SingularData
    constraints: dict[PositiveRoot, Polynomial]
    sign_rule: str

    def scaled_constraints(self) -> dict[PositiveRoot, Polynomial]:
        """Constraints written for f itself: each coefficient picks up c^(1-deg)."""
        out = {}
        for beta, poly in self.constraints.items():
            out[beta] = Polynomial(
                {mono: coef * self.c ** (1 - len(mono)) for mono, coef in poly.terms.items()}
            )
        return out


def _tail_polynomial(kind: RootSystemKind, n: int, i: int, j: int,
                     rule: Callable[[int, int], int]) -> Polynomial:
    """The bracketed factor of the constraints at the roots e_r - e_j."""
    tail = Polynomial.zero()
    if kind is RootSystemKind.B:
        tail = tail + Fraction(-1, 2) * (Polynomial.var(short(i)) * Polynomial.var(short(i)))
    for k in range(j + 1, n + 1):
        term = Polynomial.var(diff(i, k)) * Polynomial.var(sum_root(i, k))
        tail = tail + rule(k, j) * term
    return tail


def orbit_chart(
    kind: RootSystemKind | str,
    n: int,
    alpha: PositiveRoot,
    c: Rational = 1,
    sign_rule: str | None = None,
) -> OrbitChart:
    """Build the defining-equation chart of the orbit through c * e*_alpha."""
    system = get_system(kind, n)
    system.check_member(alpha)
    c = Fraction(c)
    if c == 0:
        raise ZeroScalarError("orbit charts need a nonzero scalar")
    rule_name = CERTIFIED_SIGN_RULE if sign_rule is None else sign_rule
    try:
        rule = SIGN_RULES[rule_name]
    except KeyError:
        raise ValueError(f"unknown sign rule {rule_name!r}") from None
    data = singular_set(kind, n, alpha)
    sing = set(data.singular)
    kind = system.kind
    i, j = alpha.i, alpha.j
    cache: dict[PositiveRoot, Polynomial] = {}

    def value_of(root: PositiveRoot) -> Polynomial:
        """f(e_root) on the level-1 chart: 1 at alpha, free on S(alpha), else its constraint."""
        if root == alpha:
            return Polynomial.const(1)
        if root in sing:
            return Polynomial.var(root)
        got = cache.get(root)
        if got is None:
            got = _constraint(root)
            cache[root] = got
        return got

    def _diff_alpha_constraint(beta: PositiveRoot) -> Polynomial:
        if beta.tag == DIFF and i < beta.i < beta.j < j:
            return value_of(diff(i, beta.j)) * value_of(diff(beta.i, j))
        return Polynomial.zero()

    def _short_alpha_constraint(beta: PositiveRoot) -> Polynomial:
        if beta.tag == DIFF and i < beta.i < beta.j <= n:
            return value_of(diff(i, beta.j)) * value_of(short(beta.i))
        return Polynomial.zero()

    def _sum_alpha_constraint(beta: PositiveRoot) -> Polynomial:
        tail = _tail_polynomial(kind, n, i, j, rule)
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

    def _constraint(beta: PositiveRoot) -> Polynomial:
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
            if via_generic != constraints[beta]:
                raise ChartConsistencyError(
                    f"overlapping cases disagree at {beta} in the {alpha} chart"
                )

    return OrbitChart(system, alpha, c, data, constraints, rule_name)


def contains(chart: OrbitChart, f: Functional) -> bool:
    """Exact membership of f in the chart's orbit."""
    if f.system != chart.system:
        raise ValueError("functional and chart live on different systems")
    h = f.scaled(Fraction(1) / chart.c)
    env = {s: h.value(s) for s in chart.data.singular}
    for beta, poly in chart.constraints.items():
        if h.value(beta) != poly.evaluate(env):
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
    inv = Fraction(1) / chart.c
    env = {root: Fraction(v) * inv for root, v in assignment.items()}
    values: dict[PositiveRoot, Fraction] = dict(env)
    for beta, poly in chart.constraints.items():
        values[beta] = poly.evaluate(env)
    return functional(chart.system, values).scaled(chart.c)


def construct_group_word(
    kind: RootSystemKind | str, n: int, alpha: PositiveRoot, f: Functional
) -> GroupWord:
    """A word w with w . e*_alpha = f, for f in the level-1 orbit of alpha.

    One constructive product serves every chart family: for each left
    singular root gamma with partner p and bracket sign s, first the
    exponentials along p with parameter s f(gamma), then those along gamma
    with parameter -s f(p). For e_i - e_j this runs along e_k - e_j, then
    e_i - e_k; for e_i along e_k, then e_i - e_k; difference and short pairs
    all have sign +1.
    """
    chart = orbit_chart(kind, n, alpha, 1)
    if not contains(chart, f):
        raise NotInOrbitError(f"functional is not in the level-1 orbit of {alpha}")
    data = chart.data
    letters = [(data.pairing[g], data.pair_signs[g] * f.value(g)) for g in data.left]
    letters += [(g, -data.pair_signs[g] * f.value(data.pairing[g])) for g in data.left]
    return group_word(letters)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _render(poly: Polynomial, factor: Callable[[PositiveRoot, int], str],
            number: Callable[[Fraction], str], sep: str) -> str:
    """Terms in display order; ``sep`` joins a term's coefficient and factors."""
    if poly.is_zero():
        return "0"
    rendered = []
    for mono, coef in poly.sorted_terms():
        factors = [factor(v, len(list(group))) for v, group in groupby(mono)]
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


def polynomial_text(poly: Polynomial) -> str:
    return _render(poly, lambda v, p: f"f({v})" + (f"^{p}" if p > 1 else ""), str, "*")


def polynomial_latex(poly: Polynomial) -> str:
    return _render(poly, lambda v, p: rf"f(e_{{{v.latex()}}})" + (f"^{{{p}}}" if p > 1 else ""),
                   _frac_latex, "")


def _frac_latex(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return rf"{sign}\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def chart_equations_text(chart: OrbitChart) -> list[str]:
    polys = chart.scaled_constraints()
    return [f"f({beta}) = {polynomial_text(polys[beta])}" for beta in chart.data.regular]


def chart_equations_latex(chart: OrbitChart) -> list[str]:
    polys = chart.scaled_constraints()
    return [
        rf"f(e_{{{beta.latex()}}}) = {polynomial_latex(polys[beta])}"
        for beta in chart.data.regular
    ]


def chart_to_json(chart: OrbitChart) -> dict:
    polys = chart.scaled_constraints()
    constraints = {}
    for beta in chart.data.regular:
        constraints[str(beta)] = [
            [str(coef), [str(v) for v in mono]] for mono, coef in polys[beta].sorted_terms()
        ]
    return {
        "kind": chart.system.kind.value,
        "n": chart.system.n,
        "alpha": str(chart.alpha),
        "c": str(chart.c),
        "constraints": constraints,
        "free": [str(r) for r in chart.data.singular],
    }
