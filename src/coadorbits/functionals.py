"""Functionals on the nilpotent algebras and the coadjoint action.

A functional f is stored sparsely by its values on the root-vector basis,
its coadjoint translates g.f are computed from the terminating exponential
series of the nilpotent adjoint action, and the orbit through f has exact
dimension equal to the rank of the skew form (x, y) -> f([x, y]).

Both the action and the skew form read the bracket table by canonical
position (``BracketTable.by_index``). The action reads it through one cached
plan per letter (``_ad_chains``): the gammas the letter moves, longest tail
first, each with its one or two tail terms unrolled in int coefficients, so
that every letter updates one position vector in place. That vector holds
f's values as ints over one common denominator, which type B's second-order
halves double only where a half is real, so integral parameters keep the
whole action in ints. The skew form is built once, as sparse
integer rows scaled by the lcm of f's denominators; ``orbit_dimension`` and
``radical_basis`` hand those rows to the integer elimination of ``linalg``
(``orbit_dimension`` only counts its pivots, ``radical_basis`` reads its
kernel), and ``skew_form`` reads them back as dense Fraction rows.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .linalg import _fractions, _kernel, _reduced
from .roots import (
    PositiveRoot,
    RootSystem,
    RootSystemKind,
    _echo,
    get_system,
    parse_root,
    structure_table,
)

Rational = Fraction | int | str


class OddRankError(RuntimeError):
    """A skew form came out with odd rank.

    An internal consistency check: a skew-symmetric matrix has even rank.
    """


_RATIONAL_STRING = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """The rational of an exact string "p" or "p/q", such as "-3/5" (CONVENTIONS.md).

    Decimal, exponent, signed-plus and padded forms, which ``Fraction`` would
    read, raise ValueError before any integer is built; so does a zero
    denominator, such as "1/0".
    """
    if not _RATIONAL_STRING.fullmatch(text):
        raise ValueError(f"Invalid literal for Fraction: {_echo(text)}")
    try:
        return Fraction(text)
    except ValueError:
        raise ValueError(f"rational string of {len(text)} characters is too long") from None
    except ZeroDivisionError:
        raise ValueError(f"rational string {_echo(text)} has a zero denominator") from None


def _frac(x: Rational) -> Fraction:
    """x as a Fraction: a Fraction, an int or an exact rational string.

    Floats, booleans and everything else raise ValueError: Fraction(0.1) is
    3602879701896397/36028797018963968, not the 1/10 that was meant.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise ValueError(f'expected a Fraction, an int or a string such as "-3/5", got {_echo(x)}')


@dataclass(frozen=True)
class Functional:
    """Element of the dual space, as a sparse root -> rational map.

    Absent roots have value 0; zero values are never stored, so equality of
    the dataclass is equality of functionals. Instances are immutable and
    safe to share.
    """

    system: RootSystem
    values: dict[PositiveRoot, Fraction] = field(default_factory=dict)

    def value(self, root: PositiveRoot) -> Fraction:
        return self.values.get(root, Fraction(0))

    def scaled(self, c: Rational) -> "Functional":
        c = _frac(c)
        if c == 0:
            return Functional(self.system, {})
        return Functional(self.system, {r: c * v for r, v in self.values.items()})

    def __str__(self) -> str:
        if not self.values:
            return "0"
        return " + ".join(f"{v}*e*[{r}]" for r, v in sorted(
            self.values.items(), key=lambda item: item[0].sort_key()))


def functional(system: RootSystem, values: Mapping[PositiveRoot, Rational]) -> Functional:
    """Build a functional, validating roots and dropping zero values."""
    vals: dict[PositiveRoot, Fraction] = {}
    for root, v in values.items():
        system.check_member(root)
        fv = _frac(v)
        if fv:
            vals[root] = fv
    return Functional(system, vals)


def zero_functional(system: RootSystem) -> Functional:
    return Functional(system, {})


def e_star(system: RootSystem, alpha: PositiveRoot, c: Rational = 1) -> Functional:
    """The dual basis vector c * e*_alpha."""
    return functional(system, {alpha: c})


@dataclass(frozen=True)
class GroupWord:
    """A product of exponentials exp(t_1 e_{b_1}) ... exp(t_m e_{b_m}).

    The letters are listed in the order the factors are written, so word
    concatenation is group multiplication.
    """

    letters: tuple[tuple[PositiveRoot, Fraction], ...] = ()

    def __len__(self) -> int:
        return len(self.letters)


def group_word(letters: Iterable[tuple[PositiveRoot, Rational]]) -> GroupWord:
    return GroupWord(tuple((root, _frac(t)) for root, t in letters))


@lru_cache(maxsize=None)
def _ad_chains(kind: RootSystemKind, n: int):
    """Per beta: the plan of exp(ad(-t e_beta)) on the gammas it moves, in ints.

    All roots are positions in the canonical root order. chains[b] is
    (twos, ones): twos holds (g, p, c, q, d2) for each gamma whose tail has
    two terms, c t e_p + (d2 / 2) t^2 e_q with p = g+b and q = g+2b; ones
    holds (g, p, c) for each gamma with the single term c t e_p. With k1
    and k2 the structure constants of the string g, g+b, g+2b, c is -k1 and
    d2 is k1 k2, the numerator over 2! of the second-order coefficient, so
    every entry is an int; in type B, the only kind with twos, d2 is -1.
    Root strings in A, B and D have at most three roots, so no tail is
    longer; only type B's short betas have twos. The tail of g+b is the
    tail of g less its first term, so every gamma a plan entry reads comes
    later in the plan, if at all: the action updates one vector in place,
    twos first.
    """
    chains = []
    for brackets in structure_table(kind, n).by_index:
        twos, ones = [], []
        for g in sorted(brackets):
            k1, p = brackets[g]
            hit = brackets.get(p)
            if hit is None:
                ones.append((g, p, -k1))
            else:
                k2, q = hit
                twos.append((g, p, -k1, q, k1 * k2))
        chains.append((tuple(twos), tuple(ones)))
    return tuple(chains)


_HALF = Fraction(1, 2)


def _act(system: RootSystem, letters, values: Mapping) -> dict:
    """Apply the letters (beta, t), last first, to values over a vector in canonical order.

    The loop only adds, multiplies and tests for zero, so the parameters and
    values may be Fractions or Polynomials; an orbit chart runs it with its
    letters' parameters as variables. Inside, the values are written once as
    ints over one common denominator den, the lcm of their denominators, and
    integral parameters travel as ints; int/Fraction promotion keeps every
    sum exact. A second-order term y (d2 / 2) t^2 (type B only) takes
    z = y d2 t^2 and adds z >> 1 when z is an even int. When z is an odd
    int, the half is real: the whole vector and den are doubled, and z is
    added as it is, so integral parameters keep the vector in ints. Any
    other z (a Fraction from a rational parameter, or a Polynomial) adds
    z * 1/2. The returned values are Fractions (or Polynomials) again, each
    divided by den. Each letter updates the vector in place, in its plan's
    order (see ``_ad_chains``). ``values`` itself comes back when nothing
    moves it.
    """
    index = system._index
    moves = []
    for beta, t in reversed(letters):
        b = index.get(beta)
        if b is None:
            system.index_of(beta)  # raises InvalidRootError
        if type(t) is Fraction:
            if t.denominator == 1:
                t = t.numerator
                if not t:
                    continue
        elif not t:
            continue
        moves.append((b, t))
    if not moves or not values:
        return values
    chains = _ad_chains(system.kind, system.n)
    den = math.lcm(*[v.denominator for v in values.values() if type(v) is Fraction])
    vec = [0] * len(system.roots)
    for root, v in values.items():
        vec[system.index_of(root)] = (v.numerator * (den // v.denominator)
                                      if type(v) is Fraction else v * den)
    for b, t in moves:
        twos, ones = chains[b]
        if twos:
            tt = t * t
            for g, p, c, q, d2 in twos:
                x, y = vec[p], vec[q]
                if x:
                    vec[g] += x * c * t
                if y:
                    z = y * d2 * tt
                    if type(z) is not int:
                        vec[g] += z * _HALF
                    elif z & 1:
                        vec = [v + v for v in vec]
                        den += den
                        vec[g] += z
                    else:
                        vec[g] += z >> 1
        for g, p, c in ones:
            x = vec[p]
            if x:
                vec[g] += x * c * t
    roots = system.roots
    if den == 1:
        return {roots[k]: Fraction(v) if type(v) is int else v for k, v in enumerate(vec) if v}
    scale = Fraction(1, den)
    return {roots[k]: Fraction(v, den) if type(v) is int else v * scale
            for k, v in enumerate(vec) if v}


def coadjoint_apply_one(beta: PositiveRoot, t: Rational, f: Functional) -> Functional:
    """Apply exp(t e_beta) to f under the coadjoint action, exactly.

    The new value at e_gamma is f(exp(ad(-t e_beta)) e_gamma); the series
    stops on its own once the bracket chain dies.
    """
    return _act_on(((beta, _frac(t)),), f)


def coadjoint_apply(word: GroupWord, f: Functional) -> Functional:
    """Apply a product of exponentials to f.

    Composition follows the group: for words w1, w2 and their concatenation
    w1 + w2, apply(w1 + w2, f) == apply(w1, apply(w2, f)).
    """
    return _act_on(word.letters, f)


def _act_on(letters, f: Functional) -> Functional:
    values = _act(f.system, letters, f.values)
    return f if values is f.values else Functional(f.system, values)


def concat_words(*words: GroupWord) -> GroupWord:
    letters: list[tuple[PositiveRoot, Fraction]] = []
    for w in words:
        letters.extend(w.letters)
    return GroupWord(tuple(letters))


@dataclass(frozen=True)
class SkewForm:
    """The matrix M[a][b] = f([e_a, e_b]) over the canonical root order."""

    system: RootSystem
    rows: tuple[tuple[Fraction, ...], ...]


def _skew_rows(f: Functional) -> tuple[list[dict[int, int]], int]:
    """The skew form of f times one integer scale, as sparse rows {b: entry}; with the scale.

    The scale is the lcm of the denominators of f's values. With F[g] the
    value at position g times the scale, [e_a, e_b] = c e_g gives the
    integer entry c * F[g]; scaling all rows alike leaves rank and kernel as
    they are.
    """
    system = f.system
    scale = math.lcm(*[v.denominator for v in f.values.values()])
    scaled = [0] * len(system.roots)
    for root, v in f.values.items():
        scaled[system.index_of(root)] = v.numerator * (scale // v.denominator)
    by_index = structure_table(system.kind, system.n).by_index
    rows = [{b: c * scaled[g] for b, (c, g) in brackets.items() if scaled[g]}
            for brackets in by_index]
    return rows, scale


def skew_form(f: Functional) -> SkewForm:
    int_rows, scale = _skew_rows(f)
    columns = range(len(f.system.roots))
    return SkewForm(f.system, tuple(tuple(Fraction(row.get(b, 0), scale) for b in columns)
                                    for row in int_rows))


def orbit_dimension(f: Functional) -> int:
    """Dimension of the coadjoint orbit through f: the exact rank of its skew form."""
    r = len(_reduced(_skew_rows(f)[0]))
    if r % 2 != 0:
        raise OddRankError(f"skew form has odd rank {r}")
    return r


def radical_basis(f: Functional) -> list[tuple[Fraction, ...]]:
    """Exact basis of the radical {x : f([x, y]) = 0 for all y}.

    Vectors are coefficient tuples over the canonical root order; their
    count is len(roots) - orbit_dimension(f).
    """
    n = len(f.system.roots)
    return _fractions(_kernel(_skew_rows(f)[0], n), n)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def functional_to_json(f: Functional) -> dict:
    return {
        "kind": f.system.kind.value,
        "n": f.system.n,
        "values": {str(r): str(v) for r, v in sorted(
            f.values.items(), key=lambda item: item[0].sort_key())},
    }


def rational_from_json(key: str, value) -> Fraction:
    """The rational under `key` of a JSON object: only exact strings such as "-3/5".

    Numbers, booleans and containers raise ValueError naming the key, so no
    float is ever rounded into a Fraction.
    """
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ValueError:
            pass
    raise ValueError(f'value of {key!r} must be an exact rational string such as "-3/5", '
                     f"got {_echo(value)}")


def int_from_json(key: str, value) -> int:
    """The integer under `key` of a JSON object: floats, strings and booleans raise ValueError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"value of {key!r} must be a JSON integer, got {_echo(value)}")


def object_from_json(key: str, value) -> dict:
    """The JSON object under `key`: arrays, strings, numbers and null raise ValueError."""
    if isinstance(value, dict):
        return value
    raise ValueError(f"value of {key!r} must be a JSON object, got {_echo(value)}")


def functional_from_json(data: Mapping) -> Functional:
    try:
        system = get_system(data["kind"], int_from_json("n", data["n"]))
        raw = object_from_json("values", data["values"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed functional object: {exc}") from None
    values = {parse_root(name): rational_from_json(name, v) for name, v in raw.items()}
    return functional(system, values)


def word_to_json(word: GroupWord) -> list:
    return [[str(root), str(t)] for root, t in word.letters]


def word_from_json(data: Iterable) -> GroupWord:
    return group_word((parse_root(name), rational_from_json(name, t)) for name, t in data)
