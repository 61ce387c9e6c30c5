"""Functionals on the nilpotent algebras and the coadjoint action.

A functional f is stored as int numerators by canonical root position over
one denominator, in lowest terms; its coadjoint translates g.f are computed
from the terminating exponential series of the nilpotent adjoint action,
and the orbit through f has exact dimension equal to the rank of the skew
form (x, y) -> f([x, y]).

Both the action and the skew form read the bracket table by canonical
position (``BracketTable.by_index``). The action reads it through one cached
plan per letter (``_ad_chains``): the gammas the letter moves, longest tail
first, each with its one or two tail terms unrolled in int coefficients,
and the bitmask of the positions those terms read. A letter whose mask
meets none of the nonzero positions moves nothing and is skipped; the
first letter that moves f updates a copy of its numerators in place, over
f's denominator, which type B's second-order halves double only where a
half is real, and f itself comes back when no letter moves it. The skew
rows are sparse int rows over f's numerators, which ``skew_form`` reads
back over f's denominator; ``orbit_dimension`` counts the pivots of their
integer elimination in ``linalg``, and ``radical_basis`` reads the kernel
straight off the reduced rows, one Fraction per entry; ``_reduced_skew``
keeps the last functional's reduced form, so asking both of one functional
back to back reduces it once. perfbench's orbit-rank checks ask both; the
package's callers ask the dimension alone.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .linalg import _kernel, _reduced
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


@dataclass(frozen=True, slots=True)
class Functional:
    """Element of the dual space: f(e_root) is nums[system.index_of(root)] / den.

    The form is canonical, den > 0 and gcd(den, *nums) == 1 (so den == 1 for
    zero), and equality of the dataclass is equality of functionals. Build
    instances with ``functional``, ``e_star`` or the action; the constructor
    takes its fields as they are. Instances are immutable and hashable.
    """

    system: RootSystem
    den: int
    nums: tuple[int, ...]

    @property
    def values(self) -> dict[PositiveRoot, Fraction]:
        """A fresh root -> value map of the nonzero values, in canonical order."""
        return {root: Fraction(v, self.den) for root, v in zip(self.system.roots, self.nums) if v}

    def value(self, root: PositiveRoot) -> Fraction:
        """f(e_root); 0 for a root outside the system."""
        k = self.system._index.get(root)
        return Fraction(0) if k is None else Fraction(self.nums[k], self.den)

    def scaled(self, c: Rational) -> "Functional":
        c = _frac(c)
        return _from_vector(self.system, [v * c.numerator for v in self.nums],
                            self.den * c.denominator)

    def __str__(self) -> str:
        return " + ".join(f"{v}*e*[{r}]" for r, v in self.values.items()) or "0"


def _from_vector(system: RootSystem, vec: list, den: int) -> Functional:
    """vec / den in lowest terms, for int or Fraction entries and a positive int den."""
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


def functional(system: RootSystem, values: Mapping[PositiveRoot, Rational]) -> Functional:
    """Build a functional from a root -> rational map, validating the roots.

    Written over the lcm of their denominators, the values are in lowest terms.
    """
    given = {system.index_of(root): _frac(v) for root, v in values.items()}
    den = math.lcm(*[q.denominator for q in given.values()])
    nums = [0] * len(system.roots)
    for k, q in given.items():
        nums[k] = q.numerator * (den // q.denominator)
    return Functional(system, den, tuple(nums))


def zero_functional(system: RootSystem) -> Functional:
    return Functional(system, 1, (0,) * len(system.roots))


def e_star(system: RootSystem, alpha: PositiveRoot, c: Rational = 1) -> Functional:
    """The dual basis vector c * e*_alpha."""
    k = system.index_of(alpha)
    c = _frac(c)
    nums = [0] * len(system.roots)
    nums[k] = c.numerator
    return Functional(system, c.denominator, tuple(nums))


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
    (twos, ones, reads): twos holds (g, p, c, q, d2) for each gamma whose
    tail has two terms, c t e_p + (d2 / 2) t^2 e_q with p = g+b and
    q = g+2b; ones holds (g, p, c) for each gamma with the single term
    c t e_p; reads is the bitmask of the positions the entries read, bit p
    of every entry and bit q of every two-term one, so a letter whose reads
    meet no nonzero value moves nothing. With k1 and k2 the structure
    constants of the string g, g+b, g+2b, c is -k1 and d2 is k1 k2, the
    numerator over 2! of the second-order coefficient, so every entry is an
    int; in type B, the only kind with twos, d2 is -1. Root strings in A, B
    and D have at most three roots, so no tail is longer; only type B's
    short betas have twos. The tail of g+b is the tail of g less its first
    term, so every gamma a plan entry reads comes later in the plan, if at
    all: the action updates one vector in place, twos first.
    """
    chains = []
    for brackets in structure_table(kind, n).by_index:
        twos, ones, reads = [], [], 0
        for g in sorted(brackets):
            k1, p = brackets[g]
            hit = brackets.get(p)
            if hit is None:
                ones.append((g, p, -k1))
                reads |= 1 << p
            else:
                k2, q = hit
                twos.append((g, p, -k1, q, k1 * k2))
                reads |= 1 << p | 1 << q
        chains.append((tuple(twos), tuple(ones), reads))
    return tuple(chains)


_HALF = Fraction(1, 2)


def _act(system: RootSystem, letters, vec, den: int):
    """Apply the letters (beta, t), last first, to the values vec / den; return (vec, den).

    vec is indexed by canonical position and den is a positive int. The loop
    only adds, multiplies and tests for zero, so parameters and entries may
    be ints, Fractions or Polynomials; an orbit chart runs it with its
    letters' parameters as variables. A second-order term y (d2 / 2) t^2
    (type B only) takes z = y d2 t^2 and adds z >> 1 when z is an even int.
    When z is an odd int, the half is real: the whole vector and den are
    doubled and z is added as it is, so integral parameters keep an int
    vector in ints. Any other z (a Fraction or a Polynomial) adds z * 1/2,
    so a Polynomial vector stays over 1.

    Every letter is validated, but the bitmask live of vec's nonzero
    positions skips, before its parameter is read, each letter whose plan
    reads none of them (see ``_ad_chains``). Each write sets its bit; a bit
    left set when an entry cancels to zero only lets a letter through that
    then adds nothing. The first letter that moves vec updates a copy of it
    in place, in its plan's order; vec itself comes back, unchanged, when
    no letter moves it.
    """
    index = system._index
    chains = _ad_chains(system.kind, system.n)
    live = 0
    for k, v in enumerate(vec):
        if v:
            live |= 1 << k
    start = vec
    for beta, t in reversed(letters):
        b = index.get(beta)
        if b is None:
            system.index_of(beta)  # raises InvalidRootError
        twos, ones, reads = chains[b]
        if not reads & live:
            continue
        if type(t) is Fraction:
            if t.denominator == 1:
                t = t.numerator
                if not t:
                    continue
        elif not t:
            continue
        if vec is start:
            vec = list(vec)
        if twos:
            tt = t * t
            for g, p, c, q, d2 in twos:
                x, y = vec[p], vec[q]
                if x:
                    vec[g] += x * c * t
                    live |= 1 << g
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
                    live |= 1 << g
        for g, p, c in ones:
            x = vec[p]
            if x:
                vec[g] += x * c * t
                live |= 1 << g
    return vec, den


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
    vec, den = _act(f.system, letters, f.nums, f.den)
    return f if vec is f.nums else _from_vector(f.system, vec, den)


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


def _skew_rows(system: RootSystem, nums: tuple[int, ...]) -> list[dict[int, int]]:
    """The skew form of a functional with numerators nums, times its den, as sparse rows {b: entry}.

    [e_a, e_b] = c e_g gives the integer entry c * nums[g]; scaling all
    rows alike leaves rank and kernel as they are.
    """
    by_index = structure_table(system.kind, system.n).by_index
    return [{b: c * nums[g] for b, (c, g) in brackets.items() if nums[g]}
            for brackets in by_index]


def skew_form(f: Functional) -> SkewForm:
    columns = range(len(f.system.roots))
    return SkewForm(f.system, tuple(tuple(Fraction(row.get(b, 0), f.den) for b in columns)
                                    for row in _skew_rows(f.system, f.nums)))


# (system, numerators, reduced form) of the last functional reduced.
_last_reduced: tuple = (None, None, None)


def _reduced_skew(f: Functional) -> dict[int, dict[int, int]]:
    """The reduced form over Q of f's skew rows, which callers only read.

    One slot keeps the last form, keyed on f's system and its numerators,
    the ints the rows are built from, so a miss costs one compare of int
    tuples and f/2 shares f's entry. It hits when the dimension and the
    radical of one functional are asked back to back. The slot is replaced
    by one assignment, so concurrent callers can at worst miss.
    """
    global _last_reduced
    system, kept, echelon = _last_reduced
    if system is f.system and kept == f.nums:
        return echelon
    echelon = _reduced(_skew_rows(f.system, f.nums))
    _last_reduced = (f.system, f.nums, echelon)
    return echelon


def orbit_dimension(f: Functional) -> int:
    """Dimension of the coadjoint orbit through f: the exact rank of its skew form."""
    r = len(_reduced_skew(f))
    if r % 2 != 0:
        raise OddRankError(f"skew form has odd rank {r}")
    return r


def radical_basis(f: Functional) -> list[tuple[Fraction, ...]]:
    """Exact basis of the radical {x : f([x, y]) = 0 for all y}.

    Vectors are tuples of Fractions over the canonical root order, one for
    each free column of the reduced skew form, with 1 there and 0 at the
    other free columns; their count is len(roots) - orbit_dimension(f).
    """
    return _kernel(_reduced_skew(f), len(f.system.roots))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def functional_to_json(f: Functional) -> dict:
    return {
        "kind": f.system.kind.value,
        "n": f.system.n,
        "values": {str(r): str(v) for r, v in f.values.items()},
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


def root_rationals_from_json(raw: Mapping) -> dict[PositiveRoot, Fraction]:
    """The root -> rational map of a JSON object; two keys naming one root raise ValueError."""
    names: dict[PositiveRoot, str] = {}
    values = {}
    for name, v in raw.items():
        root = parse_root(name)
        if root in names:
            raise ValueError(f"keys {_echo(names[root])} and {_echo(name)} "
                             f"name the same root {_echo(root)}")
        names[root] = name
        values[root] = rational_from_json(name, v)
    return values


def functional_from_json(data: Mapping) -> Functional:
    try:
        system = get_system(data["kind"], int_from_json("n", data["n"]))
        raw = object_from_json("values", data["values"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed functional object: {exc}") from None
    return functional(system, root_rationals_from_json(raw))


def word_to_json(word: GroupWord) -> list:
    return [[str(root), str(t)] for root, t in word.letters]


def word_from_json(data: Iterable) -> GroupWord:
    return group_word((parse_root(name), rational_from_json(name, t)) for name, t in data)
