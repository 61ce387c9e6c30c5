"""Functionals on the nilpotent algebras and the coadjoint action.

A functional f is stored as int numerators by canonical root position over
one denominator, in lowest terms; its coadjoint translates g.f are computed
from the terminating exponential series of the nilpotent adjoint action,
and the orbit through f has exact dimension equal to the rank of the skew
form (x, y) -> f([x, y]).

Both the action and the skew form read the bracket table by canonical
position (``BracketTable.by_index``). The action reads it through cached
plans keyed by the letter's root (``_ad_chains``): the bitmask of the
positions the letter's plan reads, and the gammas it moves, two-term tails
first, then the one-term tails split by their +/-1 structure constant, so
each costs one multiply. A letter whose mask meets none of the nonzero
positions moves nothing and costs one lookup; the first letter that moves
f updates a copy of its numerators in place, over f's denominator, which
type B's second-order halves double only where a half is real, and f
itself comes back when no letter moves it. The skew rows are sparse int
rows over f's numerators, which ``skew_form`` reads back over f's
denominator; ``orbit_dimension`` counts the pivots of their
integer elimination in ``linalg``, and ``radical_basis`` reads the kernel
straight off the reduced rows, one Fraction per entry; ``_reduced_form``,
an ``lru_cache`` of one entry keyed on the system and the numerators,
keeps the last reduced form, so asking both of one functional back to back
reduces it once. perfbench's orbit-rank checks ask both; the package's
callers ask the dimension alone. ``functional`` and the action both write
their result through ``_from_vector``, the one canonicaliser, which reads
denominators only when its first gcd meets a Fraction; ``functional``
hands it ints.
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


class StructureConstantError(RuntimeError):
    """A bracket the action's plans read has a structure constant other than 1 or -1.

    An internal consistency check: every structure constant of A, B and D
    is 1 or -1 (CONVENTIONS.md), and a one-term plan entry adds or
    subtracts x t without multiplying by it.
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
    """vec / den in lowest terms, for int or Fraction entries and a positive int den.

    ``math.gcd`` takes ints only, so on an all-int vector its one call both
    checks the entries and finds the common factor. A Fraction entry makes it
    raise TypeError; only then are the denominators read, their lcm scaled
    into vec and den, and the gcd taken again.
    """
    try:
        g = math.gcd(den, *vec)
    except TypeError:
        scale = math.lcm(*[v.denominator for v in vec if type(v) is not int])
        vec = [v * scale if type(v) is int else v.numerator * (scale // v.denominator)
               for v in vec]
        den *= scale
        g = math.gcd(den, *vec)
    if g != 1:
        den //= g
        vec = [v // g for v in vec]
    return Functional(system, den, tuple(vec))


def functional(system: RootSystem, values: Mapping[PositiveRoot, Rational]) -> Functional:
    """Build a functional from a root -> rational map, validating the roots and the values.

    Integral values are written as ints and the others as numerators over
    the lcm of their denominators, so ``_from_vector`` gets an int vector
    and takes its gcd-first exit; each value is checked before its root.
    """
    index_of = system.index_of
    vec: list = [0] * len(system.roots)
    fractions = []
    for root, v in values.items():
        if type(v) is not int:
            v, d = _frac(v).as_integer_ratio()
            if d != 1:
                fractions.append((index_of(root), v, d))
                continue
        vec[index_of(root)] = v
    den = 1
    if fractions:
        den = math.lcm(*[d for _, _, d in fractions])
        vec = [v * den for v in vec]
        for k, v, d in fractions:
            vec[k] = v * (den // d)
    return _from_vector(system, vec, den)


def zero_functional(system: RootSystem) -> Functional:
    return Functional(system, 1, (0,) * len(system.roots))


def e_star(system: RootSystem, alpha: PositiveRoot, c: Rational = 1) -> Functional:
    """The dual basis vector c * e*_alpha."""
    k = system.index_of(alpha)
    c = _frac(c)
    nums = [0] * len(system.roots)
    nums[k] = c.numerator
    return Functional(system, c.denominator, tuple(nums))


def _word_parameter(t: Rational) -> int | Fraction:
    """t in a group word's canonical form: an int when t is integral, else a Fraction.

    Floats, bools and everything else ``_frac`` rejects raise ValueError.
    """
    if type(t) is int:
        return t
    t = _frac(t)
    return t.numerator if t.denominator == 1 else t


@dataclass(frozen=True, init=False, repr=False)
class GroupWord:
    """A product of exponentials exp(t_1 e_{b_1}) ... exp(t_m e_{b_m}).

    The letters are listed in the order the factors are written, so word
    concatenation is group multiplication. The one stored field holds each
    parameter in canonical form (``_word_parameter``), an int when it is
    integral and a Fraction otherwise, so 3, Fraction(6, 2) and "3" give
    equal words with equal hashes, and the action multiplies plain ints.
    ``letters`` is the public view, built on demand: every parameter there
    is a Fraction.
    """

    _letters: tuple[tuple[PositiveRoot, int | Fraction], ...]

    def __init__(self, letters: Iterable[tuple[PositiveRoot, Rational]] = ()):
        object.__setattr__(self, "_letters",
                           tuple((root, _word_parameter(t)) for root, t in letters))

    @property
    def letters(self) -> tuple[tuple[PositiveRoot, Fraction], ...]:
        """The (root, parameter) pairs in written order, each parameter a Fraction."""
        return tuple((root, Fraction(t)) for root, t in self._letters)

    def __len__(self) -> int:
        return len(self._letters)

    def __repr__(self) -> str:
        return f"GroupWord(letters={self.letters!r})"


@lru_cache(maxsize=None)
def _ad_chains(kind: RootSystemKind, n: int):
    """Per root beta: the plan of exp(ad(-t e_beta)) on the gammas it moves, in ints.

    Returns (reads, plans), two dicts keyed by root whose entries hold
    canonical positions. reads[beta] is the bitmask of the positions beta's
    plan reads, so a letter whose reads meet no nonzero value moves nothing and
    costs one lookup. plans[beta] is (twos, plus, minus). twos holds
    (g, bit, p, c, q, d2) for each gamma whose tail has two terms,
    c t e_p + (d2 / 2) t^2 e_q with p = g+b and q = g+2b; plus and minus
    hold (g, bit, p) for each gamma with the single term +t e_p or -t e_p.
    bit is 1 << g, the bit the entry sets when it writes. With k1 and k2
    the structure constants of the string g, g+b, g+2b, c is -k1 and d2 is
    k1 k2, the numerator over 2! of the second-order coefficient; a
    constant other than +/-1 raises StructureConstantError. Root strings in
    A, B and D have at most three roots, so no tail is longer; only type B's
    short betas have twos, and there d2 is -1.

    The action updates one vector in place, twos first, and the order is
    exact: an entry reads g+b and perhaps g+2b, and a position is written
    only when it has a tail of its own. A two-term entry's p has a one-term
    tail and its q none, so twos read nothing that twos write, and a
    one-term entry's p has no tail, so it reads nothing any entry writes.
    Within twos, plus and minus, entries are in gamma order.
    """
    table = structure_table(kind, n)
    roots = table.system.roots
    reads, plans = {}, {}
    for beta, brackets in zip(roots, table.by_index):
        twos, plus, minus, mask = [], [], [], 0
        for g in sorted(brackets):
            k1, p = brackets[g]
            if k1 not in (1, -1):
                raise StructureConstantError(
                    f"[e_{beta}, e_{roots[g]}] has structure constant {k1}, not +/-1")
            hit = brackets.get(p)
            if hit is None:
                (minus if k1 == 1 else plus).append((g, 1 << g, p))
                mask |= 1 << p
            else:
                k2, q = hit  # p is a key of brackets too, so its k2 is checked there
                twos.append((g, 1 << g, p, -k1, q, k1 * k2))
                mask |= 1 << p | 1 << q
        reads[beta] = mask
        plans[beta] = (tuple(twos), tuple(plus), tuple(minus))
    return reads, plans


_HALF = Fraction(1, 2)


def _act(system: RootSystem, letters, vec, den: int):
    """Apply the letters (beta, t), last first, to the values vec / den; return (vec, den).

    vec is indexed by canonical position and den is a positive int. The loop
    only adds, subtracts, multiplies and tests for zero, so parameters and
    entries may be ints, Fractions or Polynomials; an orbit chart runs it
    with its letters' parameters as variables, and a group word passes its
    integral parameters as ints (see ``GroupWord``), so an int vector stays
    in ints. A one-term entry costs one multiply, x t, added or subtracted
    as its plan's sign group says. A second-order term y (d2 / 2) t^2
    (type B only) takes z = y d2 t^2 and adds z >> 1 when z is an even int.
    When z is an odd int, the half is real: the whole vector and den are
    doubled and z is added as it is. Any other z (a Fraction or a
    Polynomial) adds z * 1/2, so a Polynomial vector stays over 1.

    Every letter is validated, but the bitmask live of vec's nonzero
    positions skips, before its parameter is read, each letter whose plan
    reads none of them (see ``_ad_chains``), and so does a zero parameter.
    Each write sets its bit; a bit left set when an entry cancels to zero
    only lets a letter through that then adds nothing. The first letter
    that moves vec updates a copy of it in place, in its plan's order; vec
    itself comes back, unchanged, when no letter moves it.
    """
    reads, plans = _ad_chains(system.kind, system.n)
    live = 0
    for k, v in enumerate(vec):
        if v:
            live |= 1 << k
    start = vec
    for beta, t in reversed(letters):
        mask = reads.get(beta)
        if mask is None:
            system.index_of(beta)  # raises InvalidRootError
        if not mask & live or not t:
            continue
        if vec is start:
            vec = list(vec)
        twos, plus, minus = plans[beta]
        if twos:
            tt = t * t
            for g, bit, p, c, q, d2 in twos:
                x, y = vec[p], vec[q]
                if x:
                    vec[g] += x * c * t
                    live |= bit
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
                    live |= bit
        for g, bit, p in plus:
            x = vec[p]
            if x:
                vec[g] += x * t
                live |= bit
        for g, bit, p in minus:
            x = vec[p]
            if x:
                vec[g] -= x * t
                live |= bit
    return vec, den


def coadjoint_apply_one(beta: PositiveRoot, t: Rational, f: Functional) -> Functional:
    """Apply exp(t e_beta) to f under the coadjoint action, exactly.

    The new value at e_gamma is f(exp(ad(-t e_beta)) e_gamma); the series
    stops on its own once the bracket chain dies.
    """
    return _act_on(((beta, _word_parameter(t)),), f)


def coadjoint_apply(word: GroupWord, f: Functional) -> Functional:
    """Apply a product of exponentials to f.

    Composition follows the group: for words w1, w2 and their concatenation
    w1 + w2, apply(w1 + w2, f) == apply(w1, apply(w2, f)).
    """
    return _act_on(word._letters, f)


def _act_on(letters, f: Functional) -> Functional:
    vec, den = _act(f.system, letters, f.nums, f.den)
    return f if vec is f.nums else _from_vector(f.system, vec, den)


def concat_words(*words: GroupWord) -> GroupWord:
    return GroupWord(letter for w in words for letter in w._letters)


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


@lru_cache(maxsize=1)
def _reduced_form(system: RootSystem, nums: tuple[int, ...]) -> dict[int, dict[int, int]]:
    """The reduced form over Q of the skew rows of numerators nums, which callers only read.

    One entry, keyed on the system and the numerators, the ints the rows
    are built from, so f/2 shares f's entry. It hits when the dimension and
    the radical of one functional are asked back to back.
    """
    return _reduced(_skew_rows(system, nums))


def orbit_dimension(f: Functional) -> int:
    """Dimension of the coadjoint orbit through f: the exact rank of its skew form."""
    r = len(_reduced_form(f.system, f.nums))
    if r % 2 != 0:
        raise OddRankError(f"skew form has odd rank {r}")
    return r


def radical_basis(f: Functional) -> list[tuple[Fraction, ...]]:
    """Exact basis of the radical {x : f([x, y]) = 0 for all y}.

    Vectors are tuples of Fractions over the canonical root order, one for
    each free column of the reduced skew form, with 1 there and 0 at the
    other free columns; their count is len(roots) - orbit_dimension(f).
    """
    return _kernel(_reduced_form(f.system, f.nums), len(f.system.roots))


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
    # str of an int is str of the equal Fraction, so the stored form is written as it is.
    return [[str(root), str(t)] for root, t in word._letters]


def word_from_json(data: list) -> GroupWord:
    """The word of a JSON array of [root, rational] pairs, such as [["e1-e2", "-3/5"]].

    An object, a string or any other value, and an entry that is not a
    two-item array led by a string, raise ValueError naming it.
    """
    if not isinstance(data, list):
        raise ValueError(f"a group word must be a JSON array of [root, rational] pairs, "
                         f"got {_echo(data)}")
    letters = []
    for k, entry in enumerate(data):
        if not (isinstance(entry, list) and len(entry) == 2
                and isinstance(entry[0], str)):
            raise ValueError(f"entry {k} of a group word must be a [root, rational] pair, "
                             f"got {_echo(entry)}")
        name, t = entry
        letters.append((parse_root(name), rational_from_json(name, t)))
    return GroupWord(letters)
