"""Functionals on the nilpotent algebras and the coadjoint action.

A functional f is stored as int numerators by canonical root position over
one denominator, in lowest terms, with its support: a bitmask that covers
every nonzero position, tracked by whatever built f, so no caller rescans
the numerators for it. Its coadjoint translates g.f are computed from the
terminating exponential series of the nilpotent adjoint action, and the
orbit through f has exact dimension equal to the rank of the skew form
(x, y) -> f([x, y]).

Both the action and the skew form read the bracket table by canonical
position (``BracketTable.by_index``). The action reads it through cached
plans keyed by the letter's root (``_ad_chains``): the bitmask of the
positions the letter's plan reads, and the gammas it moves, two-term tails
first, then the one-term tails split by their +/-1 structure constant, so
each costs one multiply. The action starts from f's support; a letter whose
mask meets none of the live positions moves nothing and costs one lookup;
the first letter that gets through updates a copy of f's numerators in
place, over f's denominator, which type B's second-order halves double only
where a half is real. f itself comes back when no letter moves it, as long
as its support is exact: a bit left set where an entry cancelled to 0 can
let a letter through that reads only zeros, and then a copy equal to f
comes back. The skew rows are sparse int rows over f's numerators, with
their rows and columns in flag order: by height, highest first, ties in
canonical order, from a cached plan per system (``_flag_plan``), the
bracket table relabelled once. ``skew_form`` reads them back over f's
denominator in canonical order. ``_echelon_form``, an ``lru_cache`` of one
entry keyed on the system and the numerators, keeps the last forward
echelon form of those rows (``linalg._forward``); ``orbit_dimension``
counts its pivots, and only ``radical_basis`` reduces it above its pivots,
reads the kernel off the reduced rows, one Fraction per entry, and moves
each vector back to canonical positions. So asking both of one functional
back to back eliminates it forward once. perfbench's orbit-rank checks ask
both; the package's callers ask the dimension alone, which never reduces
above. In flag order the forward form's entries stay smaller and the
reduced kernel has about half the entries it has in canonical order; the
pivot columns are the orbit's jump positions, the same at every point of
the orbit, and S(alpha) at c e*_alpha.
``functional`` and the action both write their result through
``_from_vector``, the one canonicaliser, which reads denominators only when
its first gcd meets a Fraction; ``functional`` hands it ints for integral
values and Fractions for the others. Each hands it the support too: the
positions ``functional`` wrote, and the action's final live mask.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Mapping

from .linalg import _forward, _kernel, _reduce_above
from .roots import (
    PositiveRoot,
    RootSystem,
    RootSystemKind,
    _echo,
    _not_a_system,
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


def _int_or_fraction(t: Rational) -> int | Fraction:
    """t in canonical form: an int when t is integral, else a Fraction.

    Group words store their parameters so, and ``functional`` writes its
    values so. Floats, bools and everything else ``_frac`` rejects raise
    ValueError.
    """
    if type(t) is int:
        return t
    t = _frac(t)
    return t.numerator if t.denominator == 1 else t


@dataclass(frozen=True, slots=True)
class Functional:
    """Element of the dual space: f(e_root) is nums[system.index_of(root)] / den.

    The form is canonical, den > 0 and gcd(den, *nums) == 1 (so den == 1 for
    zero), and equality of the dataclass is equality of functionals. Build
    instances with ``functional``, ``e_star`` or the action; the constructor
    takes its fields in that form only: a den that is not a positive int,
    nums that are not a tuple of one int per root, a bool among them, or a
    common factor raise ValueError, and a system that is not a RootSystem
    raises InvalidRootError. Instances are immutable and hashable.

    ``support`` is a bitmask that covers every nonzero position: bit k is
    set wherever nums[k] != 0, and may stay set where a value cancelled to
    0. It is not part of the value, so equality, hash and repr ignore it.
    The constructor scans nums for it; ``functional``, ``e_star`` and the
    action hand ``_functional`` the mask they tracked, and the action
    starts from it.
    """

    system: RootSystem
    den: int
    nums: tuple[int, ...]
    support: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        system, den, nums = self.system, self.den, self.nums
        if not isinstance(system, RootSystem):
            raise _not_a_system(system)
        size = len(system.roots)
        if type(den) is not int or den <= 0:
            raise ValueError(f"den must be a positive int, got {_echo(den)}")
        if type(nums) is not tuple or len(nums) != size:
            raise ValueError(f"nums must be a tuple of {size} ints, got {_echo(nums)}")
        support = 0
        for k, v in enumerate(nums):
            if type(v) is not int:
                raise ValueError(f"nums[{k}] must be an int, got {_echo(v)}")
            if v:
                support |= 1 << k
        g = math.gcd(den, *nums)
        if g != 1:
            raise ValueError(f"den and nums must be coprime, but share the factor {_echo(g)}")
        object.__setattr__(self, "support", support)

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
                            self.den * c.denominator, self.support)

    def __str__(self) -> str:
        return " + ".join(f"{v}*e*[{r}]" for r, v in self.values.items()) or "0"


# Each field's slot setter, which _functional calls in place of the scanning constructor.
_set_system, _set_den, _set_nums, _set_support = (
    Functional.__dict__[name].__set__ for name in ("system", "den", "nums", "support"))


def _functional(system: RootSystem, den: int, nums: tuple[int, ...], support: int) -> Functional:
    """The Functional nums / den, canonical already, with a support that covers nums."""
    f = object.__new__(Functional)
    _set_system(f, system)
    _set_den(f, den)
    _set_nums(f, nums)
    _set_support(f, support)
    return f


def _from_vector(system: RootSystem, vec: list, den: int, support: int) -> Functional:
    """vec / den in lowest terms, for int or Fraction entries and a positive int den.

    support must cover vec's nonzero positions; it is stored as it is, since
    neither scaling by the lcm nor dividing by the gcd moves a zero.
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
    return _functional(system, den, tuple(vec), support)


def functional(system: RootSystem, values: Mapping[PositiveRoot, Rational]) -> Functional:
    """Build a functional from a root -> rational map, validating the roots and the values.

    Integral values are written as ints and the others as Fractions, and
    ``_from_vector`` brings the vector over one denominator, so integral
    values alone take its gcd-first exit; each value is checked before its
    root. The support is the positions written.
    """
    index_of = system.index_of
    vec: list = [0] * len(system.roots)
    support = 0
    for root, v in values.items():
        v = _int_or_fraction(v)
        k = index_of(root)
        support |= 1 << k
        vec[k] = v
    return _from_vector(system, vec, 1, support)


def zero_functional(system: RootSystem) -> Functional:
    return _functional(system, 1, (0,) * len(system.roots), 0)


def e_star(system: RootSystem, alpha: PositiveRoot, c: Rational = 1) -> Functional:
    """The dual basis vector c * e*_alpha, with support alpha's bit."""
    try:
        k = system.index_of(alpha)
    except AttributeError:
        raise _not_a_system(system) from None
    c = _frac(c)
    nums = [0] * len(system.roots)
    nums[k] = c.numerator
    return _functional(system, c.denominator, tuple(nums), 1 << k)


@dataclass(frozen=True, init=False, repr=False)
class GroupWord:
    """A product of exponentials exp(t_1 e_{b_1}) ... exp(t_m e_{b_m}).

    The letters are listed in the order the factors are written, so word
    concatenation is group multiplication. The one stored field holds each
    parameter in canonical form (``_int_or_fraction``), an int when it is
    integral and a Fraction otherwise, so 3, Fraction(6, 2) and "3" give
    equal words with equal hashes, and the action multiplies plain ints.
    ``letters`` is the public view, built on demand: every parameter there
    is a Fraction.
    """

    _letters: tuple[tuple[PositiveRoot, int | Fraction], ...]

    def __init__(self, letters: Iterable[tuple[PositiveRoot, Rational]] = ()):
        object.__setattr__(self, "_letters",
                           tuple((root, _int_or_fraction(t)) for root, t in letters))

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


def _heights(by_index) -> list[int]:
    """The height of each canonical position, read off a bracket table's ``by_index``.

    A position that no bracket lands on is simple, of height 1; the others
    take height(a) + height(b) from any bracket [e_a, e_b] = c e_g that
    lands on them, once both are known.
    """
    sources = {g: (a, b) for a, row in enumerate(by_index) for b, (_, g) in row.items()}
    height = [0 if g in sources else 1 for g in range(len(by_index))]
    todo = list(sources)
    while todo:
        later = []
        for g in todo:
            a, b = sources[g]
            if height[a] and height[b]:
                height[g] = height[a] + height[b]
            else:
                later.append(g)
        todo = later
    return height


@lru_cache(maxsize=None)
def _flag_plan(kind: RootSystemKind, n: int):
    """The skew form's rows and columns in flag order: (column, canonical, rows).

    The flag order lists the positions by height, highest first, with ties
    in canonical order (the Pukanszky/Vergne flag). A bracket [e_a, e_p] =
    c e_g lands higher than p, so g comes before p, and the span of the
    first k positions is an ideal for every k. column[p] is the flag index
    of canonical position p, and canonical(v) is the tuple of flag-indexed
    entries v over canonical positions, v[column[p]] at p: an
    ``itemgetter``, or ``tuple`` when the order is the identity (as it is
    for one position, where an itemgetter would return the entry alone).
    rows[column[a]] holds (column[b], c, g) for each [e_a, e_b] = c e_g:
    the rows of ``by_index`` relabelled to flag order, with g left
    canonical, the numerator it reads.
    """
    by_index = structure_table(kind, n).by_index
    height = _heights(by_index)
    order = sorted(range(len(height)), key=height.__getitem__, reverse=True)
    column = tuple(sorted(range(len(order)), key=order.__getitem__))
    canonical = tuple if column == tuple(range(len(column))) else itemgetter(*column)
    rows = tuple(tuple((column[b], c, g) for b, (c, g) in by_index[a].items()) for a in order)
    return column, canonical, rows


_HALF = Fraction(1, 2)


def _act(system: RootSystem, letters, vec, den: int, live: int):
    """Apply the letters (beta, t), last first, to vec / den; return (vec, den, live).

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

    Every letter is validated, but the bitmask live, which must cover vec's
    nonzero positions, skips, before its parameter is read, each letter
    whose plan reads none of them (see ``_ad_chains``), and so does a zero
    parameter. A functional passes its support as live; a chart's Polynomial
    start vector passes the one bit of its alpha. Each write sets its bit;
    a bit left set when an entry cancels to zero lets a letter through that
    then copies vec and adds nothing. The live returned covers the result,
    the support it is stored with. The first letter that gets through
    updates a copy of vec in place, in its plan's order; vec itself comes
    back, unchanged, when no letter gets through, which, when live is exact,
    is when no letter moves it.
    """
    reads, plans = _ad_chains(system.kind, system.n)
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
    return vec, den, live


def coadjoint_apply_one(beta: PositiveRoot, t: Rational, f: Functional) -> Functional:
    """Apply exp(t e_beta) to f under the coadjoint action, exactly.

    The new value at e_gamma is f(exp(ad(-t e_beta)) e_gamma); the series
    stops on its own once the bracket chain dies.
    """
    return _act_on(((beta, _int_or_fraction(t)),), f)


def coadjoint_apply(word: GroupWord, f: Functional) -> Functional:
    """Apply a product of exponentials to f.

    Composition follows the group: for words w1, w2 and their concatenation
    w1 + w2, apply(w1 + w2, f) == apply(w1, apply(w2, f)).
    """
    return _act_on(word._letters, f)


def _act_on(letters, f: Functional) -> Functional:
    vec, den, live = _act(f.system, letters, f.nums, f.den, f.support)
    return f if vec is f.nums else _from_vector(f.system, vec, den, live)


def concat_words(*words: GroupWord) -> GroupWord:
    return GroupWord(letter for w in words for letter in w._letters)


@dataclass(frozen=True)
class SkewForm:
    """The matrix M[a][b] = f([e_a, e_b]) over the canonical root order."""

    system: RootSystem
    rows: tuple[tuple[Fraction, ...], ...]


def _skew_rows(system: RootSystem, nums: tuple[int, ...]) -> list[dict[int, int]]:
    """The skew form of a functional with numerators nums, times its den, in flag order.

    Row k and column l are the positions at flag indices k and l
    (``_flag_plan``); [e_a, e_b] = c e_g gives the integer entry
    c * nums[g], and each row is sparse, {l: entry}. Scaling all rows alike
    leaves rank and kernel as they are.
    """
    rows = _flag_plan(system.kind, system.n)[2]
    return [{l: c * nums[g] for l, c, g in row if nums[g]} for row in rows]


def skew_form(f: Functional) -> SkewForm:
    column = _flag_plan(f.system.kind, f.system.n)[0]
    rows = _skew_rows(f.system, f.nums)
    return SkewForm(f.system, tuple(tuple(Fraction(rows[k].get(l, 0), f.den) for l in column)
                                    for k in column))


@lru_cache(maxsize=1)
def _echelon_form(system: RootSystem, nums: tuple[int, ...]) -> dict[int, dict[int, int]]:
    """The forward echelon form of the skew rows of numerators nums, which callers only read.

    Its pivot columns are flag columns. One entry, keyed on the system and
    the numerators, the ints the rows are built from, so f/2 shares f's
    entry. It hits when the dimension and the radical of one functional are
    asked back to back.
    """
    return _forward(_skew_rows(system, nums))


def orbit_dimension(f: Functional) -> int:
    """Dimension of the coadjoint orbit through f: the exact rank of its skew form.

    The rank is the pivot count of the cached echelon form; nothing is
    reduced above the pivots.
    """
    r = len(_echelon_form(f.system, f.nums))
    if r % 2 != 0:
        raise OddRankError(f"skew form has odd rank {r}")
    return r


def radical_basis(f: Functional) -> list[tuple[Fraction, ...]]:
    """Exact basis of the radical {x : f([x, y]) = 0 for all y}.

    The cached echelon form is reduced above its pivots, leaving the cache
    as it was, and the kernel is read off the reduced rows. That is the
    reduced basis in flag order (``_flag_plan``): one vector for each free
    flag column, in flag order, with 1 there and 0 at the other free
    columns. Each is returned as a tuple of Fractions over the canonical
    root order; their count is len(roots) - orbit_dimension(f).
    """
    canonical = _flag_plan(f.system.kind, f.system.n)[1]
    return list(map(canonical, _kernel(_reduce_above(_echelon_form(f.system, f.nums)),
                                       len(f.system.roots))))


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
