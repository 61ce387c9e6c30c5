"""Functionals on the nilpotent algebras and the coadjoint action.

A functional f is stored sparsely by its values on the root-vector basis,
its coadjoint translates g.f are computed from the terminating exponential
series of the nilpotent adjoint action, and the orbit through f has exact
dimension equal to the rank of the skew form (x, y) -> f([x, y]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .linalg import kernel_basis, rank
from .roots import (
    PositiveRoot,
    RootSystem,
    RootSystemKind,
    get_system,
    parse_root,
    structure_table,
)

Rational = Fraction | int | str


def _frac(x: Rational) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


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

    def plus(self, other: "Functional") -> "Functional":
        if self.system != other.system:
            raise ValueError("cannot add functionals on different systems")
        vals = dict(self.values)
        for r, v in other.values.items():
            w = vals.get(r, Fraction(0)) + v
            if w:
                vals[r] = w
            else:
                vals.pop(r, None)
        return Functional(self.system, vals)

    def nonzero_roots(self) -> tuple[PositiveRoot, ...]:
        return tuple(r for r in self.system.roots if r in self.values)

    def is_zero(self) -> bool:
        return not self.values

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
    """Per (beta, gamma): the nonzero tail of exp(ad(-t e_beta)) e_gamma.

    Entries are (target, m, coef) meaning a contribution coef * (-t)^m at
    e_target, with coef carrying the iterated structure constants over m!.
    The chains terminate because ad is nilpotent.
    """
    table = structure_table(kind, n)
    chains: dict[tuple[PositiveRoot, PositiveRoot], tuple] = {}
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
                entries.append((cur, m, Fraction(c, math.factorial(m))))
            if entries:
                chains[(beta, gamma)] = tuple(entries)
    return chains


def coadjoint_apply_one(beta: PositiveRoot, t: Rational, f: Functional) -> Functional:
    """Apply exp(t e_beta) to f under the coadjoint action, exactly.

    The new value at e_gamma is f(exp(ad(-t e_beta)) e_gamma); the series
    stops on its own once the bracket chain dies.
    """
    system = f.system
    system.check_member(beta)
    t = _frac(t)
    if t == 0 or f.is_zero():
        return f
    chains = _ad_chains(system.kind, system.n)
    vals: dict[PositiveRoot, Fraction] = {}
    for gamma in system.roots:
        v = f.values.get(gamma, Fraction(0))
        for target, m, coef in chains.get((beta, gamma), ()):
            fv = f.values.get(target)
            if fv:
                v += fv * coef * (-t) ** m
        if v:
            vals[gamma] = v
    return Functional(system, vals)


def coadjoint_apply(word: GroupWord, f: Functional) -> Functional:
    """Apply a product of exponentials to f.

    Composition follows the group: for words w1, w2 and their concatenation
    w1 + w2, apply(w1 + w2, f) == apply(w1, apply(w2, f)).
    """
    for beta, t in reversed(word.letters):
        f = coadjoint_apply_one(beta, t, f)
    return f


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


def skew_form(f: Functional) -> SkewForm:
    system = f.system
    table = structure_table(system.kind, system.n)
    size = len(system.roots)
    rows = [[Fraction(0)] * size for _ in range(size)]
    for a, alpha in enumerate(system.roots):
        for b in range(a + 1, size):
            hit = table.get(alpha, system.roots[b])
            if hit is None:
                continue
            c, gamma = hit
            v = f.values.get(gamma)
            if v:
                rows[a][b] = c * v
                rows[b][a] = -c * v
    return SkewForm(system, tuple(tuple(row) for row in rows))


def orbit_dimension(f: Functional) -> int:
    """Dimension of the coadjoint orbit through f: the exact rank of its skew form."""
    r = rank(skew_form(f).rows)
    if r % 2 != 0:
        raise RuntimeError("skew form rank must be even")  # mathematically impossible
    return r


def radical_basis(f: Functional) -> list[tuple[Fraction, ...]]:
    """Exact basis of the radical {x : f([x, y]) = 0 for all y}.

    Vectors are coefficient tuples over the canonical root order; their
    count is len(roots) - orbit_dimension(f).
    """
    return kernel_basis(skew_form(f).rows)


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


def functional_from_json(data: Mapping) -> Functional:
    try:
        system = get_system(data["kind"], int(data["n"]))
        raw = dict(data["values"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed functional object: {exc}") from None
    values = {parse_root(name): Fraction(v) for name, v in raw.items()}
    return functional(system, values)


def word_to_json(word: GroupWord) -> list:
    return [[str(root), str(t)] for root, t in word.letters]


def word_from_json(data: Iterable) -> GroupWord:
    return group_word((parse_root(name), Fraction(t)) for name, t in data)
