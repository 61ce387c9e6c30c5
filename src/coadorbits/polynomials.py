"""Sparse polynomials in position-indexed variables with exact rational coefficients.

Variable k is the root at canonical position k of its system (RootSystem.roots);
the polynomial itself never decodes positions. A monomial is a sorted tuple of
positions (with repetition for powers); the zero coefficient is never stored.
This is all the chart machinery needs: sums, products, exact evaluation. No
operation mutates an operand, so adding 0 or multiplying by 1 returns the
operand itself, and the terms are a read-only copy of the mapping given.
Coefficients are stored as Fractions. Evaluation runs over the integers:
each polynomial caches, on first use, its integer form, the coefficients
times the lcm L of their denominators, each term with the power of a common
value denominator it lacks below the degree K, so at values H / e it
evaluates to the integer ratio L e^K P(H / e) / (L e^K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

from .functionals import _frac

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class Polynomial:
    terms: Mapping[Monomial, Fraction]

    def __post_init__(self):
        # A read-only copy: polynomials are shared (the chart cache hands the
        # same ones to every chart), and the cached integer form must stay true.
        object.__setattr__(self, "terms", MappingProxyType(dict(self.terms)))

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial({})

    @staticmethod
    def const(c) -> "Polynomial":
        c = _frac(c)
        return Polynomial({(): c} if c else {})

    @staticmethod
    def var(k: int) -> "Polynomial":
        """The variable at position k, a non-negative int; anything else raises ValueError."""
        if type(k) is not int:
            raise ValueError(f"a variable is a position, an int; got a {type(k).__name__}")
        if k < 0:
            raise ValueError("a variable is a position, a non-negative int; got a negative int")
        return Polynomial({(k,): Fraction(1)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "Polynomial | Fraction | int") -> "Polynomial":
        if not isinstance(other, Polynomial):
            if not other:
                return self
            other = Polynomial.const(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = terms.get(mono, 0) + c
            if s:
                terms[mono] = s
            else:
                terms.pop(mono, None)
        return Polynomial(terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({mono: -c for mono, c in self.terms.items()})

    def __sub__(self, other: "Polynomial | Fraction | int") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.const(other)
        return self + (-other)

    def __mul__(self, other: "Polynomial | Fraction | int") -> "Polynomial":
        if not isinstance(other, Polynomial):
            # Fraction * int is a Fraction, so an int scalar (not a bool) needs no
            # conversion; the type test comes first, as isinstance against the
            # Fraction ABC is slow for ints.
            c = other if type(other) is int or isinstance(other, Fraction) else _frac(other)
            if c == 1:
                return self
            if not c:
                return Polynomial.zero()
            return Polynomial({mono: v * c for mono, v in self.terms.items()})
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                s = terms.get(mono, 0) + c1 * c2
                if s:
                    terms[mono] = s
                else:
                    terms.pop(mono, None)
        return Polynomial(terms)

    __rmul__ = __mul__

    @cached_property
    def _integer_form(self) -> tuple[int, int, tuple[tuple[int, Monomial, int], ...]]:
        """(L, K, terms): L the lcm of the coefficient denominators, K the degree.

        Each term is (L * coef, monomial, K - deg), integers throughout. The
        zero polynomial has L = 1 and K = 0.
        """
        scale = math.lcm(*[c.denominator for c in self.terms.values()])
        degree = max(map(len, self.terms), default=0)
        terms = tuple((c.numerator * (scale // c.denominator), mono, degree - len(mono))
                      for mono, c in self.terms.items())
        return scale, degree, terms

    def _integer_ratio(self, values: Sequence[int], e: int) -> tuple[int, int]:
        """P(values / e) as (L e^K P(values / e), L e^K), for int values and a nonzero int e."""
        scale, degree, terms = self._integer_form
        total = 0
        for coef, mono, gap in terms:
            prod = coef
            for k in mono:
                prod *= values[k]
            total += prod * e ** gap if gap else prod
        return total, scale * e ** degree

    def evaluate(self, values: Sequence[Fraction | int]) -> Fraction:
        """The exact value at ``values`` (indexed by position), always a Fraction.

        The values are brought to one common denominator e and the integer
        form is evaluated on their numerators.
        """
        e = math.lcm(*[v.denominator for v in values])
        ints = [v.numerator * (e // v.denominator) for v in values]
        return Fraction(*self._integer_ratio(ints, e))

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in a stable display order: by degree, then positions."""
        return sorted(self.terms.items(), key=lambda item: (len(item[0]), item[0]))
