"""Sparse polynomials in position-indexed variables with exact rational coefficients.

Variable k is the root at canonical position k of its system (RootSystem.roots);
the polynomial itself never decodes positions. A monomial is a sorted tuple of
positions (with repetition for powers); the zero coefficient is never stored.
This is all the chart machinery needs: sums, products, exact evaluation. No
operation mutates an operand, so adding 0 or multiplying by 1 returns the
operand itself. Coefficients are stored as Fractions; evaluation multiplies
the integral ones, and integral values, as ints, and returns a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .functionals import _frac

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class Polynomial:
    terms: dict[Monomial, Fraction]

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

    def evaluate(self, values: Sequence[Fraction | int]) -> Fraction:
        """The exact value at ``values`` (indexed by position), always a Fraction.

        Integral coefficients travel as ints, so over integral values no
        Fraction is built until the result.
        """
        total = 0
        for mono, c in self.terms.items():
            prod = c.numerator if c.denominator == 1 else c
            for v in mono:
                prod *= values[v]
            total += prod
        return Fraction(total) if type(total) is int else total

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in a stable display order: by degree, then positions."""
        return sorted(self.terms.items(), key=lambda item: (len(item[0]), item[0]))
