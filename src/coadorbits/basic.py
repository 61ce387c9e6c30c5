"""Type-A basic subsets: basic sums, decomposition, derived sets, dimensions.

A basic subset of the type-A positive roots is a set D with alpha - beta
never a positive root for alpha, beta in D; equivalently the positions
(i, j) form a partial injection (no two share a first index, no two share a
second). Every functional lies in exactly one basic sum O_D(phi), and that
sum is a single coadjoint orbit precisely when D has no derived roots.
s(D) counts the union of the roots' singular sets, kept per root as a
bitmask over canonical positions. A chain of D is an index tuple
i_1 < ... < i_r; since D is a rook placement, its start and length fix it,
and special partners are sought among the chains of equal length.

The decomposition of an arbitrary functional reduces its strictly-upper
coefficient matrix F under the two-sided moves that preserve the basic sum:
a row may take multiples of the rows above it, a column multiples of the
columns to its right. Going down the rows, the rightmost nonzero entry of
each row is a pivot of D with phi its value; the moves then clear the rest
of its column and its row. Each row is held as integers over its own scale,
and a row move cross-multiplies, so the reduction divides nothing and makes
one Fraction per pivot. The generative round-trip suites in the oracle
module certify the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from .functionals import Functional, Rational, _frac, functional
from .orbits import singular_set
from .roots import DIFF, PositiveRoot, RootSystemKind, _echo, diff, get_system


class WrongKindError(ValueError):
    """Operation restricted to type-A functionals."""


class NotBasicError(ValueError):
    """The given roots do not form a basic subset."""


def _require_type_a(system) -> None:
    if system.kind is not RootSystemKind.A:
        raise WrongKindError(f"type A only, got kind {system.kind.value}")


# ---------------------------------------------------------------------------
# Basic subsets
# ---------------------------------------------------------------------------

def is_basic(roots: Iterable[PositiveRoot]) -> bool:
    """Whether the set of diff roots is a rook placement: no two share an i or a j."""
    roots = set(roots)
    for r in roots:
        if r.tag != DIFF:
            raise WrongKindError(f"basic subsets contain only difference roots, got {r}")
    return len({r.i for r in roots}) == len(roots) == len({r.j for r in roots})


@dataclass(frozen=True, slots=True)
class BasicSubset:
    """A basic subset of the type-A roots with parameter n: a rook placement in A_n.

    The constructor, and so ``dataclasses.replace``, checks the fields once,
    and the calculus below trusts them: an n that is no rank of A raises
    RankRangeError; roots that are not a tuple, or not distinct and in
    canonical order, raise ValueError; a root outside A_n raises
    InvalidRootError, and roots that share a first or a second index raise
    NotBasicError. ``basic_subset`` takes the roots in any order. Slotted,
    because a caller that keeps a whole scan keeps Bell(n) of them.
    """

    n: int
    roots: tuple[PositiveRoot, ...]

    def __post_init__(self):
        index_of = get_system(RootSystemKind.A, self.n).index_of
        roots = self.roots
        if type(roots) is not tuple:
            raise ValueError(f"roots must be a tuple of roots, got {_echo(roots)}")
        positions = [index_of(r) for r in roots]
        if positions != sorted(set(positions)):
            raise ValueError(f"roots must be distinct and in canonical order, "
                             f"got {[str(r) for r in roots]}")
        if not is_basic(roots):
            raise NotBasicError(f"{[str(r) for r in roots]} is not basic")

    def __str__(self) -> str:
        return "{" + ", ".join(str(r) for r in self.roots) + "}"


# Each field's slot setter, which _basic_subset calls in place of the checking constructor.
_set_n, _set_roots = (BasicSubset.__dict__[name].__set__ for name in ("n", "roots"))


def _basic_subset(n: int, roots: tuple[PositiveRoot, ...]) -> BasicSubset:
    """The BasicSubset of roots that are a rook placement of A_n in canonical order already."""
    subset = object.__new__(BasicSubset)
    _set_n(subset, n)
    _set_roots(subset, roots)
    return subset


def basic_subset(n: int, roots: Iterable[PositiveRoot]) -> BasicSubset:
    """The basic subset on the given roots, in any order; repeats count once."""
    return BasicSubset(n, tuple(sorted(set(roots),
                                       key=get_system(RootSystemKind.A, n).index_of)))


@dataclass(frozen=True)
class BasicMap:
    """A map phi from the roots of a basic subset to nonzero rationals."""

    subset: BasicSubset
    phi: dict[PositiveRoot, Fraction]


def basic_map(subset: BasicSubset, phi: Mapping[PositiveRoot, Rational]) -> BasicMap:
    if set(phi) != set(subset.roots):
        raise ValueError("phi must be defined exactly on the subset")
    vals = {}
    for root, v in phi.items():
        fv = _frac(v)
        if fv == 0:
            raise ValueError(f"phi({root}) must be nonzero")
        vals[root] = fv
    return BasicMap(subset, vals)


def basic_point(bmap: BasicMap) -> Functional:
    """The distinguished point sum phi(alpha) e*_alpha of the basic sum."""
    system = get_system(RootSystemKind.A, bmap.subset.n)
    return functional(system, dict(bmap.phi))


@lru_cache(maxsize=None)
def _positions(n: int) -> tuple[tuple[int, ...], ...]:
    """pos[i][j]: the position of e_i - e_j in the system's canonical roots, for i < j."""
    pos = [[-1] * (n + 1) for _ in range(n + 1)]
    for k, r in enumerate(get_system(RootSystemKind.A, n).roots):
        pos[r.i][r.j] = k
    return tuple(map(tuple, pos))


@lru_cache(maxsize=None)
def _singular_masks(n: int) -> dict[PositiveRoot, int]:
    """S(e_i - e_j) of each root of A_n as a bitmask over positions in the canonical roots.

    Read from ``singular_set``, so the bracket table stays the one definition
    of S(alpha); in type A it is {e_i - e_k, e_k - e_j : i < k < j}.
    """
    system = get_system(RootSystemKind.A, n)
    return {alpha: sum(1 << system.index_of(beta)
                       for beta in singular_set(system.kind, n, alpha).singular)
            for alpha in system.roots}


def _singular_mask(subset: BasicSubset) -> int:
    """The union of the singular sets of the subset's roots, as a position bitmask."""
    masks = _singular_masks(subset.n)
    union = 0
    for r in subset.roots:
        union |= masks[r]
    return union


def s_of(subset: BasicSubset) -> int:
    """s(D): the number of D-singular roots, the dimension of the basic sum."""
    return _singular_mask(subset).bit_count()


def enumerate_basic_subsets(n: int) -> Iterator[BasicSubset]:
    """Every basic subset exactly once (these are the partial injections i -> j, i < j).

    Row i either stays empty or takes a free column j > i, in that order; the
    rooks are collected as positions, so each subset holds the system's own
    root objects in canonical order.
    """
    roots = get_system(RootSystemKind.A, n).roots
    pos = _positions(n)

    def rec(i: int, used: int, acc: tuple[int, ...]) -> Iterator[BasicSubset]:
        if i == n:
            yield _basic_subset(n, tuple(roots[k] for k in sorted(acc)))
            return
        yield from rec(i + 1, used, acc)
        row = pos[i]
        for j in range(i + 1, n + 1):
            if not used >> j & 1:
                yield from rec(i + 1, used | 1 << j, acc + (row[j],))

    yield from rec(1, 0, ())


def _row_moves(n: int, i: int, used: int) -> Iterator[tuple[int, int]]:
    """(j, used after row i) for each way row i goes, in enumerate_basic_subsets's order.

    j is 0 when the row stays empty, else the free column j > i it takes.
    """
    yield 0, used
    for j in range(i + 1, n + 1):
        if not used >> j & 1:
            yield j, used | 1 << j


@lru_cache(maxsize=None)
def _completions(n: int, i: int, used: int) -> int:
    """How many ways rows i..n-1 complete, given the taken columns right of row i.

    Rows below i take only columns right of i + 1, so the state keeps just
    those bits: 376 states at n = 12. _completions(n, 1, 0) is Bell(n).
    """
    if i == n:
        return 1
    return sum(_completions(n, i + 1, taken >> (i + 2) << (i + 2))
               for _, taken in _row_moves(n, i, used))


def count_basic_subsets(n: int) -> int:
    """Bell(n), the number of basic subsets enumerate_basic_subsets(n) yields."""
    get_system(RootSystemKind.A, n)
    return _completions(n, 1, 0)


def nth_basic_subset(n: int, k: int) -> BasicSubset:
    """list(enumerate_basic_subsets(n))[k] for 0 <= k < Bell(n), without listing the others.

    Each row takes the first move whose completions reach past k, and k
    drops by the completions of the moves it passes. Any other k, or one
    that is not an int, raises IndexError.
    """
    if type(k) is not int or not 0 <= k < count_basic_subsets(n):
        raise IndexError(f"basic subset index {_echo(k)} out of range for n={n}")
    roots = get_system(RootSystemKind.A, n).roots
    pos = _positions(n)
    taken_roots = []
    used = 0
    for i in range(1, n):
        for j, taken in _row_moves(n, i, used):
            used_below = taken >> (i + 2) << (i + 2)
            ways = _completions(n, i + 1, used_below)
            if k < ways:
                break
            k -= ways
        if j:
            taken_roots.append(pos[i][j])
        used = used_below
    return _basic_subset(n, tuple(roots[p] for p in sorted(taken_roots)))


# ---------------------------------------------------------------------------
# Chains, special pairs, derived roots
# ---------------------------------------------------------------------------

def chains_in(subset: BasicSubset) -> list[tuple[int, ...]]:
    """All chains of the subset: index tuples i_1 < ... < i_r along one of its paths."""
    nxt = {r.i: r.j for r in subset.roots}
    chains = []
    for root in subset.roots:
        chain = (root.i, root.j)
        chains.append(chain)
        while chain[-1] in nxt:
            chain += (nxt[chain[-1]],)
            chains.append(chain)
    return chains


def derived_set(subset: BasicSubset) -> frozenset[PositiveRoot]:
    """All derived roots e_{i_1} - e_{j_1} over special pairs of chains in D.

    A rook placement fixes a chain by its start and its length, and a special
    partner cp of c has c's length and starts strictly between c[0] and c[1],
    so partners are sought only among the chains of c's length.
    """
    nxt, prev = {}, {}
    for r in subset.roots:
        nxt[r.i], prev[r.j] = r.j, r.i
    chains = chains_in(subset)
    by_length: dict[int, list[tuple[int, ...]]] = {}
    for c in chains:
        by_length.setdefault(len(c), []).append(c)
    pos = _positions(subset.n)
    found = 0
    for c in chains:
        first, second, last = c[0], c[1], len(c) - 1
        for cp in by_length[len(c)]:
            start = cp[0]
            if not first < start < second:
                continue
            # The chains must intertwine strictly: c[k] < cp[k] < c[k+1].
            k = 1
            while k < last and c[k] < cp[k] < c[k + 1]:
                k += 1
            if k < last or not c[last] < cp[last]:
                continue
            # A root of D ending at the start of cp must itself start after c does.
            j0 = prev.get(start)
            if j0 is not None and not first < j0:
                continue
            # A root of D extending c forward must land before cp ends.
            i_next = nxt.get(c[last])
            if i_next is not None and not i_next < cp[last]:
                continue
            found |= 1 << pos[first][start]
    return _root_set(subset.n, found)


# A caller that keeps every derived set of a scan keeps Bell(n) of them, but
# only 457 distinct ones at n = 9 (1980 at n = 10); a frozenset takes 216
# bytes, so equal derived sets share one.
@lru_cache(maxsize=4096)
def _root_set(n: int, mask: int) -> frozenset[PositiveRoot]:
    """The canonical roots at the set bits of mask; equal masks share one frozenset."""
    roots = get_system(RootSystemKind.A, n).roots
    return frozenset(r for k, r in enumerate(roots) if mask >> k & 1)


# ---------------------------------------------------------------------------
# Decomposition of arbitrary functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionResult:
    subset: BasicSubset
    map: BasicMap


def decompose(f: Functional) -> DecompositionResult:
    """The unique (D, phi) with f in the basic sum O_D(phi).

    Row k of F is H[k] / scale[k]: integers over a scale that starts at
    f.den. Row i's rightmost nonzero entry (i, j) is a pivot with phi its
    value. Each row k below it with H[k][j] nonzero clears column j by
    cross-multiplication: with a and b the pivot and H[k][j] over their gcd,
    H[k] becomes a H[k] - b H[i] on every column after k (row i is zero
    right of j, but the factor a reaches there too) and scale[k] takes the
    factor a. The column moves that then clear row i left of j touch row i
    only, which is not read again.
    """
    _require_type_a(f.system)
    n = f.system.n
    pos, nums = _positions(n), f.nums
    H = [[nums[pos[i][j]] if i < j else 0 for j in range(1, n + 1)]
         for i in range(1, n + 1)]
    scale = [f.den] * n
    phi: dict[PositiveRoot, Fraction] = {}
    for i, row in enumerate(H):
        j = next((c for c in range(n - 1, i, -1) if row[c]), None)
        if j is None:
            continue
        top = row[j]
        for k in range(i + 1, j):
            below = H[k]
            b = below[j]
            if b:
                g = math.gcd(top, b)
                a, b = top // g, b // g
                for c in range(k + 1, n):
                    below[c] = a * below[c] - b * row[c]
                scale[k] *= a
        phi[diff(i + 1, j + 1)] = Fraction(top, scale[i])
    subset = basic_subset(n, phi)
    return DecompositionResult(subset, basic_map(subset, phi))


# ---------------------------------------------------------------------------
# Achievable orbit dimensions
# ---------------------------------------------------------------------------

def max_weyl_index(n: int) -> int:
    """Largest m with an orbit of dimension 2m: (n-2)n/4 for even n, (n-1)^2/4 for odd."""
    get_system(RootSystemKind.A, n)
    return (n - 2) * n // 4 if n % 2 == 0 else (n - 1) ** 2 // 4


def max_dimension(n: int) -> int:
    return 2 * max_weyl_index(n)


def achievable_dimensions(n: int) -> list[int]:
    """All coadjoint-orbit dimensions in type A with parameter n: 0, 2, ..., 2M."""
    return list(range(0, max_dimension(n) + 1, 2))


def witness_basic_subsets(n: int) -> list[tuple[int, BasicSubset]]:
    """For each achievable 2m, a derived-root-free basic subset with s = 2m.

    Small m come from single roots widening outward from the middle of the
    index range; larger m append e_1 - e_n to a witness for the index range
    2..n-1 shifted inward.
    """
    get_system(RootSystemKind.A, n)
    if n == 2:
        return [(0, basic_subset(2, [diff(1, 2)]))]
    top = max_weyl_index(n)
    out: list[tuple[int, BasicSubset]] = []
    for m in range(0, n - 1):
        if n % 2 == 0:
            i = n // 2 - m // 2
            j = n // 2 + 1 + (m + 1) // 2
        else:
            i = (n + 1) // 2 - (m + 1) // 2
            j = (n + 1) // 2 + 1 + m // 2
        out.append((m, basic_subset(n, [diff(i, j)])))
    if top > n - 2:
        inner = dict(witness_basic_subsets(n - 2))
        for m in range(n - 1, top + 1):
            shifted = [diff(r.i + 1, r.j + 1) for r in inner[m - (n - 2)].roots]
            out.append((m, basic_subset(n, shifted + [diff(1, n)])))
    return out


def max_singular_witness(n: int) -> BasicSubset:
    """The nested family e_1 - e_n, e_2 - e_{n-1}, ... with the largest s(D)."""
    get_system(RootSystemKind.A, n)
    return basic_subset(n, [diff(k, n + 1 - k) for k in range(1, n // 2 + 1)])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def basic_map_to_json(bmap: BasicMap) -> dict:
    return {
        "n": bmap.subset.n,
        "roots": [str(r) for r in bmap.subset.roots],
        "phi": {str(r): str(v) for r, v in sorted(
            bmap.phi.items(), key=lambda item: item[0].sort_key())},
    }


def iter_scan_records(n: int) -> Iterator[dict]:
    """One JSON-ready record per basic subset: s(D), derived roots, orbit flag."""
    for subset in enumerate_basic_subsets(n):
        derived = derived_set(subset)
        yield {
            "n": n,
            "roots": [str(r) for r in subset.roots],
            "s": s_of(subset),
            "derived": sorted(str(r) for r in derived),
            "single_orbit": not derived,
        }
