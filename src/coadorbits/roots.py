"""Positive root systems of types A, B, D and their matrix realizations.

The systems are pinned to concrete nilpotent matrix algebras:

* type A with parameter n: strictly upper triangular n x n matrices; the
  root vector of ``e_i - e_j`` is the matrix unit ``E[i,j]``;
* type B with parameter n: strictly upper triangular (2n+1) x (2n+1)
  matrices antisymmetric about the antidiagonal;
* type D with parameter n: the analogous 2n x 2n matrices.

Every structure constant in the package is read from one cached bracket
table per system (see :func:`structure_table`), built from the products
E[r,c] E[c,d] = E[r,d] of the matrix units of these explicit matrices; no
Chevalley-basis sign rule is assumed anywhere, so all downstream signs are
fixed by the realization above.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache


class RootSystemKind(Enum):
    A = "A"
    B = "B"
    D = "D"


class RankRangeError(ValueError):
    """Rank parameter outside the supported range (n >= 2 everywhere)."""


class InvalidRootError(ValueError):
    """A root that does not belong to the given root system."""


class BracketDecompositionError(RuntimeError):
    """A matrix commutator failed to decompose in the root-vector basis.

    This is an internal consistency check: for the realizations used here
    the commutator of two root vectors is always zero or an integer
    multiple of a single root vector.
    """


DIFF = "diff"   # e_i - e_j
SHORT = "short"  # e_i         (type B only)
SUM = "sum"     # e_i + e_j   (types B and D)


@dataclass(frozen=True, slots=True)
class PositiveRoot:
    """A positive root: e_i - e_j (diff), e_i (short) or e_i + e_j (sum).

    Indices are 1-based. Which tags are legal depends on the ambient
    :class:`RootSystem`; the dataclass itself only enforces index sanity.
    """

    tag: str
    i: int
    j: int = 0

    def __post_init__(self) -> None:
        if self.tag not in (DIFF, SHORT, SUM):
            raise InvalidRootError(f"unknown root tag {self.tag!r}")
        if self.i < 1:
            raise InvalidRootError("root indices are 1-based")
        if self.tag == SHORT:
            if self.j != 0:
                raise InvalidRootError("short roots take a single index")
        elif not self.i < self.j:
            raise InvalidRootError(f"need i < j, got ({self.i}, {self.j})")

    def sort_key(self) -> tuple[int, ...]:
        """Canonical ordering: diff by (j-i, i), then short by i, then sum by (i+j, i)."""
        if self.tag == DIFF:
            return (0, self.j - self.i, self.i)
        if self.tag == SHORT:
            return (1, self.i)
        return (2, self.i + self.j, self.i)

    def weight(self) -> dict[int, int]:
        """Coefficients of the root in the epsilon-coordinate basis."""
        if self.tag == DIFF:
            return {self.i: 1, self.j: -1}
        if self.tag == SHORT:
            return {self.i: 1}
        return {self.i: 1, self.j: 1}

    def __str__(self) -> str:
        if self.tag == DIFF:
            return f"e{self.i}-e{self.j}"
        if self.tag == SHORT:
            return f"e{self.i}"
        return f"e{self.i}+e{self.j}"

    def latex(self) -> str:
        if self.tag == DIFF:
            return rf"\epsilon_{{{self.i}}}-\epsilon_{{{self.j}}}"
        if self.tag == SHORT:
            return rf"\epsilon_{{{self.i}}}"
        return rf"\epsilon_{{{self.i}}}+\epsilon_{{{self.j}}}"


def diff(i: int, j: int) -> PositiveRoot:
    return PositiveRoot(DIFF, i, j)


def short(i: int) -> PositiveRoot:
    return PositiveRoot(SHORT, i)


def sum_root(i: int, j: int) -> PositiveRoot:
    return PositiveRoot(SUM, i, j)


_ROOT_RE = re.compile(r"^e(\d+)(?:(-|\+)e(\d+))?$")


def parse_root(text: str) -> PositiveRoot:
    """Parse "e1-e4", "e2" or "e1+e3" (1-based indices)."""
    m = _ROOT_RE.match(text.strip())
    if m is None:
        raise InvalidRootError(f"cannot parse root {text!r}")
    i = int(m.group(1))
    if m.group(2) is None:
        return short(i)
    j = int(m.group(3))
    return diff(i, j) if m.group(2) == "-" else sum_root(i, j)


def root_from_weight(weight: dict[int, int]) -> PositiveRoot | None:
    """Interpret an epsilon-coordinate vector as a positive root, if it is one."""
    support = sorted(k for k, v in weight.items() if v != 0)
    vals = [weight[k] for k in support]
    if vals == [1]:
        return short(support[0])
    if vals == [1, -1]:
        return diff(support[0], support[1])
    if vals == [1, 1]:
        return sum_root(support[0], support[1])
    return None


def add_roots(a: PositiveRoot, b: PositiveRoot) -> PositiveRoot | None:
    """The positive root a + b, or None when the sum is not a positive root."""
    w = a.weight()
    for k, v in b.weight().items():
        w[k] = w.get(k, 0) + v
    return root_from_weight(w)


class RootSystem:
    """Ordered set of positive roots with an index for coordinate vectors."""

    __slots__ = ("kind", "n", "roots", "_index")

    def __init__(self, kind: RootSystemKind, n: int, roots: tuple[PositiveRoot, ...]):
        self.kind = kind
        self.n = n
        self.roots = roots
        self._index = {root: k for k, root in enumerate(roots)}

    def __repr__(self) -> str:
        return f"RootSystem({self.kind.value}, n={self.n}, {len(self.roots)} roots)"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RootSystem)
            and self.kind is other.kind
            and self.n == other.n
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.n))

    def __contains__(self, root: PositiveRoot) -> bool:
        return root in self._index

    def __len__(self) -> int:
        return len(self.roots)

    def index_of(self, root: PositiveRoot) -> int:
        try:
            return self._index[root]
        except KeyError:
            raise InvalidRootError(
                f"{root} is not a positive root of {self.kind.value} with n={self.n}"
            ) from None

    def check_member(self, root: PositiveRoot) -> PositiveRoot:
        self.index_of(root)
        return root

    @property
    def matrix_dim(self) -> int:
        """Side of the realizing matrices: n, 2n+1 or 2n."""
        if self.kind is RootSystemKind.A:
            return self.n
        if self.kind is RootSystemKind.B:
            return 2 * self.n + 1
        return 2 * self.n

    def simple_roots(self) -> tuple[PositiveRoot, ...]:
        simples = [diff(i, i + 1) for i in range(1, self.n)]
        if self.kind is RootSystemKind.B:
            simples.append(short(self.n))
        elif self.kind is RootSystemKind.D:
            simples.append(sum_root(self.n - 1, self.n))
        return tuple(simples)


def _as_kind(kind: RootSystemKind | str) -> RootSystemKind:
    if isinstance(kind, RootSystemKind):
        return kind
    try:
        return RootSystemKind(kind)
    except ValueError:
        raise InvalidRootError(f"unknown root system kind {kind!r}") from None


@lru_cache(maxsize=None)
def _system(kind: RootSystemKind, n: int) -> RootSystem:
    roots: list[PositiveRoot] = [
        diff(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
    ]
    if kind is RootSystemKind.B:
        roots.extend(short(i) for i in range(1, n + 1))
    if kind in (RootSystemKind.B, RootSystemKind.D):
        roots.extend(
            sum_root(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
        )
    roots.sort(key=PositiveRoot.sort_key)
    return RootSystem(kind, n, tuple(roots))


def positive_roots(kind: RootSystemKind | str, n: int) -> RootSystem:
    """The positive roots of the given kind, in canonical order.

    Counts are n(n-1)/2 for A, n^2 for B and n^2 - n for D.
    """
    kind = _as_kind(kind)
    if n < 2:
        raise RankRangeError(f"kind {kind.value} needs n >= 2, got {n}")
    return _system(kind, n)


# Alias used throughout the package when a cached system is wanted.
get_system = positive_roots


@dataclass(frozen=True)
class MatrixRealization:
    """A sparse integer matrix, 1-based (row, col) keys, strictly upper triangular."""

    dim: int
    entries: dict[tuple[int, int], int]

    def to_dense(self) -> list[list[int]]:
        m = [[0] * self.dim for _ in range(self.dim)]
        for (r, c), v in self.entries.items():
            m[r - 1][c - 1] = v
        return m


def root_vector(kind: RootSystemKind | str, n: int, alpha: PositiveRoot) -> MatrixRealization:
    """The matrix realizing e_alpha inside the nilpotent algebra of (kind, n)."""
    system = positive_roots(kind, n)
    system.check_member(alpha)
    i, j = alpha.i, alpha.j
    if system.kind is RootSystemKind.A:
        return MatrixRealization(n, {(i, j): 1})
    if system.kind is RootSystemKind.B:
        dim = 2 * n + 1
        if alpha.tag == DIFF:
            entries = {(i, j): 1, (2 * n + 2 - j, 2 * n + 2 - i): -1}
        elif alpha.tag == SHORT:
            entries = {(i, n + 1): 1, (n + 1, 2 * n + 2 - i): -1}
        else:
            entries = {(i, 2 * n + 2 - j): 1, (j, 2 * n + 2 - i): -1}
        return MatrixRealization(dim, entries)
    dim = 2 * n
    if alpha.tag == DIFF:
        entries = {(i, j): 1, (2 * n + 1 - j, 2 * n + 1 - i): -1}
    else:
        entries = {(i, 2 * n + 1 - j): 1, (j, 2 * n + 1 - i): -1}
    return MatrixRealization(dim, entries)


def bracket(
    kind: RootSystemKind | str, n: int, alpha: PositiveRoot, beta: PositiveRoot
) -> tuple[int, PositiveRoot] | None:
    """[e_alpha, e_beta] = c * e_gamma as (c, gamma), or None when it vanishes."""
    system = positive_roots(kind, n)
    system.check_member(alpha)
    system.check_member(beta)
    return _structure_table(system.kind, n).get(alpha, beta)


class BracketTable:
    """Complete bracket table of a system: (alpha, beta) -> (c, alpha+beta).

    ``by_index`` is the same table over canonical positions: by_index[a] is
    {b: (c, g)} for every nonzero [e_a, e_b] = c e_g.
    """

    __slots__ = ("system", "table", "by_index")

    def __init__(self, system: RootSystem, table: dict, by_index: tuple[dict, ...]):
        self.system = system
        self.table = table
        self.by_index = by_index

    def get(self, alpha: PositiveRoot, beta: PositiveRoot) -> tuple[int, PositiveRoot] | None:
        return self.table.get((alpha, beta))

    def nonzero_constants(self) -> set[int]:
        return {c for c, _ in self.table.values()}


@lru_cache(maxsize=None)
def _structure_table(kind: RootSystemKind, n: int) -> BracketTable:
    """Every nonzero bracket, from the matrix-unit products E[r,c] E[c,d] = E[r,d].

    Each commutator must be an integer times the root vector of the one root
    owning its first position; anything else raises
    :class:`BracketDecompositionError`.
    """
    system = _system(kind, n)
    units = {alpha: root_vector(kind, n, alpha).entries for alpha in system.roots}
    owner = {pos: alpha for alpha, entries in units.items() for pos in entries}
    by_row: dict[int, list[tuple[PositiveRoot, int, int]]] = {}
    for beta, entries in units.items():
        for (c, d), w in entries.items():
            by_row.setdefault(c, []).append((beta, d, w))
    comms: dict[tuple[PositiveRoot, PositiveRoot], dict[tuple[int, int], int]] = {}
    for alpha, entries in units.items():
        for (r, c), v in entries.items():
            for beta, d, w in by_row.get(c, ()):
                for key, sign in (((alpha, beta), 1), ((beta, alpha), -1)):
                    comm = comms.setdefault(key, {})
                    comm[r, d] = comm.get((r, d), 0) + sign * v * w
    table: dict[tuple[PositiveRoot, PositiveRoot], tuple[int, PositiveRoot]] = {}
    index_of = system.index_of
    by_index: tuple[dict[int, tuple[int, int]], ...] = tuple({} for _ in system.roots)
    for (alpha, beta), comm in comms.items():
        comm = {pos: v for pos, v in comm.items() if v}
        if not comm:
            continue
        pos, v = next(iter(comm.items()))
        gamma = owner.get(pos)
        target = units.get(gamma, {})
        coef = v // target[pos] if target else 0
        if comm != {p: coef * u for p, u in target.items()}:
            raise BracketDecompositionError(
                f"[{alpha}, {beta}] is not an integer multiple of one root vector")
        table[alpha, beta] = (coef, gamma)
        by_index[index_of(alpha)][index_of(beta)] = (coef, index_of(gamma))
    return BracketTable(system, table, by_index)


def structure_table(kind: RootSystemKind | str, n: int) -> BracketTable:
    """Cached bracket table over all ordered pairs of positive roots."""
    kind = _as_kind(kind)
    if n < 2:
        raise RankRangeError(f"kind {kind.value} needs n >= 2, got {n}")
    return _structure_table(kind, n)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def system_to_json(system: RootSystem) -> dict:
    return {
        "kind": system.kind.value,
        "n": system.n,
        "roots": [str(r) for r in system.roots],
    }
