"""Positive root systems of types A, B, D and their matrix realizations.

The systems are pinned to concrete nilpotent matrix algebras:

* type A with parameter n: strictly upper triangular n x n matrices; the
  root vector of ``e_i - e_j`` is the matrix unit ``E[i,j]``;
* type B with parameter n: strictly upper triangular (2n+1) x (2n+1)
  matrices antisymmetric about the antidiagonal;
* type D with parameter n: the analogous 2n x 2n matrices.

Every structure constant in the package is read from one cached bracket
table per system (see :func:`structure_table`), built from the products
E[r,c] E[c,d] = E[r,d] of the matrix units of these explicit matrices and
stored by canonical root position; no Chevalley-basis sign rule is assumed
anywhere, so all downstream signs are fixed by the realization above.

Roots are interned: there is one live :class:`PositiveRoot` per (tag, i, j),
however it was built, and roots compare and hash by identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from threading import Lock
from types import MappingProxyType
from weakref import WeakValueDictionary


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

# The live root of each (tag, i, j), held weakly, and the lock that creates
# new ones; see PositiveRoot.
_interned: WeakValueDictionary[tuple[str, int, int], PositiveRoot] = WeakValueDictionary()
_interning = Lock()


@dataclass(frozen=True, init=False, eq=False)
class PositiveRoot:
    """A positive root: e_i - e_j (diff), e_i (short) or e_i + e_j (sum).

    Indices are 1-based ints. Which tags are legal depends on the ambient
    :class:`RootSystem`; the class itself only enforces index sanity.

    Roots are interned: every construction (the constructor, ``diff``,
    ``short``, ``sum_root``, ``parse_root``, ``dataclasses.replace``, copies
    and unpickling) returns the one live instance of its (tag, i, j), so
    roots compare and hash by identity, which CPython does in C. The table
    holds its roots weakly: a root nothing else keeps goes with its entry,
    so roots parsed from outside input do not pile up.
    """

    __slots__ = ("tag", "i", "j", "__weakref__")
    tag: str
    i: int
    j: int

    def __new__(cls, tag: str, i: int, j: int = 0) -> "PositiveRoot":
        if tag not in (DIFF, SHORT, SUM):
            raise InvalidRootError(f"unknown root tag {_echo(tag)}")
        # A bool or float index hashes like the int and would stand in for it.
        if type(i) is not int or type(j) is not int:
            raise InvalidRootError("root indices are ints")
        key = (tag, i, j)
        root = _interned.get(key)
        if root is not None:
            return root
        if i < 1:
            raise InvalidRootError("root indices are 1-based")
        if tag == SHORT:
            if j != 0:
                raise InvalidRootError("short roots take a single index")
        elif not i < j:
            raise InvalidRootError(f"need i < j, got ({_echo(i)}, {_echo(j)})")
        with _interning:  # two threads must not both create the root of one key
            root = _interned.get(key)
            if root is None:
                root = object.__new__(cls)
                object.__setattr__(root, "tag", tag)
                object.__setattr__(root, "i", i)
                object.__setattr__(root, "j", j)
                _interned[key] = root
        return root

    def __reduce__(self):
        return PositiveRoot, (self.tag, self.i, self.j)

    def sort_key(self) -> tuple[int, ...]:
        """Canonical ordering: diff by (j-i, i), then short by i, then sum by (i+j, i)."""
        if self.tag == DIFF:
            return (0, self.j - self.i, self.i)
        if self.tag == SHORT:
            return (1, self.i)
        return (2, self.i + self.j, self.i)

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
# Error messages echo at most this many characters of an offending value.
_ECHO_CHARS = 40


def _echo(value) -> str:
    """repr(value) for an error message, cut short with the value's length when long.

    A root is echoed as its own text, such as e1-e4; an int past Python's
    int-digit limit, alone or as a root's index, by its bit length.
    """
    try:
        text = str(value) if isinstance(value, PositiveRoot) else repr(value)
    except ValueError:
        if isinstance(value, PositiveRoot):
            return f"a {value.tag} root with a {max(value.i, value.j).bit_length()}-bit index"
        if isinstance(value, int):
            return f"an int of {value.bit_length()} bits"
        return f"a {type(value).__name__} too large to print"
    if len(text) <= _ECHO_CHARS:
        return text
    size = len(value) if isinstance(value, str) else len(text)
    return f"{text[:_ECHO_CHARS]}... ({size} characters)"


def parse_root(text: str) -> PositiveRoot:
    """Parse "e1-e4", "e2" or "e1+e3" (1-based indices)."""
    m = _ROOT_RE.match(text.strip())
    if m is not None:
        try:
            i, j = int(m.group(1)), int(m.group(3) or 0)
        except ValueError:  # an index past Python's int-digit limit
            m = None
    if m is None:
        raise InvalidRootError(f"cannot parse root {_echo(text)}")
    if m.group(2) is None:
        return short(i)
    return diff(i, j) if m.group(2) == "-" else sum_root(i, j)


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
                f"{_echo(root)} is not a positive root of {self.kind.value} with n={self.n}"
            ) from None

    def check_member(self, root: PositiveRoot) -> PositiveRoot:
        self.index_of(root)
        return root

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


def _not_a_system(system) -> InvalidRootError:
    """The error for a system argument that is not a RootSystem, typed as a bad kind is."""
    return InvalidRootError(f"expected a RootSystem, such as get_system('A', 4), "
                            f"got {_echo(system)}")


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

    Counts are n(n-1)/2 for A, n^2 for B and n^2 - n for D. An n below 2, or
    not an int (3.0 would hit the cache entry of 3), raises RankRangeError.
    """
    kind = _as_kind(kind)
    if type(n) is not int:
        raise RankRangeError(f"kind {kind.value} needs an int n, got {_echo(n)}")
    if n < 2:
        raise RankRangeError(f"kind {kind.value} needs n >= 2, got {_echo(n)}")
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


@dataclass(frozen=True, eq=False, repr=False)
class BracketTable:
    """Complete bracket table of a system, over canonical positions.

    by_index[a] is a read-only {b: (c, g)} for every nonzero [e_a, e_b] = c e_g,
    so each row holds both orders of a pair: by_index[b][a] is (-c, g). The
    attributes cannot be rebound either: ``structure_table`` hands every
    caller the one cached table.
    """

    # Declared by hand, as for PositiveRoot: dataclass(slots=True) remakes
    # the class, and the frozen __setattr__ of the remade class raises
    # TypeError, not AttributeError, for a name that is not a field.
    __slots__ = ("system", "by_index")
    system: RootSystem
    by_index: tuple[MappingProxyType, ...]

    @property
    def table(self) -> dict[tuple[PositiveRoot, PositiveRoot], tuple[int, PositiveRoot]]:
        """The root-keyed view (alpha, beta) -> (c, alpha+beta), rebuilt on every read."""
        roots = self.system.roots
        return {(roots[a], roots[b]): (c, roots[g])
                for a, row in enumerate(self.by_index) for b, (c, g) in row.items()}

    def get(self, alpha: PositiveRoot, beta: PositiveRoot) -> tuple[int, PositiveRoot] | None:
        index = self.system._index
        a = index.get(alpha)
        hit = None if a is None else self.by_index[a].get(index.get(beta))
        return None if hit is None else (hit[0], self.system.roots[hit[1]])

    def nonzero_constants(self) -> set[int]:
        return {c for row in self.by_index for c, _ in row.values()}


@lru_cache(maxsize=None)
def _structure_table(kind: RootSystemKind, n: int) -> BracketTable:
    """Every nonzero bracket, from the matrix-unit products E[r,c] E[c,d] = E[r,d].

    Roots are handled by canonical position throughout. Each unordered pair
    is decomposed once, as e_a e_b - e_b e_a, and fills both orders. Each
    commutator must be an integer times the root vector of the one root
    owning its first position; anything else raises
    :class:`BracketDecompositionError`.
    """
    system = _system(kind, n)
    roots = system.roots
    units = [root_vector(kind, n, alpha).entries for alpha in roots]
    owner = {pos: g for g, entries in enumerate(units) for pos in entries}
    by_row: dict[int, list[tuple[int, int, int]]] = {}
    for b, entries in enumerate(units):
        for (c, d), w in entries.items():
            by_row.setdefault(c, []).append((b, d, w))
    prods: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for a, entries in enumerate(units):
        for (r, c), v in entries.items():
            for b, d, w in by_row.get(c, ()):
                prod = prods.setdefault((a, b), {})
                prod[r, d] = prod.get((r, d), 0) + v * w
    by_index: tuple[dict[int, tuple[int, int]], ...] = tuple({} for _ in roots)
    for (a, b), prod in prods.items():
        if b in by_index[a]:
            continue  # filled, with its sign flipped, when (b, a) came first
        comm = dict(prod)
        for pos, v in prods.get((b, a), {}).items():
            comm[pos] = comm.get(pos, 0) - v
        comm = {pos: v for pos, v in comm.items() if v}
        if not comm:
            continue
        pos, v = next(iter(comm.items()))
        g = owner.get(pos)
        target = {} if g is None else units[g]
        coef = v // target[pos] if target else 0
        if comm != {p: coef * u for p, u in target.items()}:
            raise BracketDecompositionError(
                f"[{roots[a]}, {roots[b]}] is not an integer multiple of one root vector")
        by_index[a][b] = (coef, g)
        by_index[b][a] = (-coef, g)
    return BracketTable(system, tuple(map(MappingProxyType, by_index)))


def structure_table(kind: RootSystemKind | str, n: int) -> BracketTable:
    """Cached bracket table over all ordered pairs of positive roots."""
    return _structure_table(positive_roots(kind, n).kind, n)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def system_to_json(system: RootSystem) -> dict:
    return {
        "kind": system.kind.value,
        "n": system.n,
        "roots": [str(r) for r in system.roots],
    }
