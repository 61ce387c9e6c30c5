"""The three workloads of the benchmark, built from checks.

A check is one unit of work with a verdict against a closed form or a
certificate. `execute` does the work and is the only timed part; `verdict`
judges the result afterwards and returns None or the reason it failed;
`record` gives the inputs a failure needs to be replayed. Every check calls
the package through module attributes (`orbits.contains`, not a local
name), so the traced run sees the same calls.

A workload's inputs are rounds: lists of checks generated from the seed
before any timing. Each check's seeded random inputs are drawn from a
generator named after its stamp, and the round's own generator fixes the
order. The importer must have put the checkout's `src/` on the path.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from coadorbits import basic, functionals, oracle, orbits, roots

NONZERO = (-3, -2, -1, 1, 2, 3)


def _system(kind: str, n: int) -> roots.RootSystem:
    return roots.positive_roots(kind, n)


def _header(check) -> dict:
    return {"seed": check.stamp, "check": check.name,
            "kind": check.system.kind.value, "n": check.system.n}


# ---------------------------------------------------------------------------
# orbit-sampling: charts, decomposition and round trips on random orbit points
# ---------------------------------------------------------------------------

@dataclass
class ChartCheck:
    """c e*_alpha moved by a random word must satisfy the alpha chart's equations.

    Checks of one alpha run back to back; the first builds the chart and the
    others reuse it, so the chart cost is amortised over the trials.
    """

    name = "chart"
    stamp: str
    system: roots.RootSystem
    alpha: roots.PositiveRoot
    c: Fraction
    word: functionals.GroupWord
    builds_chart: bool

    def execute(self, state: dict):
        if self.builds_chart:
            state["chart"] = orbits.orbit_chart(self.system.kind, self.system.n, self.alpha, self.c)
        point = functionals.coadjoint_apply(
            self.word, functionals.e_star(self.system, self.alpha, self.c))
        return orbits.contains(state["chart"], point), point

    def verdict(self, result) -> str | None:
        inside, _ = result
        return None if inside is True else f"orbit point escapes the {self.alpha} chart"

    def record(self, result) -> dict:
        out = _header(self)
        out.update(alpha=str(self.alpha), c=str(self.c),
                   word=functionals.word_to_json(self.word))
        if result is not None:
            out["functional"] = functionals.functional_to_json(result[1])
        return out


@dataclass
class DecomposeCheck:
    """A type-A basic point moved by a random word must decompose to its (D, phi)."""

    name = "decompose"
    stamp: str
    system: roots.RootSystem
    subset: basic.BasicSubset
    phi: dict
    start: functionals.Functional
    word: functionals.GroupWord

    def execute(self, state: dict):
        moved = functionals.coadjoint_apply(self.word, self.start)
        return basic.decompose(moved), moved

    def verdict(self, result) -> str | None:
        got, _ = result
        if got.subset != self.subset or got.map.phi != self.phi:
            return f"decomposition gave {got.subset}, expected {self.subset}"
        return None

    def record(self, result) -> dict:
        out = _header(self)
        out.update(roots=[str(r) for r in self.subset.roots],
                   phi={str(r): str(v) for r, v in self.phi.items()},
                   word=functionals.word_to_json(self.word),
                   functional=functionals.functional_to_json(self.start))
        if result is not None:
            out["moved"] = functionals.functional_to_json(result[1])
        return out


@dataclass
class RoundTripCheck:
    """chart_point, then construct_group_word, then replaying the word on e*_alpha."""

    name = "roundtrip"
    stamp: str
    system: roots.RootSystem
    alpha: roots.PositiveRoot
    assignment: dict

    def execute(self, state: dict):
        kind, n = self.system.kind, self.system.n
        chart = orbits.orbit_chart(kind, n, self.alpha, 1)
        point = orbits.chart_point(chart, self.assignment)
        word = orbits.construct_group_word(kind, n, self.alpha, point)
        replayed = functionals.coadjoint_apply(word, functionals.e_star(self.system, self.alpha))
        return point, replayed, word

    def verdict(self, result) -> str | None:
        point, replayed, _ = result
        if any(point.value(r) != v for r, v in self.assignment.items()):
            return "chart point does not carry the assigned singular values"
        if replayed != point:
            return "replaying the constructed word does not reach the chart point"
        return None

    def record(self, result) -> dict:
        out = _header(self)
        out.update(alpha=str(self.alpha),
                   assignment={str(r): str(v) for r, v in self.assignment.items()})
        if result is not None:
            out.update(functional=functionals.functional_to_json(result[0]),
                       word=functionals.word_to_json(result[2]))
        return out


def _chart_systems():
    # n >= 4 is where the sum-root chart tails have two terms, the smallest
    # size that separates the candidate sign rules.
    return [(k, n) for k, top in (("A", 7), ("B", 6), ("D", 6)) for n in range(4, top + 1)]


CHART_TRIALS = 2
DECOMPOSE_N = (6, 7, 8)
DECOMPOSE_PER_N = 8
ROUNDTRIPS = 24


def orbit_sampling_inputs(seed: int, rounds: int) -> list[list]:
    chart_systems = [_system(k, n) for k, n in _chart_systems()]
    subsets = {n: list(basic.enumerate_basic_subsets(n)) for n in DECOMPOSE_N}
    out = []
    for r in range(rounds):
        base = f"{seed}:orbit-sampling:{r}"
        groups = []
        for system in chart_systems:
            tag = f"{system.kind.value}{system.n}"
            for alpha in system.roots:
                group = f"{base}:chart:{tag}:{alpha}"
                c = Fraction(random.Random(group).choice(NONZERO))
                groups.append([
                    ChartCheck(f"{group}:{t}", system, alpha, c,
                               oracle.random_word(system, random.Random(f"{group}:{t}"),
                                                  oracle.default_word_length(system)),
                               builds_chart=(t == 0))
                    for t in range(CHART_TRIALS)])
        for n in DECOMPOSE_N:
            system = _system("A", n)
            for t in range(DECOMPOSE_PER_N):
                stamp = f"{base}:decompose:{n}:{t}"
                rng = random.Random(stamp)
                subset = subsets[n][rng.randrange(len(subsets[n]))]
                phi = {root: Fraction(rng.choice(NONZERO), rng.choice((1, 2, 3)))
                       for root in subset.roots}
                start = (basic.basic_point(basic.basic_map(subset, phi)) if phi
                         else functionals.zero_functional(system))
                word = oracle.random_word(system, rng, oracle.default_word_length(system))
                groups.append([DecomposeCheck(stamp, system, subset, phi, start, word)])
        for t in range(ROUNDTRIPS):
            stamp = f"{base}:roundtrip:{t}"
            rng = random.Random(stamp)
            system = chart_systems[rng.randrange(len(chart_systems))]
            alpha = system.roots[rng.randrange(len(system.roots))]
            singular = orbits.singular_set(system.kind, system.n, alpha).singular
            assignment = {s: Fraction(rng.choice(NONZERO)) for s in singular}
            groups.append([RoundTripCheck(stamp, system, alpha, assignment)])
        random.Random(base).shuffle(groups)
        out.append([check for group in groups for check in group])
    return out


# ---------------------------------------------------------------------------
# orbit-rank: exact orbit dimensions and radical bases on large systems
# ---------------------------------------------------------------------------

def _pairs(system: roots.RootSystem) -> list[tuple[int, int, int, roots.PositiveRoot]]:
    table = roots.structure_table(system.kind, system.n)
    index = {r: k for k, r in enumerate(system.roots)}
    return [(index[a], index[b], c, gamma) for (a, b), (c, gamma) in table.table.items()]


# Reference ranks for the orbit-rank certificate, kept apart from linalg:
# elimination modulo a 61-bit prime, whose rank is never above the rank over
# Q, and exact Fraction elimination when the two could differ.
PRIME = 2**61 - 1


def _rank_mod_p(rows: list[list[Fraction]]) -> int:
    m = []
    for row in rows:
        scale = math.lcm(*(x.denominator for x in row))
        m.append([x.numerator * (scale // x.denominator) % PRIME for x in row])
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        inverse = pow(top[col], -1, PRIME)
        for i in range(rank + 1, len(m)):
            if m[i][col]:
                k = m[i][col] * inverse % PRIME
                m[i] = [(x - k * y) % PRIME for x, y in zip(m[i], top)]
        rank += 1
    return rank


def _rank_exact(rows: list[list[Fraction]]) -> int:
    m = [list(row) for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][col]:
                k = m[i][col] / top[col]
                m[i] = [x - k * y for x, y in zip(m[i], top)]
        rank += 1
    return rank


def rank_at_least(rows: list[list[Fraction]], r: int) -> bool:
    """Whether the rational rows have rank at least r, decided exactly."""
    return _rank_mod_p(rows) >= r or _rank_exact(rows) >= r


@dataclass
class RankCheck:
    """orbit_dimension and radical_basis of one functional, with their certificate.

    The skew form M (x, y) -> f([x, y]) is built here from the bracket table.
    The dimension is even and M has rank at least dim; the radical has
    N - dim linearly independent vectors, each annihilated exactly by M, so
    M has rank at most dim. Together they prove dim = rank M. For a sampled
    point of the orbit through c e*_alpha the dimension must also be |S(alpha)|.
    """

    name = "rank"
    stamp: str
    system: roots.RootSystem
    f: functionals.Functional
    alpha: roots.PositiveRoot | None
    pairs: list

    def skew_rows(self) -> list[list[Fraction]]:
        size = len(self.system.roots)
        rows = [[Fraction(0)] * size for _ in range(size)]
        values = self.f.values
        for a, b, c, gamma in self.pairs:
            fv = values.get(gamma)
            if fv:
                rows[a][b] += c * fv
        return rows

    def execute(self, state: dict):
        return functionals.orbit_dimension(self.f), functionals.radical_basis(self.f)

    def verdict(self, result) -> str | None:
        dim, radical = result
        size = len(self.system.roots)
        if dim % 2:
            return f"odd orbit dimension {dim}"
        if self.alpha is not None:
            expected = orbits.singular_size_formula(self.system.kind, self.system.n, self.alpha)
            if dim != expected:
                return f"dimension {dim} != |S({self.alpha})| = {expected}"
        skew = self.skew_rows()
        lower = _rank_mod_p(skew)
        if dim < lower or (dim > lower and _rank_exact(skew) < dim):
            return f"dimension {dim} is not the rank of the skew form"
        if len(radical) != size - dim:
            return f"{len(radical)} radical vectors for N - dim = {size - dim}"
        entries = [(a, b, x) for a, row in enumerate(skew) for b, x in enumerate(row) if x]
        for v in radical:
            image = [Fraction(0)] * size
            for a, b, x in entries:
                if v[b]:
                    image[a] += x * v[b]
            if any(image):
                return "a radical vector is not annihilated by the skew form"
        if radical and not rank_at_least([list(v) for v in radical], len(radical)):
            return "the radical vectors are linearly dependent"
        return None

    def record(self, result) -> dict:
        out = _header(self)
        out.update(alpha=None if self.alpha is None else str(self.alpha),
                   functional=functionals.functional_to_json(self.f))
        if result is not None:
            out["dimension"] = result[0]
        return out


# The mix is fixed and kept to checks of 10-250 ms. Check costs span three
# orders of magnitude, and with random supports, random alphas and B8/D9
# sizes (one to two seconds a check) runs with different seeds differed by
# a fifth from their inputs alone, and a pass was too long to be repeated
# within a run. A random functional's cost follows its support, so each
# slot's support is fixed and the seed draws the values. Orbit points use
# each system's highest root, the largest elementary orbit, whose cost
# barely depends on the word; the seed draws the word and c.
RANDOM_SYSTEMS = (("A", 8), ("A", 9), ("B", 5), ("B", 6), ("D", 6), ("D", 7))
ORBIT_SYSTEMS = (("A", 9), ("A", 10), ("A", 11), ("B", 6), ("D", 7))


def highest_root(system: roots.RootSystem) -> roots.PositiveRoot:
    """The root with the largest singular set: e1-en in type A, e1+e2 in B and D."""
    kind, n = system.kind, system.n
    return max(system.roots, key=lambda a: len(orbits.singular_set(kind, n, a).singular))


def orbit_rank_inputs(seed: int, rounds: int, random_systems=RANDOM_SYSTEMS,
                      orbit_systems=ORBIT_SYSTEMS) -> list[list]:
    pairs = {}
    for kind, n in random_systems + orbit_systems:
        system = _system(kind, n)
        pairs.setdefault(system, _pairs(system))
    out = []
    for r in range(rounds):
        base = f"{seed}:orbit-rank:{r}"
        checks = []
        for kind, n in random_systems:
            system = _system(kind, n)
            stamp = f"{base}:random:{kind}{n}"
            support = random.Random(f"orbit-rank:{r}:support:{kind}{n}")
            values = random.Random(stamp)
            f = functionals.functional(system, {root: values.choice(NONZERO)
                                                for root in system.roots if support.randrange(2)})
            checks.append(RankCheck(stamp, system, f, None, pairs[system]))
        for kind, n in orbit_systems:
            system = _system(kind, n)
            alpha = highest_root(system)
            stamp = f"{base}:orbit:{kind}{n}:{alpha}"
            c = random.Random(stamp).choice(NONZERO)
            f, _ = oracle.random_orbit_point(kind, n, alpha, c, seed=stamp)
            checks.append(RankCheck(stamp, system, f, alpha, pairs[system]))
        random.Random(base).shuffle(checks)
        out.append(checks)
    return out


# ---------------------------------------------------------------------------
# basic-scan: the exhaustive type-A basic-subset calculus
# ---------------------------------------------------------------------------

@dataclass
class ScanCheck:
    """derived_set and s_of of one basic subset.

    s is at most max_dimension(n), and a derived-free subset's s is an
    achievable (so even) dimension. A subset with derived roots can have odd
    s: its basic sum is then a union of smaller orbits, not one orbit. The
    per-n verdicts are in `scan_round_verdicts`.
    """

    name = "scan"
    stamp: str
    system: roots.RootSystem
    subset: basic.BasicSubset
    achievable: frozenset

    def execute(self, state: dict):
        return basic.derived_set(self.subset), basic.s_of(self.subset)

    def verdict(self, result) -> str | None:
        derived, s = result
        if s > max(self.achievable):
            return f"s(D) = {s} is above max_dimension"
        if not derived and s not in self.achievable:
            return f"derived-free subset with s(D) = {s} outside achievable_dimensions"
        return None

    def record(self, result) -> dict:
        out = _header(self)
        out["roots"] = [str(r) for r in self.subset.roots]
        if result is not None:
            out.update(s=result[1], derived=sorted(str(r) for r in result[0]))
        return out


SCAN_N = (8, 9)


def basic_scan_inputs(seed: int, rounds: int, ns=SCAN_N) -> list[list]:
    scans = []
    for n in ns:
        system = _system("A", n)
        achievable = frozenset(basic.achievable_dimensions(n))
        scans.extend(ScanCheck(f"{seed}:basic-scan:{n}:{k}", system, subset, achievable)
                     for k, subset in enumerate(basic.enumerate_basic_subsets(n)))
    out = []
    for r in range(rounds):
        order = list(scans)
        random.Random(f"{seed}:basic-scan:{r}").shuffle(order)
        out.append(order)
    return out


def scan_round_verdicts(results: list) -> list[tuple[dict, str | None]]:
    """Per n: the reachable dimensions equal the closed form and the largest s is max_dimension."""
    reachable: dict[int, set] = {}
    largest: dict[int, int] = {}
    for check, (derived, s) in results:
        n = check.system.n
        largest[n] = max(largest.get(n, 0), s)
        if not derived:
            reachable.setdefault(n, set()).add(s)
    out = []
    for n in sorted(largest):
        expected = basic.achievable_dimensions(n)
        got = sorted(reachable.get(n, ()))
        record = {"check": "scan-summary", "kind": "A", "n": n, "reachable": got}
        out.append((record, None if got == expected else f"reachable {got} != {expected}"))
        top = basic.max_dimension(n)
        out.append((record, None if largest[n] == top else f"max s(D) {largest[n]} != {top}"))
    return out


# ---------------------------------------------------------------------------
# The workload table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    systems: tuple[tuple[str, int], ...]   # warmed by the set-up
    make_inputs: Callable[[int, int], list[list]]
    rounds: int                            # rounds in one pass over the inputs
    trace_rounds: int                      # rounds the traced run executes
    tail_percentile: float                 # leaves at least ten checks of a pass beyond it
    round_verdicts: Callable[[list], list] | None = None


# On the 2-core machine the benchmark was tuned on, one pass takes 3-6 s
# (orbit-rank: 12-20 s), so a 30 s run makes five to ten (orbit-rank: two).
# orbit-rank's many rounds average its inputs' costs over more draws.
WORKLOADS = {
    w.name: w for w in (
        Workload("orbit-sampling",
                 tuple(dict.fromkeys(_chart_systems() + [("A", n) for n in DECOMPOSE_N])),
                 orbit_sampling_inputs, rounds=3, trace_rounds=2,
                 tail_percentile=99.0),
        Workload("orbit-rank", tuple(dict.fromkeys(RANDOM_SYSTEMS + ORBIT_SYSTEMS)),
                 orbit_rank_inputs, rounds=16, trace_rounds=2, tail_percentile=90.0),
        Workload("basic-scan", tuple(("A", n) for n in SCAN_N), basic_scan_inputs,
                 rounds=1, trace_rounds=1, tail_percentile=99.0,
                 round_verdicts=scan_round_verdicts),
    )
}


def warm(workload: Workload) -> None:
    """Fill the caches the workload's checks rely on: bracket tables, ad-chains, singular data."""
    for kind, n in workload.systems:
        system = _system(kind, n)
        roots.structure_table(kind, n)
        functionals.coadjoint_apply_one(
            system.roots[0], 1, functionals.e_star(system, system.roots[-1]))
        for alpha in system.roots:
            orbits.singular_set(kind, n, alpha)
