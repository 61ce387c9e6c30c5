"""Brute-force verification harness.

Every closed form shipped by the package has an independent check here:
randomized orbit sampling through literal group words, exhaustive scans over
small parameters, and an empirical certification of the sign convention used
in the quadratic tails of sum-root charts. All arithmetic is exact and every
suite is deterministic under a fixed seed, so any failure is replayable from
the serialized counterexample alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable

from .basic import (
    achievable_dimensions,
    basic_map,
    basic_point,
    decompose,
    derived_set,
    enumerate_basic_subsets,
    max_dimension,
    s_of,
)
from .functionals import (
    Functional,
    GroupWord,
    _frac,
    coadjoint_apply,
    e_star,
    functional,
    functional_to_json,
    group_word,
    orbit_dimension,
    word_to_json,
)
from .orbits import OrbitChart, contains, orbit_chart, singular_set, singular_size_formula
from .polynomials import Polynomial
from .roots import (DIFF, SUM, PositiveRoot, RootSystemKind, _as_kind, diff, get_system, short,
                    sum_root)

DEFAULT_SEED = 314159

# Largest n of an exhaustive scan over type-A basic subsets: there are
# Bell(n) of them, and achievable-dims at n = 12 takes 91 s on a 2-core host.
MAX_SCAN_N = 12

_NONZERO_INTS = (-3, -2, -1, 1, 2, 3)


class UnknownSuiteError(ValueError):
    """No verification suite with that name."""


class AmbiguousSignConventionError(RuntimeError):
    """Zero or several sign rules survived certification; nothing is guessed."""


@dataclass(frozen=True)
class OracleReport:
    check_name: str
    parameters: dict
    trials: int
    failures: list = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "pass" if not self.failures else "fail"

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "check_name": self.check_name,
            "parameters": self.parameters,
            "trials": self.trials,
            "failures": self.failures,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class SignConvention:
    """Certified sign rule per kind for the sum-root chart tails."""

    rules: dict[str, str]


@dataclass
class SuiteConfig:
    """Options of a suite run. None picks the suite's default; a suite that
    does not read a given option rejects it (see _SUITES)."""

    kinds: tuple[RootSystemKind | str, ...] | None = None
    max_n: int | None = None
    trials: int | None = None
    seed: int = DEFAULT_SEED


# ---------------------------------------------------------------------------
# Randomized sampling
# ---------------------------------------------------------------------------

def random_word(system, rng: random.Random, length: int) -> GroupWord:
    """Uniform roots, exact integer parameters in {-3..3} minus zero."""
    letters = [
        (system.roots[rng.randrange(len(system.roots))], Fraction(rng.choice(_NONZERO_INTS)))
        for _ in range(length)
    ]
    return group_word(letters)


def default_word_length(system) -> int:
    # Long enough to reach generic orbit points without letting numerators
    # grow past desk scale.
    return 2 * len(system.roots)


def random_orbit_point(
    kind: RootSystemKind | str,
    n: int,
    alpha: PositiveRoot,
    c=1,
    seed=DEFAULT_SEED,
    word_length: int | None = None,
) -> tuple[Functional, GroupWord]:
    """A deterministic random point of the orbit through c * e*_alpha, with its word."""
    system = get_system(kind, n)
    system.check_member(alpha)
    c = _frac(c)
    if c == 0:
        raise ValueError("need a nonzero scalar")
    rng = random.Random(seed)
    length = default_word_length(system) if word_length is None else word_length
    word = random_word(system, rng, length)
    return coadjoint_apply(word, e_star(system, alpha, c)), word


def _orbit_points(prefix: str, kind: RootSystemKind, ns, trials: int, tag: str | None = None):
    """Yield (n, alpha, stamp, point, word): trials random orbit points through e*_alpha
    for each n in ns and each alpha of the tag (any if None), seeded by the stamps
    "{prefix}:{kind}:{n}:{alpha}:{t}", one alpha after another."""
    for n in ns:
        for alpha in get_system(kind, n).roots:
            if tag is not None and alpha.tag != tag:
                continue
            for t in range(trials):
                stamp = f"{prefix}:{kind.value}:{n}:{alpha}:{t}"
                point, word = random_orbit_point(kind, n, alpha, 1, seed=stamp)
                yield n, alpha, stamp, point, word


def random_functional(system, rng: random.Random, force_root: PositiveRoot | None = None) -> Functional:
    """Sparse random functional with small integer values (half density)."""
    values = {}
    for root in system.roots:
        if rng.randrange(2):
            values[root] = Fraction(rng.choice(_NONZERO_INTS))
    if force_root is not None:
        values[force_root] = Fraction(rng.choice(_NONZERO_INTS))
    return functional(system, values)


def _random_phi(subset, rng: random.Random):
    return {
        root: Fraction(rng.choice(_NONZERO_INTS), rng.choice((1, 2, 3)))
        for root in subset.roots
    }


# ---------------------------------------------------------------------------
# Sign-convention certification
# ---------------------------------------------------------------------------

# Candidate signs of the quadratic tail of sum-root charts: each rule maps
# (k, j) -> +/-1 for the term indexed by k in the tail sum over k = j+1 .. n.
SIGN_RULES: dict[str, Callable[[int, int], int]] = {
    "alternating": lambda k, j: (-1) ** k,
    "alternating-negated": lambda k, j: -((-1) ** k),
    "alternating-offset": lambda k, j: (-1) ** (k - j),
    "alternating-offset-negated": lambda k, j: -((-1) ** (k - j)),
    "constant-minus": lambda k, j: -1,
    "constant-plus": lambda k, j: 1,
}

# The rule that orbits.orbit_chart's derivation reproduces; certified
# against brute-force orbit sampling for both B and D (CONVENTIONS.md).
CERTIFIED_SIGN_RULE = "constant-minus"


def _paper_chart(kind, n: int, alpha: PositiveRoot, rule: str) -> OrbitChart:
    """The level-1 chart of a sum root e_i + e_j in the paper's printed form.

    The derived chart, with the constraint at each e_r - e_j (i <= r < j)
    replaced by f(e_r + e_j) times the tail under the named sign rule, where
    f(e_i + e_j) is 1.
    """
    sign = SIGN_RULES[rule]
    chart = orbit_chart(kind, n, alpha, 1)
    i, j = alpha.i, alpha.j
    x, pos = Polynomial.var, chart.system.index_of
    tail = Polynomial.zero()
    if chart.system.kind is RootSystemKind.B:
        tail = Fraction(-1, 2) * x(pos(short(i))) * x(pos(short(i)))
    for k in range(j + 1, n + 1):
        tail = tail + sign(k, j) * x(pos(diff(i, k))) * x(pos(sum_root(i, k)))
    constraints = dict(chart.constraints)
    for r in range(i, j):
        constraints[diff(r, j)] = (x(pos(sum_root(r, j))) if r > i else 1) * tail
    return replace(chart, constraints=constraints)


def resolve_sign_conventions(
    n_max: int = 4, trials: int = 50, seed=DEFAULT_SEED
) -> SignConvention:
    """Certify the tail sign rule empirically, per kind.

    Every candidate rule is tested against sampled orbit points of every
    sum root with n <= n_max; the unique rule with zero failures wins. With
    n_max < 4 some candidates coincide on every exercised term and the
    ambiguity is surfaced as an error rather than resolved by fiat. Each
    point is drawn once and tested against every rule still standing.
    """
    if n_max < 3:
        raise ValueError("certification needs n_max >= 3")
    rules: dict[str, str] = {}
    for kind in (RootSystemKind.B, RootSystemKind.D):
        survivors = sorted(SIGN_RULES)
        key = None
        for n, alpha, _, point, _ in _orbit_points(
                f"{seed}:signs", kind, range(3, n_max + 1), trials, SUM):
            if key != (n, alpha):
                key = (n, alpha)
                charts = {rule: _paper_chart(kind, n, alpha, rule) for rule in survivors}
            survivors = [rule for rule in survivors if contains(charts[rule], point)]
        if len(survivors) != 1:
            raise AmbiguousSignConventionError(
                f"kind {kind.value}: surviving rules {survivors} (need exactly one); "
                f"raise n_max to separate them"
            )
        rules[kind.value] = survivors[0]
    return SignConvention(rules)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def run_suite(name: str, config: SuiteConfig | None = None) -> OracleReport:
    """Run a suite with the options it reads merged over its defaults.

    A given option that the suite does not read raises ValueError, as do a
    max_n below 2 or above the suite's bound and a negative trials. A kind
    may be given by name; an unknown one raises InvalidRootError.
    """
    config = config or SuiteConfig()
    try:
        runner, defaults, bound = _SUITES[name]
    except KeyError:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}"
        ) from None
    given = {option: value for option, value in vars(config).items()
             if option != "seed" and value is not None}
    unread = sorted(given.keys() - defaults.keys())
    if unread:
        raise ValueError(f"suite {name} does not read the option {', '.join(unread)}")
    options = {**defaults, **given}
    if "kinds" in options:
        options["kinds"] = tuple(_as_kind(kind) for kind in options["kinds"])
    max_n = options["max_n"]
    if max_n < 2:
        raise ValueError(f"max_n must be at least 2, got {max_n}")
    if bound is not None and max_n > bound:
        raise ValueError(f"max_n must be at most {bound} for {name}, got {max_n}")
    if options.get("trials", 0) < 0:
        raise ValueError(f"trials must be non-negative, got {options['trials']}")
    parameters, failures, total = runner(config.seed, **options)
    return OracleReport(name, parameters, total, failures)


def _suite_chart_soundness(seed, kinds, max_n, trials):
    failures = []
    total = 0
    for kind in kinds:
        key = None
        for n, alpha, stamp, point, word in _orbit_points(
                f"{seed}:chart-soundness", kind, range(2, max_n + 1), trials):
            if key != (n, alpha):
                key = (n, alpha)
                chart = orbit_chart(kind, n, alpha, 1)
            total += 1
            if not contains(chart, point):
                failures.append(dict(
                    seed=stamp, detail=f"orbit point escapes the {alpha} chart",
                    kind=kind.value, n=n, alpha=str(alpha), word=word_to_json(word),
                    functional=functional_to_json(point)))
    return ({"kinds": [k.value for k in kinds], "max_n": max_n,
             "trials_per_alpha": trials, "c": "1", "seed": seed}, failures, total)


def _suite_dimension_formulas(seed, kinds, max_n):
    failures = []
    total = 0
    for kind in kinds:
        for n in range(2, max_n + 1):
            system = get_system(kind, n)
            for alpha in system.roots:
                expected = len(singular_set(kind, n, alpha).singular)
                if expected != singular_size_formula(kind, n, alpha):
                    failures.append(dict(
                        seed="-", detail="singular set size disagrees with the closed form",
                        kind=kind.value, n=n, alpha=str(alpha)))
                for c in (Fraction(1), Fraction(2), Fraction(-3, 5)):
                    total += 1
                    got = orbit_dimension(e_star(system, alpha, c))
                    if got != expected:
                        failures.append(dict(
                            seed="-", detail=f"rank {got} != |S(alpha)| {expected}",
                            kind=kind.value, n=n, alpha=str(alpha), c=str(c)))
    return {"kinds": [k.value for k in kinds], "max_n": max_n, "seed": seed}, failures, total


def _suite_decompose_roundtrip(seed, max_n, trials):
    failures = []
    for n in range(2, max_n + 1):
        system = get_system(RootSystemKind.A, n)
        subsets = list(enumerate_basic_subsets(n))
        for t in range(trials):
            stamp = f"{seed}:decompose:{n}:{t}"
            rng = random.Random(stamp)
            subset = subsets[rng.randrange(len(subsets))]
            phi = _random_phi(subset, rng)
            start = basic_point(basic_map(subset, phi)) if phi else functional(system, {})
            word = random_word(system, rng, default_word_length(system))
            moved = coadjoint_apply(word, start)
            result = decompose(moved)
            if result.subset != subset or result.map.phi != phi:
                failures.append(dict(
                    seed=stamp, detail="decomposition did not recover (D, phi)", n=n,
                    expected_roots=[str(r) for r in subset.roots],
                    got_roots=[str(r) for r in result.subset.roots],
                    word=word_to_json(word), functional=functional_to_json(moved)))
    return {"max_n": max_n, "trials_per_n": trials, "seed": seed}, failures, (max_n - 1) * trials


def _suite_single_orbit_scan(seed, max_n, trials):
    failures = []
    total = 0
    for n in range(2, max_n + 1):
        for subset in enumerate_basic_subsets(n):
            s = s_of(subset)
            single = not derived_set(subset)
            phis = [{root: Fraction(1) for root in subset.roots}]
            for t in range(trials if subset.roots else 0):
                rng = random.Random(f"{seed}:single-orbit:{n}:{subset}:{t}")
                phis.append(_random_phi(subset, rng))
            for phi in phis:
                total += 1
                dim = orbit_dimension(basic_point(basic_map(subset, phi)))
                ok = (dim == s) if single else (dim < s)
                if not ok:
                    failures.append(dict(
                        seed="-", detail=f"dimension {dim} vs s(D)={s}, derived-free={single}",
                        n=n, roots=[str(r) for r in subset.roots],
                        phi={str(r): str(v) for r, v in phi.items()}))
    return {"max_n": max_n, "random_phis": trials, "seed": seed}, failures, total


def _suite_two_dim_support(seed, max_n, trials):
    if max_n < 4:
        raise ValueError(f"max_n must be at least 4 for two-dim-support, got {max_n}")
    failures = []
    for n in range(4, max_n + 1):
        system = get_system(RootSystemKind.A, n)
        far = [r for r in system.roots if r.tag == DIFF and r.j - r.i > 2]
        for t in range(trials):
            stamp = f"{seed}:two-dim:{n}:{t}"
            rng = random.Random(stamp)
            forced = far[rng.randrange(len(far))]
            f = random_functional(system, rng, force_root=forced)
            dim = orbit_dimension(f)
            if dim < 4:
                failures.append(dict(
                    seed=stamp, detail=f"far-supported functional has orbit dimension {dim} < 4",
                    n=n, forced=str(forced), functional=functional_to_json(f)))
    return {"max_n": max_n, "trials_per_n": trials, "seed": seed}, failures, (max_n - 3) * trials


def _suite_achievable_dims(seed, max_n):
    failures = []
    results = {}
    for n in range(2, max_n + 1):
        reachable = set()
        overall_max = 0
        for subset in enumerate_basic_subsets(n):
            s = s_of(subset)
            overall_max = max(overall_max, s)
            if not derived_set(subset):
                reachable.add(s)
        expected = achievable_dimensions(n)
        results[str(n)] = sorted(reachable)
        if sorted(reachable) != expected:
            failures.append(dict(
                seed="-", detail="scanned dimension set disagrees with the closed form",
                n=n, scanned=sorted(reachable), expected=expected))
        if overall_max != max_dimension(n):
            failures.append(dict(
                seed="-", detail=f"max s(D) {overall_max} != {max_dimension(n)}", n=n))
    return {"max_n": max_n, "seed": seed, "scanned": results}, failures, len(results)


# Each suite's runner, the options it reads with their defaults, and the
# largest max_n it accepts (None leaves only the CLI's bound). The two scans
# enumerate Bell(n) basic subsets, about 6x the time per step of n.
_ALL_KINDS = tuple(RootSystemKind)
_SUITES = {
    "chart-soundness": (
        _suite_chart_soundness, {"kinds": _ALL_KINDS, "max_n": 4, "trials": 100}, None),
    "dimension-formulas": (_suite_dimension_formulas, {"kinds": _ALL_KINDS, "max_n": 6}, None),
    "decompose-roundtrip": (_suite_decompose_roundtrip, {"max_n": 6, "trials": 200}, None),
    "single-orbit-scan": (_suite_single_orbit_scan, {"max_n": 5, "trials": 20}, 9),
    "two-dim-support": (_suite_two_dim_support, {"max_n": 6, "trials": 100}, None),
    "achievable-dims": (_suite_achievable_dims, {"max_n": 8}, MAX_SCAN_N),
}

SUITE_NAMES = tuple(_SUITES)
