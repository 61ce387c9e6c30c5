"""Oracle determinism, sign certification, and suite plumbing."""

import json
import random
import re
from fractions import Fraction

import pytest

import coadorbits.oracle as oracle
from coadorbits import cli, roots
from coadorbits.basic import count_basic_subsets, enumerate_basic_subsets, nth_basic_subset
from coadorbits.basic import basic_subset, decompose
from coadorbits.functionals import (GroupWord, coadjoint_apply, e_star, functional_from_json,
                                    functional_to_json, orbit_dimension, root_rationals_from_json,
                                    word_from_json, word_to_json)
from coadorbits.oracle import (
    _SUITES,
    MAX_N,
    MAX_SCAN_N,
    AmbiguousSignConventionError,
    UnknownSuiteError,
    random_orbit_point,
    resolve_sign_conventions,
    run_suite,
)
from coadorbits.orbits import ZeroScalarError, singular_set
from coadorbits.roots import (InvalidRootError, RootSystemKind, diff, get_system, parse_root,
                              sum_root)


def test_zero_length_word_gives_base_point():
    word = GroupWord()
    f = coadjoint_apply(word, e_star(get_system("A", 4), diff(1, 4), 2))
    assert len(word) == 0
    assert f.values == {diff(1, 4): 2}


def test_same_seed_same_output():
    a = random_orbit_point("B", 3, sum_root(1, 3), 1, seed=99)
    b = random_orbit_point("B", 3, sum_root(1, 3), 1, seed=99)
    assert a == b
    c = random_orbit_point("B", 3, sum_root(1, 3), 1, seed=100)
    assert a != c


def test_orbit_points_preserve_dimension():
    for kind in ("A", "B", "D"):
        system = get_system(kind, 3)
        for alpha in system.roots:
            f, _ = random_orbit_point(kind, 3, alpha, 1, seed=f"dim:{kind}:{alpha}")
            assert orbit_dimension(f) == len(singular_set(kind, 3, alpha).singular)


def test_word_parameters_are_small_nonzero_integers():
    _, word = random_orbit_point("A", 5, diff(1, 5), 1, seed=5)
    assert len(word) == 2 * len(get_system("A", 5).roots)
    for _, t in word.letters:
        assert t.denominator == 1
        assert 1 <= abs(t.numerator) <= 3


def test_resolve_sign_conventions_certifies_constant_minus():
    rules = resolve_sign_conventions(n_max=4, trials=8, seed=2024)
    assert rules == {"B": "constant-minus", "D": "constant-minus"}
    assert rules[RootSystemKind.B.value] == "constant-minus"


def test_resolve_sign_conventions_stable_across_seed_ranges():
    a = resolve_sign_conventions(n_max=4, trials=6, seed=1)
    b = resolve_sign_conventions(n_max=4, trials=6, seed=7_000_000)
    assert a == b


def test_resolve_sign_conventions_ambiguous_at_n3():
    # with only n = 3 exercised, several alternating rules coincide with the
    # certified one on every term, so nothing unique can be returned
    with pytest.raises(AmbiguousSignConventionError):
        resolve_sign_conventions(n_max=3, trials=6, seed=5)
    with pytest.raises(ValueError):
        resolve_sign_conventions(n_max=2)


@pytest.mark.parametrize("options", [dict(trials=0), dict(trials=-3)])
def test_resolve_sign_conventions_needs_a_trial(options):
    # trials=0 used to raise AmbiguousSignConventionError listing all six
    # rules and advising to raise n_max.
    with pytest.raises(ValueError, match="trials >= 1, got"):
        resolve_sign_conventions(n_max=4, **options)


# A value past Python's int-digit limit in a bare f-string raises Python's
# conversion error in place of the library's own message; each lower-bound
# message echoes it by its bit length.
_HUGE_NEGATIVE = -10**5000
_HUGE_ECHO = "an int of 16610 bits"


def test_resolve_sign_conventions_echoes_a_huge_negative_trials():
    with pytest.raises(ValueError, match=f"^certification needs trials >= 1, got {_HUGE_ECHO}$"):
        resolve_sign_conventions(n_max=4, trials=_HUGE_NEGATIVE)


def test_run_suite_echoes_a_huge_negative_max_n():
    with pytest.raises(ValueError, match=f"^max_n must be at least 2, got {_HUGE_ECHO}$"):
        run_suite("dimension-formulas", max_n=_HUGE_NEGATIVE)


def test_run_suite_echoes_a_huge_negative_trials():
    with pytest.raises(ValueError, match=f"^trials must be non-negative, got {_HUGE_ECHO}$"):
        run_suite("decompose-roundtrip", trials=_HUGE_NEGATIVE)


def test_two_dim_support_runner_echoes_a_huge_negative_max_n():
    message = f"^max_n must be at least 4 for two-dim-support, got {_HUGE_ECHO}$"
    with pytest.raises(ValueError, match=message):
        oracle._suite_two_dim_support(oracle.DEFAULT_SEED, max_n=_HUGE_NEGATIVE, trials=1)


# Sizes past MAX_N, each with its echo in the error; the last is past
# Python's int-digit limit, so it is echoed by its bit length.
_TOO_LARGE = [pytest.param(MAX_N + 1, str(MAX_N + 1), id="bound+1"),
              pytest.param(10**6, str(10**6), id="million"),
              pytest.param(10**5000, "an int of 16610 bits", id="digit-limit")]


@pytest.mark.parametrize("n_max, shown", _TOO_LARGE)
def test_resolve_sign_conventions_is_bounded_before_it_starts(monkeypatch, n_max, shown):
    built = []
    monkeypatch.setattr(oracle, "_orbit_points", lambda *a, **k: built.append(a) or iter(()))
    monkeypatch.setattr(oracle, "_paper_form", lambda *a, **k: built.append(a))
    message = f"^certification needs 3 <= n_max <= {MAX_N}, got {shown}$"
    with pytest.raises(ValueError, match=message):
        resolve_sign_conventions(n_max=n_max)
    assert built == []


@pytest.mark.parametrize("options", [dict(n_max=4.0), dict(n_max="4"), dict(n_max=True),
                                     dict(trials=2.0), dict(trials=None), dict(trials=True)])
def test_resolve_sign_conventions_needs_int_options(options):
    with pytest.raises(ValueError, match="must be an int, got"):
        resolve_sign_conventions(**options)


@pytest.mark.parametrize("c", [0, "0", "-0/3"])
def test_random_orbit_point_at_zero_raises_the_chart_error(c):
    with pytest.raises(ZeroScalarError):
        random_orbit_point("A", 3, diff(1, 3), c)


def test_unknown_suite():
    with pytest.raises(UnknownSuiteError):
        run_suite("no-such-suite")


@pytest.mark.parametrize(
    "name,config",
    [
        ("chart-soundness", dict(max_n=3, trials=5)),
        ("dimension-formulas", dict(max_n=4)),
        ("decompose-roundtrip", dict(max_n=4, trials=20)),
        ("single-orbit-scan", dict(max_n=4, trials=3)),
        ("two-dim-support", dict(max_n=5, trials=20)),
        ("achievable-dims", dict(max_n=6)),
    ],
)
def test_suites_pass_at_reduced_scale(name, config):
    report = run_suite(name, **config)
    assert not report.failures, report.failures[:3]
    assert report.verdict == "pass"
    assert report.trials > 0


@pytest.mark.parametrize("name, options", [("dimension-formulas", {}),
                                           ("chart-soundness", {"trials": 3})])
def test_kind_names_run_as_their_kinds(name, options):
    named = run_suite(name, kinds=("A",), max_n=3, **options)
    typed = run_suite(name, kinds=(RootSystemKind.A,), max_n=3, **options)
    assert not named.failures and named.trials > 0
    assert json.dumps(named.to_json(), sort_keys=True) == json.dumps(typed.to_json(), sort_keys=True)
    with pytest.raises(InvalidRootError, match="unknown root system kind 'Q'"):
        run_suite(name, kinds=("Q",), max_n=3, **options)


def test_explicit_zero_trials_is_not_the_default():
    report = run_suite("chart-soundness", max_n=3, trials=0)
    assert report.trials == 0
    assert report.parameters["trials_per_alpha"] == 0
    assert not report.failures


def test_reports_are_reproducible_byte_for_byte():
    options = dict(seed=77, max_n=3, trials=4)
    first = json.dumps(run_suite("chart-soundness", **options).to_json(), sort_keys=True)
    second = json.dumps(run_suite("chart-soundness", **options).to_json(), sort_keys=True)
    assert first == second
    assert json.loads(first)["parameters"]["seed"] == 77


def test_report_records_failures_with_replay_data():
    # force a failure by checking wrong-sign equations against sampled points
    from coadorbits.orbits import _satisfies
    from coadorbits.functionals import functional_to_json
    from coadorbits.oracle import _paper_form

    alpha = sum_root(1, 2)
    bad_form = _paper_form("B", 4, alpha, "alternating")
    failures = []
    for t in range(10):
        stamp = f"replay:{t}"
        point, word = random_orbit_point("B", 4, alpha, 1, seed=stamp)
        if not _satisfies(bad_form, Fraction(1), point):
            failures.append({"seed": stamp, "functional": functional_to_json(point)})
    assert failures, "the rejected sign rule must fail on sampled points"
    replayed, _ = random_orbit_point("B", 4, alpha, 1, seed=failures[0]["seed"])
    assert functional_to_json(replayed) == failures[0]["functional"]


# A value of each option that a suite reading it accepts; () and 0 check
# that an explicit empty value counts as given.
_GIVEN = {"kinds": (), "max_n": 4, "trials": 0}


@pytest.mark.parametrize("name", list(_SUITES))
def test_a_suite_rejects_every_option_it_does_not_read(name):
    _, defaults, _ = _SUITES[name]
    options = oracle._OPTIONS
    assert options == _GIVEN.keys() and defaults.keys() <= options
    for option in sorted(options - defaults.keys()):
        with pytest.raises(ValueError, match=f"^suite {name} does not read the option {option}$"):
            run_suite(name, **{option: _GIVEN[option]})


def test_an_option_given_as_none_takes_the_default():
    # achievable-dims reads only max_n; None for kinds and trials is no option at all.
    plain = run_suite("achievable-dims", max_n=3)
    assert run_suite("achievable-dims", kinds=None, max_n=3, trials=None) == plain
    assert run_suite("achievable-dims", max_n=None).parameters["max_n"] == _SUITES[
        "achievable-dims"][1]["max_n"]
    # A name no suite reads is a mistake, not a default.
    with pytest.raises(ValueError, match="^suite achievable-dims does not read the option trails$"):
        run_suite("achievable-dims", max_n=3, trails=None)


@pytest.mark.parametrize("name, options, message", [
    ("dimension-formulas", dict(max_n=3.0), "max_n must be an int, got 3.0"),
    ("decompose-roundtrip", dict(max_n=3, trials=2.5), "trials must be an int, got 2.5"),
    ("decompose-roundtrip", dict(max_n=3, trials=True), "trials must be an int, got True"),
    ("achievable-dims", dict(max_n=True), "max_n must be an int, got True"),
    ("two-dim-support", dict(max_n="5"), "max_n must be an int, got '5'"),
])
def test_a_non_int_max_n_or_trials_is_rejected_before_the_suite_runs(
        monkeypatch, name, options, message):
    _, defaults, bound = _SUITES[name]
    ran = []
    monkeypatch.setitem(_SUITES, name, (lambda *a, **k: ran.append(1), defaults, bound))
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_suite(name, **options)
    assert ran == []


@pytest.mark.parametrize("kinds, message", [
    ("BD", "kinds must be a collection of kinds, got 'BD'"),
    ("B", "kinds must be a collection of kinds, got 'B'"),
    (3, "kinds must be a collection of kinds, got 3"),
    (RootSystemKind.B, "kinds must be a collection of kinds, got <RootSystemKind.B: 'B'>"),
])
def test_kinds_that_are_a_string_or_not_iterable_are_rejected_before_the_suite_runs(
        monkeypatch, kinds, message):
    _, defaults, bound = _SUITES["dimension-formulas"]
    ran = []
    monkeypatch.setitem(_SUITES, "dimension-formulas",
                        (lambda *a, **k: ran.append(1), defaults, bound))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_suite("dimension-formulas", kinds=kinds, max_n=2)
    assert ran == []


@pytest.mark.parametrize("kinds, expected", [
    (("A",), ["A"]),
    (["B", "D"], ["B", "D"]),
    ((RootSystemKind.D, "A"), ["D", "A"]),
])
def test_kinds_given_as_a_collection_of_names_or_kinds_run(kinds, expected):
    report = run_suite("dimension-formulas", kinds=kinds, max_n=2)
    assert not report.failures and report.parameters["kinds"] == expected


@pytest.mark.parametrize("name,key", [
    ("chart-soundness", "trials_per_alpha"),
    ("decompose-roundtrip", "trials_per_n"),
    ("single-orbit-scan", "random_phis"),
    ("two-dim-support", "trials_per_n"),
])
def test_explicit_zero_trials_wins_wherever_it_is_read(name, key):
    assert "trials" in _SUITES[name][1]
    report = run_suite(name, max_n=4, trials=0)
    assert report.parameters[key] == 0 and not report.failures
    # single-orbit-scan still checks the all-ones phi of every basic subset
    subsets = sum(len(list(enumerate_basic_subsets(n))) for n in range(2, 5))
    assert report.trials == (subsets if name == "single-orbit-scan" else 0)


def test_decompose_roundtrip_draws_the_subsets_a_list_would():
    # The same bound and the same index, so the same subset as drawing from
    # list(enumerate_basic_subsets(n)), and reports stay as they were.
    for n in range(2, 8):
        listed = list(enumerate_basic_subsets(n))
        for t in range(30):
            stamp = f"{oracle.DEFAULT_SEED}:decompose:{n}:{t}"
            drawn = nth_basic_subset(n, random.Random(stamp).randrange(count_basic_subsets(n)))
            assert drawn == listed[random.Random(stamp).randrange(len(listed))]


@pytest.mark.parametrize("name", ["chart-soundness", "dimension-formulas"])
def test_explicit_empty_kinds_wins(name):
    report = run_suite(name, kinds=(), max_n=3)
    assert report.parameters["kinds"] == [] and report.trials == 0


@pytest.mark.parametrize("name,bound", [("achievable-dims", MAX_SCAN_N), ("single-orbit-scan", 9),
                                        ("decompose-roundtrip", MAX_SCAN_N)])
def test_exponential_scans_are_bounded_before_they_start(monkeypatch, name, bound):
    # decompose-roundtrip once listed all Bell(n) basic subsets of each n and
    # accepted max_n up to MAX_N; it now counts them, and keeps the bound.
    listed = []
    monkeypatch.setattr(oracle, "enumerate_basic_subsets", lambda n: listed.append(n) or iter(()))
    monkeypatch.setattr(oracle, "count_basic_subsets", lambda n: listed.append(n) or 0)
    assert _SUITES[name][2] == bound
    with pytest.raises(ValueError, match=f"^max_n must be at most {bound} for {name}, got {bound + 1}$"):
        run_suite(name, max_n=bound + 1)
    assert listed == []


def test_the_library_and_the_cli_share_one_rank_bound():
    assert cli.MAX_N is MAX_N is roots.MAX_N == 24
    assert all(bound <= MAX_N for _, _, bound in _SUITES.values())


@pytest.mark.parametrize("name", list(_SUITES))
@pytest.mark.parametrize("max_n, shown", _TOO_LARGE)
def test_every_suite_is_bounded_before_it_starts(monkeypatch, name, max_n, shown):
    _, defaults, bound = _SUITES[name]
    ran = []
    monkeypatch.setitem(_SUITES, name,
                        (lambda *a, **k: ran.append(1) or ({}, [], 0), defaults, bound))
    message = f"^max_n must be at most {bound} for {name}, got {shown}$"
    with pytest.raises(ValueError, match=message):
        run_suite(name, max_n=max_n)
    assert ran == []
    run_suite(name, max_n=bound)
    assert ran == [1]


def test_certification_draws_each_point_once(monkeypatch):
    drawn = []
    real = oracle.random_orbit_point

    def spy(kind, n, alpha, c=1, seed=None):
        drawn.append(seed)
        return real(kind, n, alpha, c, seed=seed)

    monkeypatch.setattr(oracle, "random_orbit_point", spy)
    assert resolve_sign_conventions(n_max=4, trials=3, seed=2024) == {
        "B": "constant-minus", "D": "constant-minus"}
    assert drawn == [f"2024:signs:{kind}:{n}:{alpha}:{t}"
                     for kind in "BD" for n in (3, 4)
                     for alpha in get_system(kind, n).roots if alpha.tag == "sum"
                     for t in range(3)]


def test_chart_soundness_builds_each_chart_once(monkeypatch):
    built = []
    real = oracle.orbit_chart

    def spy(kind, n, alpha, c):
        built.append((n, alpha))
        return real(kind, n, alpha, c)

    monkeypatch.setattr(oracle, "orbit_chart", spy)
    report = run_suite("chart-soundness", kinds=(RootSystemKind.B,), max_n=3, trials=2)
    assert not report.failures and report.trials == 2 * len(built)
    assert built == [(n, alpha) for n in (2, 3) for alpha in get_system("B", n).roots]


def test_single_orbit_scan_draws_each_phi_just_before_its_rank(monkeypatch):
    # The 1 + trials phis of a subset used to be built as a list before the
    # first rank, so a large --trials allocated them all before any work.
    drawn, ranked = [], []
    real_phi, real_dimension = oracle._random_phi, oracle.orbit_dimension

    class Stop(Exception):
        pass

    def draw(subset, rng):
        drawn.append(subset)
        return real_phi(subset, rng)

    def rank(f):
        ranked.append(len(drawn))
        if len(ranked) == 6:
            raise Stop
        return real_dimension(f)

    monkeypatch.setattr(oracle, "_random_phi", draw)
    monkeypatch.setattr(oracle, "orbit_dimension", rank)
    with pytest.raises(Stop):
        run_suite("single-orbit-scan", max_n=3, trials=1000)
    # Each subset's all-ones phi is not drawn; each random one is drawn just before its rank.
    assert ranked == [0, 0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# Failure records: each suite's failure sites, forced by patching what it checks
# ---------------------------------------------------------------------------

def _failed(name, **options):
    """The suite's report, which must fail; every record must survive json.dumps."""
    report = run_suite(name, **options)
    assert report.verdict == "fail" and report.to_json()["verdict"] == "fail"
    assert json.loads(json.dumps(report.to_json()))["failures"] == report.failures
    return report.failures


def _rebuilt(record):
    """The record's functional and word read back by the JSON readers, which must agree."""
    f = functional_from_json(record["functional"])
    assert functional_to_json(f) == record["functional"]
    if "word" not in record:
        return f, None
    word = word_from_json(record["word"])
    assert word_to_json(word) == record["word"]
    return f, word


def test_chart_soundness_records_a_point_its_word_replays(monkeypatch):
    monkeypatch.setattr(oracle, "contains", lambda chart, point: False)
    failures = _failed("chart-soundness", kinds=("B",), max_n=2, trials=2)
    system = get_system("B", 2)
    assert [(r["kind"], r["n"], r["alpha"]) for r in failures] == [
        ("B", 2, str(alpha)) for alpha in system.roots for _ in range(2)]
    for record in failures:
        alpha = parse_root(record["alpha"])
        assert record["seed"].startswith(f"{oracle.DEFAULT_SEED}:chart-soundness:B:2:{alpha}:")
        assert record["detail"] == f"orbit point escapes the {alpha} chart"
        point, word = _rebuilt(record)
        assert coadjoint_apply(word, e_star(system, alpha, 1)) == point


def test_dimension_formulas_records_a_wrong_closed_form_and_a_wrong_rank(monkeypatch):
    monkeypatch.setattr(oracle, "singular_size_formula", lambda kind, n, alpha: -1)
    failures = _failed("dimension-formulas", kinds=("A",), max_n=3)
    assert failures == [dict(seed="-", detail="singular set size disagrees with the closed form",
                             kind="A", n=n, alpha=str(alpha))
                        for n in (2, 3) for alpha in get_system("A", n).roots]
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "orbit_dimension", lambda f: 99)
    failures = _failed("dimension-formulas", kinds=("D",), max_n=2)
    expected = len(singular_set("D", 2, sum_root(1, 2)).singular)
    assert failures == [dict(seed="-", detail=f"rank 99 != |S(alpha)| {expected}", kind="D",
                             n=2, alpha=str(alpha), c=c)
                        for alpha in get_system("D", 2).roots for c in ("1", "2", "-3/5")]


def test_decompose_roundtrip_records_the_moved_functional(monkeypatch):
    # A decomposition that always finds the empty subset.
    monkeypatch.setattr(oracle, "decompose", lambda f: decompose(f.scaled(0)))
    failures = _failed("decompose-roundtrip", max_n=3, trials=6)
    assert failures
    for record in failures:
        assert record["detail"] == "decomposition did not recover (D, phi)"
        assert record["seed"].startswith(f"{oracle.DEFAULT_SEED}:decompose:{record['n']}:")
        assert record["got_roots"] == [] and record["expected_roots"]
        moved, word = _rebuilt(record)
        assert moved.system == get_system("A", record["n"])
        assert [str(r) for r in decompose(moved).subset.roots] == record["expected_roots"]


def test_single_orbit_scan_records_the_subset_and_its_phi(monkeypatch):
    monkeypatch.setattr(oracle, "orbit_dimension", lambda f: 10 ** 6)
    failures = _failed("single-orbit-scan", max_n=3, trials=1)
    # Every subset's all-ones phi, then one random phi for each nonempty subset.
    assert len(failures) == sum(1 + bool(d.roots) for n in (2, 3)
                                for d in enumerate_basic_subsets(n))
    for record in failures:
        assert record["seed"] == "-" and record["detail"].startswith("dimension 1000000 vs s(D)=")
        subset = basic_subset(record["n"], map(parse_root, record["roots"]))
        phi = root_rationals_from_json(record["phi"])
        assert [str(r) for r in subset.roots] == record["roots"] == [str(r) for r in phi]


def test_two_dim_support_records_the_functional_with_its_forced_root(monkeypatch):
    monkeypatch.setattr(oracle, "orbit_dimension", lambda f: 0)
    failures = _failed("two-dim-support", max_n=5, trials=3)
    assert [record["n"] for record in failures] == [4, 4, 4, 5, 5, 5]
    for record in failures:
        assert record["detail"] == "far-supported functional has orbit dimension 0 < 4"
        assert record["seed"].startswith(f"{oracle.DEFAULT_SEED}:two-dim:{record['n']}:")
        f, word = _rebuilt(record)
        forced = parse_root(record["forced"])
        assert word is None and f.value(forced) and forced.j - forced.i > 2


def test_achievable_dims_records_a_wrong_dimension_set_and_a_wrong_maximum(monkeypatch):
    monkeypatch.setattr(oracle, "achievable_dimensions", lambda n: [])
    failures = _failed("achievable-dims", max_n=3)
    detail = "scanned dimension set disagrees with the closed form"
    assert failures == [dict(seed="-", detail=detail, n=2, scanned=[0], expected=[]),
                        dict(seed="-", detail=detail, n=3, scanned=[0, 2], expected=[])]
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "max_dimension", lambda n: -1)
    failures = _failed("achievable-dims", max_n=3)
    assert failures == [dict(seed="-", detail=f"max s(D) {top} != -1", n=n)
                        for n, top in ((2, 0), (3, 2))]
