"""Oracle determinism, sign certification, and suite plumbing."""

import json

import dataclasses

import pytest

import coadorbits.oracle as oracle
from coadorbits.basic import enumerate_basic_subsets
from coadorbits.functionals import orbit_dimension
from coadorbits.oracle import (
    _SUITES,
    MAX_SCAN_N,
    AmbiguousSignConventionError,
    SuiteConfig,
    UnknownSuiteError,
    random_orbit_point,
    resolve_sign_conventions,
    run_suite,
)
from coadorbits.orbits import singular_set
from coadorbits.roots import InvalidRootError, RootSystemKind, diff, get_system, sum_root


def test_zero_length_word_gives_base_point():
    f, word = random_orbit_point("A", 4, diff(1, 4), 2, seed=11, word_length=0)
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
    convention = resolve_sign_conventions(n_max=4, trials=8, seed=2024)
    assert convention.rules == {"B": "constant-minus", "D": "constant-minus"}
    assert convention.rules[RootSystemKind.B.value] == "constant-minus"


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


def test_unknown_suite():
    with pytest.raises(UnknownSuiteError):
        run_suite("no-such-suite")


@pytest.mark.parametrize(
    "name,config",
    [
        ("chart-soundness", SuiteConfig(max_n=3, trials=5)),
        ("dimension-formulas", SuiteConfig(max_n=4)),
        ("decompose-roundtrip", SuiteConfig(max_n=4, trials=20)),
        ("single-orbit-scan", SuiteConfig(max_n=4, trials=3)),
        ("two-dim-support", SuiteConfig(max_n=5, trials=20)),
        ("achievable-dims", SuiteConfig(max_n=6)),
    ],
)
def test_suites_pass_at_reduced_scale(name, config):
    report = run_suite(name, config)
    assert report.passed, report.failures[:3]
    assert report.verdict == "pass"
    assert report.trials > 0


@pytest.mark.parametrize("name, options", [("dimension-formulas", {}),
                                           ("chart-soundness", {"trials": 3})])
def test_kind_names_run_as_their_kinds(name, options):
    named = run_suite(name, SuiteConfig(kinds=("A",), max_n=3, **options))
    typed = run_suite(name, SuiteConfig(kinds=(RootSystemKind.A,), max_n=3, **options))
    assert named.passed and named.trials > 0
    assert json.dumps(named.to_json(), sort_keys=True) == json.dumps(typed.to_json(), sort_keys=True)
    with pytest.raises(InvalidRootError, match="unknown root system kind 'Q'"):
        run_suite(name, SuiteConfig(kinds=("Q",), max_n=3, **options))


def test_explicit_zero_trials_is_not_the_default():
    report = run_suite("chart-soundness", SuiteConfig(max_n=3, trials=0))
    assert report.trials == 0
    assert report.parameters["trials_per_alpha"] == 0
    assert report.passed


def test_reports_are_reproducible_byte_for_byte():
    cfg = SuiteConfig(max_n=3, trials=4, seed=77)
    first = json.dumps(run_suite("chart-soundness", cfg).to_json(), sort_keys=True)
    second = json.dumps(run_suite("chart-soundness", cfg).to_json(), sort_keys=True)
    assert first == second


def test_report_records_failures_with_replay_data():
    # force a failure by checking a wrong-sign chart against sampled points
    from coadorbits.orbits import contains
    from coadorbits.functionals import functional_to_json
    from coadorbits.oracle import _paper_chart

    alpha = sum_root(1, 2)
    bad_chart = _paper_chart("B", 4, alpha, "alternating")
    failures = []
    for t in range(10):
        stamp = f"replay:{t}"
        point, word = random_orbit_point("B", 4, alpha, 1, seed=stamp)
        if not contains(bad_chart, point):
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
    options = {f.name for f in dataclasses.fields(SuiteConfig)} - {"seed"}
    assert options == _GIVEN.keys() and defaults.keys() <= options
    for option in sorted(options - defaults.keys()):
        with pytest.raises(ValueError, match=f"^suite {name} does not read the option {option}$"):
            run_suite(name, SuiteConfig(**{option: _GIVEN[option]}))


@pytest.mark.parametrize("name,key", [
    ("chart-soundness", "trials_per_alpha"),
    ("decompose-roundtrip", "trials_per_n"),
    ("single-orbit-scan", "random_phis"),
    ("two-dim-support", "trials_per_n"),
])
def test_explicit_zero_trials_wins_wherever_it_is_read(name, key):
    assert "trials" in _SUITES[name][1]
    report = run_suite(name, SuiteConfig(max_n=4, trials=0))
    assert report.parameters[key] == 0 and report.passed
    # single-orbit-scan still checks the all-ones phi of every basic subset
    subsets = sum(len(list(enumerate_basic_subsets(n))) for n in range(2, 5))
    assert report.trials == (subsets if name == "single-orbit-scan" else 0)


@pytest.mark.parametrize("name", ["chart-soundness", "dimension-formulas"])
def test_explicit_empty_kinds_wins(name):
    report = run_suite(name, SuiteConfig(kinds=(), max_n=3))
    assert report.parameters["kinds"] == [] and report.trials == 0


@pytest.mark.parametrize("name,bound", [("achievable-dims", MAX_SCAN_N), ("single-orbit-scan", 9)])
def test_exponential_scans_are_bounded_before_they_start(name, bound):
    assert _SUITES[name][2] == bound
    with pytest.raises(ValueError, match=f"^max_n must be at most {bound} for {name}, got {bound + 1}$"):
        run_suite(name, SuiteConfig(max_n=bound + 1))


def test_certification_draws_each_point_once(monkeypatch):
    drawn = []
    real = oracle.random_orbit_point

    def spy(kind, n, alpha, c=1, seed=None):
        drawn.append(seed)
        return real(kind, n, alpha, c, seed=seed)

    monkeypatch.setattr(oracle, "random_orbit_point", spy)
    assert resolve_sign_conventions(n_max=4, trials=3, seed=2024).rules == {
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
    report = run_suite("chart-soundness", SuiteConfig(kinds=(RootSystemKind.B,), max_n=3, trials=2))
    assert report.passed and report.trials == 2 * len(built)
    assert built == [(n, alpha) for n in (2, 3) for alpha in get_system("B", n).roots]
