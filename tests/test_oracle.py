"""Oracle determinism, sign certification, and suite plumbing."""

import json

import pytest

from coadorbits.functionals import orbit_dimension
from coadorbits.oracle import (
    AmbiguousSignConventionError,
    SuiteConfig,
    UnknownSuiteError,
    random_orbit_point,
    resolve_sign_conventions,
    run_suite,
)
from coadorbits.orbits import singular_set
from coadorbits.roots import RootSystemKind, diff, get_system, sum_root


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
