"""Command-line interface: outputs, formats, exit codes."""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import coadorbits
from coadorbits import cli
from coadorbits.cli import MAX_N, build_parser, main
from coadorbits.functionals import OddRankError
from coadorbits.oracle import AmbiguousSignConventionError
from coadorbits.roots import BracketDecompositionError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_text(capsys):
    code, out, _ = run_cli(capsys, "roots", "--kind", "B", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert lines[0] == "0: e1-e2"


def test_roots_single_line(capsys):
    code, out, _ = run_cli(capsys, "roots", "--kind", "A", "--n", "2")
    assert code == 0
    assert out.strip().splitlines() == ["0: e1-e2"]


def test_roots_json(capsys):
    code, out, _ = run_cli(capsys, "roots", "--kind", "D", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["roots"] == ["e1-e2", "e2-e3", "e1-e3", "e1+e2", "e1+e3", "e2+e3"]
    assert len(payload["roots"]) == 6


def test_chart_text_examples(capsys):
    code, out, _ = run_cli(capsys, "chart", "--kind", "A", "--n", "4", "--alpha", "e1-e4")
    assert code == 0
    assert "f(e2-e3) = f(e1-e3)*f(e2-e4)" in out
    code, out, _ = run_cli(capsys, "chart", "--kind", "B", "--n", "3", "--alpha", "e1")
    assert code == 0
    assert "f(e2-e3) = f(e1-e3)*f(e2)" in out
    code, out, _ = run_cli(capsys, "chart", "--kind", "A", "--n", "3", "--alpha", "e1-e2")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if not l.startswith("free")]
    assert "f(e1-e2) = 1" in lines
    assert all(l.endswith("= 1") or l.endswith("= 0") for l in lines)


def test_chart_b3_sum_root_certified_line(capsys):
    code, out, _ = run_cli(capsys, "chart", "--kind", "B", "--n", "3", "--alpha", "e1+e3")
    assert code == 0
    assert "f(e1-e3) = -1/2*f(e1)^2" in out


def test_chart_json_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "chart", "--kind", "B", "--n", "3", "--alpha", "e1+e3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["constraints"]["e1-e3"] == [["-1/2", ["e1", "e1"]]]


def test_chart_latex(capsys):
    code, out, _ = run_cli(
        capsys, "chart", "--kind", "A", "--n", "4", "--alpha", "e1-e4", "--format", "latex",
    )
    assert code == 0
    assert r"f(e_{\epsilon_{1}-\epsilon_{4}}) = 1" in out


def test_dim_command(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"kind": "A", "n": 4, "values": {"e1-e4": "1"}}))
    code, out, _ = run_cli(capsys, "dim", str(path))
    assert code == 0
    assert out.strip() == "4"
    code, out, _ = run_cli(capsys, "dim", str(path), "--format", "json")
    assert json.loads(out) == {"dimension": 4, "weyl_index": 2}


def test_decompose_command(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(
        {"kind": "A", "n": 5, "values": {"e1-e3": "2", "e2-e5": "-1/3"}}
    ))
    code, out, _ = run_cli(capsys, "decompose", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "n": 5, "roots": ["e1-e3", "e2-e5"], "phi": {"e1-e3": "2", "e2-e5": "-1/3"},
    }
    code, out, _ = run_cli(capsys, "decompose", str(path))
    assert "phi[e1-e3] = 2" in out


# Three keys that parse_root reads as e1-e4; the last one used to win.
ONE_ROOT_THREE_KEYS = {"e1-e4": "1", " e1-e4": "-3", "e01-e4": "5"}


@pytest.mark.parametrize("command", ["dim", "decompose"])
def test_a_root_named_twice_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"kind": "A", "n": 4, "values": ONE_ROOT_THREE_KEYS}))
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, command, str(path), "--format", fmt)
        assert (code, out) == (1, "")
        assert err == "coadorbits: error: keys 'e1-e4' and ' e1-e4' name the same root e1-e4\n"


def test_dims_command(capsys):
    code, out, _ = run_cli(capsys, "dims", "--n", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "0 2 4 6 8 10 12"
    assert lines[1] == "m: 0 1 2 3 4 5 6"
    code, out, _ = run_cli(capsys, "dims", "--n", "6", "--format", "json")
    payload = json.loads(out)
    assert payload["max_weyl_index"] == 6
    assert payload["dims"] == [0, 2, 4, 6, 8, 10, 12]


def test_verify_pass_and_json_report(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "dimension-formulas", "--max-n", "4",
    )
    assert code == 0
    assert "PASS" in out
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "achievable-dims", "--max-n", "5",
        "--format", "json", "--out", str(report_path),
    )
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["verdict"] == "pass"
    assert payload["check_name"] == "achievable-dims"


def test_verify_exit_code_two_on_failure(capsys, monkeypatch):
    import coadorbits.cli as cli_mod
    from coadorbits.oracle import OracleReport

    def fake_run_suite(name, seed, **options):
        return OracleReport(name, {}, 1, [{"detail": "forced"}])

    monkeypatch.setattr(cli_mod, "run_suite", fake_run_suite)
    code, out, _ = run_cli(capsys, "verify", "--suite", "chart-soundness")
    assert code == 2
    assert "FAIL" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_lists_ten_failures_and_counts_the_rest(capsys, monkeypatch, fmt):
    # Every rank is wrong: 3 checks of A2 and 9 of A3 fail.
    import coadorbits.oracle as oracle_mod

    monkeypatch.setattr(oracle_mod, "orbit_dimension", lambda f: 99)
    code, out, err = run_cli(capsys, "verify", "--suite", "dimension-formulas", "--kind", "A",
                             "--max-n", "3", "--format", fmt)
    assert code == 2 and err == ""
    if fmt == "json":
        report = json.loads(out)
        assert report["verdict"] == "fail" and len(report["failures"]) == 12
        return
    lines = out.splitlines()
    assert lines[0] == "suite dimension-formulas: FAIL (12 checks)"
    assert len(lines) == 12 and all(line.startswith("  failure: {") for line in lines[1:11])
    assert lines[-1] == "  ... and 2 more"


def test_dim_reports_an_odd_rank_with_exit_code_two(capsys, monkeypatch):
    # The rank check inside orbit_dimension, not a stand-in for it, raises.
    import coadorbits.functionals as functionals_mod

    monkeypatch.setattr(functionals_mod, "_echelon_form", lambda system, nums: {0: {0: 1}})
    code, out, err = run_cli(capsys, "dim", str(Path(__file__).parent / "golden" / "a5.json"))
    assert (code, out) == (2, "")
    assert err == "coadorbits: error: OddRankError: skew form has odd rank 1\n"


def test_verify_explicit_zero_trials_run_no_checks(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "two-dim-support", "--trials", "0")
    assert code == 0
    assert out == "suite two-dim-support: PASS (0 checks)\n"
    assert err == ""


@pytest.mark.parametrize("argv,message", [
    (["--suite", "chart-soundness", "--max-n", "0", "--trials", "1"], "max_n must be at least 2"),
    (["--suite", "chart-soundness", "--max-n", "1"], "max_n must be at least 2"),
    (["--suite", "two-dim-support", "--trials", "-5"], "trials must be non-negative"),
    (["--suite", "two-dim-support", "--max-n", "2"], "max_n must be at least 4"),
    (["--suite", "two-dim-support", "--max-n", "3"], "max_n must be at least 4"),
    (["--suite", "chart-soundness", "--max-n", str(MAX_N + 1)],
     f"--max-n must be at most {MAX_N}"),
    (["--suite", "achievable-dims", "--max-n", "13"],
     "max_n must be at most 12 for achievable-dims, got 13"),
    (["--suite", "single-orbit-scan", "--max-n", "10"],
     "max_n must be at most 9 for single-orbit-scan, got 10"),
    (["--suite", "two-dim-support", "--kind", "B"],
     "suite two-dim-support does not read the option kinds"),
    (["--suite", "dimension-formulas", "--max-n", "2", "--trials", "0"],
     "suite dimension-formulas does not read the option trials"),
])
def test_verify_rejects_out_of_range_sizes(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"coadorbits: error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["roots", "--kind", "B"],
    ["chart", "--kind", "A", "--alpha", "e1-e2"],
    ["dims"],
])
def test_rank_above_bound_is_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--n", str(MAX_N + 1))
    assert code == 1
    assert out == ""
    assert err == f"coadorbits: error: --n must be at most {MAX_N}, got {MAX_N + 1}\n"


def test_rank_bound_is_in_the_help_text():
    assert f"at most {MAX_N}" in build_parser().description


def test_usage_error_exit_code_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--kind", "Z", "--n", "3"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_domain_error_exit_code_one(capsys):
    code, _, err = run_cli(capsys, "roots", "--kind", "A", "--n", "1")
    assert code == 1
    assert "n >= 2" in err
    code, _, err = run_cli(capsys, "chart", "--kind", "A", "--n", "3", "--alpha", "e1")
    assert code == 1
    code, _, err = run_cli(
        capsys, "chart", "--kind", "A", "--n", "3", "--alpha", "e1-e3", "--c", "0",
    )
    assert code == 1
    assert "nonzero" in err


def test_missing_file_exit_code_one(capsys):
    code, _, err = run_cli(capsys, "dim", "/no/such/file.json")
    assert code == 1


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "roots.txt"
    code, out, _ = run_cli(
        capsys, "roots", "--kind", "A", "--n", "3", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().strip().splitlines()[0] == "0: e1-e2"


def test_negative_rational_option_value(capsys):
    # The --c help text's own example, written with a space, not as --c=-3/5.
    code, out, err = run_cli(
        capsys, "chart", "--kind", "A", "--n", "4", "--alpha", "e1-e4", "--c", "-3/5",
    )
    assert code == 0, err
    assert "f(e1-e4) = -3/5" in out
    assert run_cli(capsys, "chart", "--kind", "A", "--n", "4", "--alpha", "e1-e4",
                   "--c=-3/5")[1] == out


@pytest.mark.parametrize("value", [0.1, True, [1], "1e3000000", "1.5", "+2"])
def test_dim_rejects_non_string_rational(tmp_path, capsys, value):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"kind": "A", "n": 4, "values": {"e1-e2": value}}))
    code, out, err = run_cli(capsys, "dim", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("coadorbits: error: ") and err.count("\n") == 1
    assert "e1-e2" in err


@pytest.mark.parametrize("c", ["1e300000", "1.5", "-0.5", "+2", " 2", "1_000", "2/-3"])
def test_chart_c_is_held_to_the_rational_grammar(capsys, c):
    code, out, err = run_cli(capsys, "chart", "--kind", "A", "--n", "3", "--alpha", "e1-e3",
                             f"--c={c}")
    assert (code, out) == (1, "")
    assert err == f"coadorbits: error: Invalid literal for Fraction: {c!r}\n"


@pytest.mark.parametrize("c", ["1/0", "-3/00"])
def test_chart_c_with_a_zero_denominator_is_an_input_error(capsys, c):
    code, out, err = run_cli(capsys, "chart", "--kind", "A", "--n", "3", "--alpha", "e1-e3",
                             "--c", c)
    assert (code, out) == (1, "")
    assert err == f"coadorbits: error: rational string {c!r} has a zero denominator\n"


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="int string length unbounded")
def test_chart_c_over_long_is_an_input_error(capsys):
    c = "7" * (sys.get_int_max_str_digits() + 1)
    code, out, err = run_cli(capsys, "chart", "--kind", "A", "--n", "3", "--alpha", "e1-e3",
                             "--c", c)
    assert (code, out) == (1, "")
    assert err == f"coadorbits: error: rational string of {len(c)} characters is too long\n"


def test_dim_error_on_a_huge_value_is_one_short_line(tmp_path, capsys):
    digits = "7" * 100000
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"kind": "A", "n": 3, "values": {"e1-e3": digits}}))
    code, out, err = run_cli(capsys, "dim", str(path))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and len(err) < 200
    assert err.startswith("coadorbits: error: value of 'e1-e3' must be an exact rational string")
    assert err.endswith("... (100000 characters)\n")


DIGIT_LIMIT = pytest.mark.skipif(sys.get_int_max_str_digits() == 0,
                                 reason="int string length unbounded")


@pytest.mark.parametrize("key", [
    "x" * 100000,
    pytest.param("e" + "1" * 100000, marks=DIGIT_LIMIT),
    pytest.param("e1-e" + "2" * 100000, marks=DIGIT_LIMIT),
])
def test_dim_error_on_a_huge_root_key_is_one_short_line(tmp_path, capsys, key):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"kind": "A", "n": 3, "values": {key: "1"}}))
    code, out, err = run_cli(capsys, "dim", str(path))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and len(err) < 200
    assert err.startswith(f"coadorbits: error: cannot parse root '{key[:10]}")
    assert err.endswith(f"... ({len(key)} characters)\n")


@pytest.mark.parametrize("key, start, end", [
    ("e1-e" + "9" * 4000, "coadorbits: error: e1-e999",
     "... (4004 characters) is not a positive root of A with n=4\n"),
    ("e" + "9" * 4000 + "-e1", "coadorbits: error: need i < j, got (999",
     "... (4000 characters), 1)\n"),
], ids=["long-j", "long-i"])
def test_dim_error_on_a_long_root_index_is_one_short_line(tmp_path, capsys, key, start, end):
    # Indices under the int-digit limit parse, and the root errors cut them short.
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"kind": "A", "n": 4, "values": {key: "1"}}))
    code, out, err = run_cli(capsys, "dim", str(path))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and len(err) < 200
    assert err.startswith(start) and err.endswith(end)


@pytest.mark.parametrize("value", [4.7, 4.0, "4", True, None])
def test_dim_rejects_non_integer_n(tmp_path, capsys, value):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"kind": "A", "n": value, "values": {"e1-e4": "1"}}))
    code, out, err = run_cli(capsys, "dim", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("coadorbits: error: ") and err.count("\n") == 1
    assert "'n'" in err


@pytest.mark.parametrize("values", [[["e1-e4", "1"]], "ab"])
def test_dim_rejects_values_that_are_not_an_object(tmp_path, capsys, values):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"kind": "A", "n": 4, "values": values}))
    code, out, err = run_cli(capsys, "dim", str(path))
    assert code == 1
    assert out == ""
    assert err == (f"coadorbits: error: value of 'values' must be a JSON object, "
                   f"got {values!r}\n")


@pytest.mark.parametrize("command", ["dim", "decompose"])
def test_json_rank_above_bound_is_rejected(tmp_path, capsys, command):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"kind": "A", "n": MAX_N + 1, "values": {"e1-e2": "1"}}))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert err == f"coadorbits: error: value of 'n' must be at most {MAX_N}, got {MAX_N + 1}\n"


@pytest.mark.parametrize("command", ["dim", "decompose"])
def test_json_rank_far_above_bound_is_echoed_short(tmp_path, capsys, command):
    # A 4000-digit "n" is cut short, as a root error's value is.
    path = tmp_path / "f.json"
    path.write_text('{"kind": "A", "n": ' + "9" * 4000 + ', "values": {}}')
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert err == (f"coadorbits: error: value of 'n' must be at most {MAX_N}, "
                   f"got {'9' * 40}... (4000 characters)\n")


def test_flag_rank_far_above_bound_is_echoed_short(capsys):
    code, out, err = run_cli(capsys, "dims", "--n", "9" * 4000)
    assert code == 1
    assert out == ""
    assert err == (f"coadorbits: error: --n must be at most {MAX_N}, "
                   f"got {'9' * 40}... (4000 characters)\n")


@pytest.mark.parametrize("command", ["dim", "decompose"])
def test_deeply_nested_json_is_one_short_line(tmp_path, command):
    # json.load recurses once per level and raised RecursionError here; run as
    # a user runs it, so a traceback would reach stderr.
    path = tmp_path / "f.json"
    path.write_text("[" * 100000 + "]" * 100000)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-m", "coadorbits.cli", command, str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == "coadorbits: error: JSON nested too deeply\n"
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("command", ["dim", "decompose"])
@pytest.mark.parametrize("payload", [[1, 2], "A", 7])
def test_json_non_object_is_malformed(tmp_path, capsys, command, payload):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("coadorbits: error: malformed functional object") and err.count("\n") == 1


@pytest.mark.parametrize("error", [BracketDecompositionError])
def test_internal_consistency_error_exit_code_two(capsys, monkeypatch, error):
    import coadorbits.cli as cli_mod

    def failing_decompose(f):
        raise error("forced")

    monkeypatch.setattr(cli_mod, "decompose", failing_decompose)
    code, out, err = run_cli(capsys, "decompose", str(Path(__file__).parent / "golden" / "a5.json"))
    assert code == 2
    assert out == ""
    assert err == f"coadorbits: error: {error.__name__}: forced\n"


@pytest.mark.parametrize("error", [BracketDecompositionError, OddRankError])
def test_internal_error_under_dim_exit_code_two(capsys, monkeypatch, error):
    import coadorbits.cli as cli_mod

    def failing_orbit_dimension(f):
        raise error("forced")

    monkeypatch.setattr(cli_mod, "orbit_dimension", failing_orbit_dimension)
    code, out, err = run_cli(capsys, "dim", str(Path(__file__).parent / "golden" / "a5.json"))
    assert code == 2
    assert out == ""
    assert err == f"coadorbits: error: {error.__name__}: forced\n"


def test_every_error_class_of_the_package_has_an_exit_code():
    # main reports only the errors of its table, so a class with no entry
    # along its MRO would reach the user as a traceback. The one exception
    # is raised only by resolve_sign_conventions, which the CLI never calls;
    # scripts/certify_signs.py catches it.
    defined = set()
    for info in pkgutil.iter_modules(coadorbits.__path__):
        module = importlib.import_module(f"coadorbits.{info.name}")
        defined |= {cls for _, cls in inspect.getmembers(module, inspect.isclass)
                    if issubclass(cls, BaseException) and cls.__module__ == module.__name__}
    assert BracketDecompositionError in defined and OddRankError in defined
    uncovered = {cls for cls in defined
                 if not any(base in cli._EXIT_CODES for base in cls.__mro__)}
    assert uncovered == {AmbiguousSignConventionError}


@pytest.mark.parametrize("argv", [["roots", "--kind", "B", "--n", str(MAX_N)],
                                  ["dims", "--n", str(MAX_N)]])
def test_n_at_the_bound_is_accepted(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out and err == ""
