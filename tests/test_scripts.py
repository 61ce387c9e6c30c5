"""The two scripts, run as their users run them: a subprocess with src on the path."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coadorbits.basic import enumerate_basic_subsets
from test_basic import (_reference_derived_set, _reference_enumerate_basic_subsets,
                        _reference_s_of)

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_certify_signs_defaults():
    done = run_script("certify_signs.py")
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        "candidate rules: alternating, alternating-negated, alternating-offset, "
        "alternating-offset-negated, constant-minus, constant-plus\n"
        "kind B: certified rule = constant-minus (shipped default)\n"
        "kind D: certified rule = constant-minus (shipped default)\n"
    )


def test_scan_achievable_dims_one_line_per_subset():
    done = run_script("scan_achievable_dims.py", "--n", "5")
    assert done.returncode == 0, done.stderr
    records = [json.loads(line) for line in done.stdout.splitlines()]
    subsets = list(enumerate_basic_subsets(5))
    assert len(records) == len(subsets)
    assert [r["roots"] for r in records] == [[str(x) for x in s.roots] for s in subsets]
    assert "-> OK" in done.stderr


def test_scan_achievable_dims_equals_the_slow_references():
    done = run_script("scan_achievable_dims.py", "--n", "7")
    assert done.returncode == 0, done.stderr
    expected = []
    for subset in _reference_enumerate_basic_subsets(7):
        derived = _reference_derived_set(subset)
        record = {"n": 7, "roots": [str(r) for r in subset.roots], "s": _reference_s_of(subset),
                  "derived": sorted(str(r) for r in derived), "single_orbit": not derived}
        expected.append(json.dumps(record, sort_keys=True))
    assert done.stdout.splitlines() == expected


@pytest.mark.parametrize("n", ["1", "0", "-2"])
def test_scan_achievable_dims_rejects_rank_below_two(n):
    done = run_script("scan_achievable_dims.py", "--n", n)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "usage:" in done.stderr and "--n must be at least 2" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("argv,message", [
    (["--max-n", "2"], "--max-n must be at least 3, got 2"),
    (["--trials", "0"], "--trials must be at least 1, got 0"),
    (["--trials", "-1"], "--trials must be at least 1, got -1"),
    (["--max-n", "25"], "--max-n must be at most 24, got 25"),
    (["--max-n", str(10**6)], f"--max-n must be at most 24, got {10**6}"),
])
def test_certify_signs_rejects_sizes_that_cannot_certify(argv, message):
    done = run_script("certify_signs.py", *argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("usage:") and done.stderr.endswith(f"error: {message}\n")


def test_certify_signs_reports_an_ambiguous_result_in_one_line():
    done = run_script("certify_signs.py", "--max-n", "3")
    assert done.returncode == 1
    assert done.stdout.startswith("candidate rules: ")
    assert done.stderr.startswith("certify_signs: error: kind B: surviving rules [")
    assert done.stderr.count("\n") == 1


def test_scan_achievable_dims_rejects_rank_above_the_bound():
    done = run_script("scan_achievable_dims.py", "--n", "13")
    assert done.returncode == 2
    assert done.stdout == ""
    assert "usage:" in done.stderr and "--n must be at most 12, got 13" in done.stderr
    assert "Traceback" not in done.stderr
