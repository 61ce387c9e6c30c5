"""Byte-exact golden outputs of the command line.

Each case runs ``coadorbits.cli.main`` in process on a fixed argv and
compares the exit code, stdout and stderr (and, for ``--out`` cases, the
written file) with the values recorded in ``golden/cli.json``. The recorded
values are data, not expectations derived here: a change to any rendered
chart, dimension report or oracle report under ``DEFAULT_SEED`` shows up as
a failing case. The file is written by hand when an output is meant to
change; there is no flag that rewrites it.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from coadorbits.cli import main
from coadorbits.roots import positive_roots

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("text", "json", "latex")
SCALARS = ("1", "2", "-3/5")

# Small-scale arguments per verification suite: every suite in seconds.
VERIFY_SCALE = {
    "chart-soundness": ["--max-n", "3", "--trials", "3"],
    "dimension-formulas": ["--max-n", "4"],
    "decompose-roundtrip": ["--max-n", "4", "--trials", "10"],
    "single-orbit-scan": ["--max-n", "4", "--trials", "3"],
    "two-dim-support": ["--max-n", "5", "--trials", "10"],
    "achievable-dims": ["--max-n", "6"],
}

# Input files under golden/; ``{golden}`` in an argv names that directory,
# ``{out}`` a fresh output path.
FUNCTIONALS = ("a5.json", "b3.json")


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for fmt in FORMATS:
        for kind, n in (("A", 2), ("A", 5), ("B", 3), ("D", 4)):
            cases[f"roots-{kind}{n}-{fmt}"] = ["roots", "--kind", kind, "--n", str(n),
                                              "--format", fmt]
        for kind, n in (("A", 4), ("A", 5), ("B", 3), ("B", 4), ("D", 4)):
            for alpha in positive_roots(kind, n).roots:
                for c in SCALARS:
                    cases[f"chart-{kind}{n}-{alpha}-c{c}-{fmt}"] = [
                        "chart", "--kind", kind, "--n", str(n), "--alpha", str(alpha),
                        f"--c={c}", "--format", fmt]
        for name in FUNCTIONALS:
            cases[f"dim-{name}-{fmt}"] = ["dim", "{golden}/" + name, "--format", fmt]
        cases[f"decompose-a5.json-{fmt}"] = ["decompose", "{golden}/a5.json", "--format", fmt]
        for n in (2, 5, 6):
            cases[f"dims-{n}-{fmt}"] = ["dims", "--n", str(n), "--format", fmt]
        for suite, scale in VERIFY_SCALE.items():
            cases[f"verify-{suite}-{fmt}"] = ["verify", "--suite", suite, *scale, "--format", fmt]
    cases["verify-chart-soundness-kind-B-seed-7"] = [
        "verify", "--suite", "chart-soundness", "--max-n", "3", "--trials", "2",
        "--kind", "B", "--seed", "7", "--format", "json"]
    cases["out-roots"] = ["roots", "--kind", "B", "--n", "2", "--out", "{out}"]
    cases["out-chart"] = ["chart", "--kind", "D", "--n", "4", "--alpha", "e1+e3",
                          "--format", "latex", "--out", "{out}"]
    cases["out-dim"] = ["dim", "{golden}/b3.json", "--format", "json", "--out", "{out}"]
    cases["out-dims"] = ["dims", "--n", "7", "--out", "{out}"]
    # Error exits: typed errors map to exit code 1 and one stderr line.
    cases["error-roots-n1"] = ["roots", "--kind", "A", "--n", "1"]
    cases["error-dims-n1"] = ["dims", "--n", "1"]
    cases["error-chart-c0"] = ["chart", "--kind", "A", "--n", "3", "--alpha", "e1-e3", "--c", "0"]
    cases["error-chart-c-not-rational"] = ["chart", "--kind", "A", "--n", "3", "--alpha",
                                           "e1-e3", "--c", "x"]
    cases["error-chart-root-not-in-system"] = ["chart", "--kind", "A", "--n", "3",
                                               "--alpha", "e1"]
    cases["error-dim-missing-file"] = ["dim", "/no/such/file.json"]
    cases["error-decompose-type-b"] = ["decompose", "{golden}/b3.json"]
    return cases


CASES = _cases()


def run_case(argv: list[str], out_path: Path) -> dict:
    argv = [a.replace("{golden}", str(GOLDEN)).replace("{out}", str(out_path)) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    record = {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    if out_path.exists():
        record["file"] = out_path.read_text(encoding="utf-8")
    return record


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads((GOLDEN / "cli.json").read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_byte_identical(case, golden, tmp_path):
    assert run_case(CASES[case], tmp_path / "out.txt") == golden[case]
