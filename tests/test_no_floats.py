"""No floating point in the package: a walk over the syntax of every module.

Integral numbers travel through the action and chart loops as ints, and
int/Fraction promotion keeps them exact. A float literal, a ``float()``
call or a math function outside the integer ones would leave exact
arithmetic there without any compared value showing it, so this guard
fails on each of them.
"""

import ast
from pathlib import Path

import pytest

import coadorbits

SOURCES = sorted(Path(coadorbits.__file__).parent.glob("*.py"))
# The integer functions of math in use; every other one takes or returns floats.
INTEGER_MATH = {"factorial", "lcm", "gcd", "isqrt"}


def float_uses(source: str) -> list[str]:
    """Each float or complex literal, float() call and non-integer math function, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{node.lineno}: literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"{node.lineno}: float() call")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in INTEGER_MATH):
            found.append(f"{node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend(f"{node.lineno}: from math import {alias.name}"
                         for alias in node.names if alias.name not in INTEGER_MATH)
        elif isinstance(node, ast.Import):
            found.extend(f"{node.lineno}: import math as {alias.asname}"
                         for alias in node.names if alias.name == "math" and alias.asname)
    return sorted(found)


def test_guard_walks_every_module():
    names = {path.name for path in SOURCES}
    assert {"functionals.py", "orbits.py", "polynomials.py", "linalg.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_has_no_floats(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []


def test_guard_finds_each_float_form():
    source = "\n".join([
        "import math",
        "x = 0.5",
        "y = float(2)",
        "z = math.sqrt(4) + math.lcm(2, 3) + math.isqrt(9)",
        "from math import pi, gcd",
        "w = 2j",
        "import math as m",
        'v = 3 // 2 + 1 + int("7")',
    ])
    assert float_uses(source) == [
        "2: literal 0.5",
        "3: float() call",
        "4: math.sqrt",
        "5: from math import pi",
        "6: literal 2j",
        "7: import math as m",
    ]
