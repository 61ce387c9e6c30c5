"""No floating point in the package: a walk over the syntax of every module.

Integral numbers travel through the action and chart loops as ints, and
int/Fraction promotion keeps them exact. A float literal, a ``float()``
call or a math function outside the integer ones would leave exact
arithmetic there without any compared value showing it, so this guard
fails on each of them. So would a true division of two ints, which gives
a float. The package divides nothing with ``/``: its eliminations
cross-multiply and divide exactly with ``//``, so ``DIVISION_SITES`` is
empty and the guard rejects every ``/`` and ``/=``. A site may be listed
only where it divides Fractions.
"""

import ast
from pathlib import Path

import pytest

import coadorbits

SOURCES = sorted(Path(coadorbits.__file__).parent.glob("*.py"))
# The integer functions of math in use; every other one takes or returns floats.
INTEGER_MATH = {"factorial", "lcm", "gcd", "isqrt"}
# (module, function) of every true division in the package: none.
DIVISION_SITES: set[tuple[str, str]] = set()


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


def true_divisions(source: str) -> list[tuple[str, int]]:
    """(function, line) of each / and /=, the function by its dotted name of enclosing defs."""
    found = []

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((scope or "<module>", node.lineno))
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    walk(ast.parse(source), "")
    return sorted(found, key=lambda site: site[1])


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_divides_only_at_listed_sites(path):
    divisions = true_divisions(path.read_text(encoding="utf-8"))
    assert [(fn, line) for fn, line in divisions if (path.stem, fn) not in DIVISION_SITES] == []


def test_every_listed_division_site_divides():
    found = {(path.stem, fn) for path in SOURCES
             for fn, _ in true_divisions(path.read_text(encoding="utf-8"))}
    assert DIVISION_SITES <= found


def test_division_guard_finds_each_form():
    source = "\n".join([
        "a = 1 / 2",
        "def f(x):",
        "    x /= 2",
        "    return x // 2",
        "class C:",
        "    def g(self, y):",
        "        def h():",
        "            return y / 3",
        "        return h",
    ])
    assert true_divisions(source) == [("<module>", 1), ("f", 3), ("C.g.h", 8)]
