"""No module state rebound from inside a function: a walk over the syntax of every module.

State a call keeps for the next one lives in an ``lru_cache`` (the tables,
the plans, the reduced-form slot), which has ``cache_info()`` and
``cache_clear()``. A ``global`` statement would keep such state by hand,
with neither, so this guard fails on each one.
"""

import ast
from pathlib import Path

import pytest

import coadorbits

SOURCES = sorted(Path(coadorbits.__file__).parent.glob("*.py"))


def global_statements(source: str) -> list[str]:
    """Each ``global`` statement, by line and the names it declares."""
    return [f"{node.lineno}: global {', '.join(node.names)}"
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Global)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_has_no_global_statement(path):
    assert global_statements(path.read_text(encoding="utf-8")) == []


def test_guard_finds_each_global_statement():
    source = "\n".join([
        "slot = None",
        "def f():",
        "    global slot",
        "    slot = 1",
        "class C:",
        "    def g(self):",
        "        global a, b",
        "def h():",
        "    x = 0",
        "    def k():",
        "        nonlocal x",
    ])
    assert global_statements(source) == ["3: global slot", "7: global a, b"]
