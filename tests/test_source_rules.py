"""Rules the engine's source keeps: no floating point anywhere."""

import ast
from pathlib import Path

import pytest

import sullivan

SOURCES = sorted(Path(sullivan.__file__).parent.glob("*.py"))


def _float_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("float", "complex"):
                yield node.lineno, f"call of {name}()"


def test_rule_sees_floats():
    tree = ast.parse("x = 0.5\ny = float(x)\nz = builtins.complex(1)\nw = 2j\nv = Fraction(1, 2)")
    assert [line for line, _ in _float_uses(tree)] == [1, 2, 3, 4]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floats_in_source(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(_float_uses(tree)) == []
