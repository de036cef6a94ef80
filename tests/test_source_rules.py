"""Rules the engine's source keeps: no floating point anywhere, one root for
the errors that bad input raises, and every name the traced benchmark wraps
still exists."""

import ast
import importlib
from pathlib import Path

import pytest

import sullivan
from sullivan.errors import SullivanError

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


def test_engine_errors_share_one_root():
    # the command line catches SullivanError in one clause; CliffordError
    # signals a broken internal invariant, not bad input
    errors = {}
    for path in SOURCES:
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"sullivan.{path.stem}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and name.endswith("Error"):
                if obj.__module__ == module.__name__:
                    errors[name] = obj
    assert len(errors) >= 11
    assert [n for n, e in sorted(errors.items()) if not issubclass(e, SullivanError)] == [
        "CliffordError"
    ]


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_names(tree):
    """(module, function) of every FUNCTION_SPANS entry, and (module, class,
    method) of every patch_method call, read from the tracer's source."""
    functions, methods = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "FUNCTION_SPANS" for t in node.targets
        ):
            functions = list(ast.literal_eval(node.value).values())
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "patch_method"
        ):
            owner, attr = node.args[:2]
            methods.append((f"sullivan.{owner.value.id}", owner.attr, attr.value))
    return functions, methods


def test_traced_benchmark_names_exist():
    # the benchmark's --trace 1 wraps these by name; a rename or deletion in
    # the engine would break it without failing any other test
    functions, methods = _traced_names(ast.parse(TRACER.read_text(encoding="utf-8")))
    assert len(functions) >= 19 and len(methods) >= 7
    for module, name in functions:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)
    for module, cls, name in methods:
        owner = getattr(importlib.import_module(module), cls)
        assert callable(getattr(owner, name, None)), (module, cls, name)
