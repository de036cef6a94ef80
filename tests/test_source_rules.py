"""Rules the engine's source keeps: no floating point anywhere, one root for
the errors that bad input raises, exactly as many defaulted parameters as
today, and every name the traced benchmark wraps still exists."""

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


# Each defaulted parameter is an option that callers may leave out.  The
# count must equal MAX_DEFAULTED_PARAMETERS: when an option goes, the cap
# falls with it in the same change, so a removed option does not come back
# unnoticed.
MAX_DEFAULTED_PARAMETERS = 23


def _defaulted_parameters(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            for arg in positional[len(positional) - len(args.defaults):]:
                yield node.lineno, arg.arg
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.lineno, arg.arg


def test_rule_counts_defaulted_parameters():
    tree = ast.parse(
        "def f(a, b=1, *c, d, e=2, **g): pass\n"
        "async def h(x=0, /, y=1): pass\n"
        "k = lambda p, q=3: p\n"
    )
    assert [name for _, name in _defaulted_parameters(tree)] == ["b", "e", "x", "y", "q"]


def test_defaulted_parameters_do_not_grow():
    found = [
        (path.name, line, name)
        for path in SOURCES
        for line, name in _defaulted_parameters(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert len(found) == MAX_DEFAULTED_PARAMETERS, found


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
