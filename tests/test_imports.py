"""Module boundaries: no module reaches into another's private names."""

import ast
from pathlib import Path

import discshift

PACKAGE = Path(discshift.__file__).parent


def private_relative_imports(source: str):
    """(line, name) of every relative import of a `_`-prefixed name."""
    return [(node.lineno, alias.name)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")]


def test_private_relative_imports_detects_nested_and_aliased():
    source = ("from .a import b, _c\n"
              "def f():\n    from ..d import _e as e\n"
              "from f import _g\n"
              "from .h import i as _i\n")
    assert private_relative_imports(source) == [(1, "_c"), (3, "_e")]


def test_no_private_cross_module_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert "sampling.py" in {p.name for p in modules}
    found = [f"{p.name}:{line}: {name}" for p in modules
             for line, name in private_relative_imports(p.read_text())]
    assert found == []
