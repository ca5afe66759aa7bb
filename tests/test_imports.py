"""Every import in the package sits at module level.

An import inside a function hides a dependency that reaches around the
module order (gates -> states -> tla -> gates once did), so none is allowed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tlbraid"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    nested = [
        f"{path.name}:{node.lineno} in {fn.name}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not nested, f"imports inside functions: {nested}"
