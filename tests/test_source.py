import ast
from pathlib import Path

import trikernel

SRC = Path(trikernel.__file__).parent


def test_no_assert_statements_in_src():
    # ``python -O`` strips asserts, so no check in the package may be one
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, found
