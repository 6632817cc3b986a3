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


def test_every_module_level_definition_has_a_caller_or_is_public():
    # a function or class that nothing in the package names, and that the
    # package does not export, is dead weight or a helper only tests reach
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = [f"{name}:{node.name}" for name, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name not in used and node.name not in trikernel.__all__]
    assert not unused, unused
