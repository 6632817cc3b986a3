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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees_and_names() -> tuple[dict[str, ast.Module], set[str]]:
    """Each module's syntax tree, and every name the package reads, as a
    bare name or as an attribute."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    return trees, used


def test_every_module_level_definition_has_a_caller_or_is_public():
    # a function or class that nothing in the package names, and that the
    # package does not export, is dead weight or a helper only tests reach
    trees, used = _trees_and_names()
    unused = [f"{name}:{node.name}" for name, tree in trees.items()
              for node in tree.body
              if isinstance(node, DEFINITIONS)
              and node.name not in used and node.name not in trikernel.__all__]
    assert not unused, unused


def test_every_method_of_an_unexported_class_has_a_caller():
    # likewise for the methods and properties of a class the package does
    # not export; special methods are called by the language
    trees, used = _trees_and_names()
    unused = [f"{name}:{cls.name}.{node.name}" for name, tree in trees.items()
              for cls in tree.body
              if isinstance(cls, ast.ClassDef) and cls.name not in trikernel.__all__
              for node in cls.body
              if isinstance(node, DEFINITIONS) and not node.name.startswith("__")
              and node.name not in used]
    assert not unused, unused


# records that ``cli`` writes whole with ``dataclasses.asdict``, so every
# field is read there without being named
WRITTEN_WHOLE = {"RunManifest"}


def _is_record(cls: ast.ClassDef) -> bool:
    """A dataclass or a NamedTuple."""
    marks = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return (any(isinstance(m, ast.Name) and m.id == "dataclass" for m in marks)
            or any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in cls.bases))


def test_every_field_of_an_unexported_record_is_read():
    # a field that nothing reads as an attribute is built for no one
    trees, _ = _trees_and_names()
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{name}:{cls.name}.{node.target.id}" for name, tree in trees.items()
              for cls in tree.body
              if isinstance(cls, ast.ClassDef) and _is_record(cls)
              and cls.name not in trikernel.__all__ and cls.name not in WRITTEN_WHOLE
              for node in cls.body
              if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
              and node.target.id not in read]
    assert not unread, unread
