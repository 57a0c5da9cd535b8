"""Every function, class and method of the package is reached from the package.

A definition that nothing in ``src`` names outside its own body is code that no
command can run; tests alone do not keep a name alive.  ``__init__.py`` is left
out, since a re-export is not a use, and so are dunder methods, which Python
calls by protocol.  A method is reached only through an attribute reference
(``obj.name``): a bare name in ``src`` is a local or a module-level name, never a
method.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "bundlehodge"


def _definitions_and_references():
    """(name, file, first line, last line, is a method) per definition; (name,
    file, line, is an attribute) per reference."""
    definitions, references = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    method = id(node) in methods
                    definitions.append((node.name, path.name, node.lineno, node.end_lineno, method))
            elif isinstance(node, ast.Name):
                references.append((node.id, path.name, node.lineno, False))
            elif isinstance(node, ast.Attribute):
                references.append((node.attr, path.name, node.lineno, True))
            elif isinstance(node, ast.alias):
                # ``from .x import f as g`` names f
                references.append((node.name, path.name, node.lineno, False))
    return definitions, references


def unreached_definitions():
    definitions, references = _definitions_and_references()
    unreached = []
    for name, where, first, last, method in definitions:
        named = any(
            ref == name and (attribute or not method) and not (ref_file == where and first <= line <= last)
            for ref, ref_file, line, attribute in references
        )
        if not named:
            unreached.append(f"{where}:{first} {name}")
    return unreached


def test_every_definition_in_src_is_named_in_src():
    assert unreached_definitions() == []
