"""Every public module-level function and class of `galeproj` is reached.

A definition counts as reached when its name occurs, as a name, an
attribute or an import, somewhere in the package outside `__init__.py`
or in the tests.  Re-exporting from `__init__` alone does not count.
The scan reads the syntax tree, so a name that appears only inside a
string (a report's scenario name, say) is not mistaken for a use.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "galeproj"


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def public_definitions():
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    out[node.name] = f"{path.stem}.{node.name}"
    return out


def names_used():
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += TESTS.glob("*.py")
    used = set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.split(".")[-1])
    return used


def test_the_scan_sees_the_package():
    defs = public_definitions()
    assert {"VectorConfig", "gale_face_test", "make_setup", "two_triangle_example", "main"} <= defs.keys()


def test_every_public_definition_is_reached():
    used = names_used()
    unreached = sorted(q for name, q in public_definitions().items() if name not in used)
    assert not unreached, f"reached only through __init__ or not at all: {unreached}"
