"""Every public module-level function and class of `galeproj` is reached,
and so is every public method and property of a public class.

A definition counts as reached when its name occurs, as a name, an
attribute or an import, somewhere in the package outside `__init__.py`
or in the tests.  A method or property counts only as an attribute
(`P.dim`), since its bare name is often a local variable elsewhere.
Re-exporting from `__init__` alone does not count.  The scan reads the
syntax tree, so a name that appears only inside a string (a report's
scenario name, say) is not mistaken for a use.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "galeproj"


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _public(nodes):
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node for node in nodes if isinstance(node, kinds) and not node.name.startswith("_")]


def public_definitions():
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _public(_tree(path).body):
            out[node.name] = f"{path.stem}.{node.name}"
    return out


def public_members():
    """Qualified name of each public method or property of a public class."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in _public(_tree(path).body):
            if isinstance(cls, ast.ClassDef):
                for node in _public(cls.body):
                    out[f"{path.stem}.{cls.name}.{node.name}"] = node.name
    return out


def _uses():
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += TESTS.glob("*.py")
    for path in paths:
        yield from ast.walk(_tree(path))


def names_used():
    used = set()
    for node in _uses():
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
    return used


def attributes_used():
    return {node.attr for node in _uses() if isinstance(node, ast.Attribute)}


def test_the_scan_sees_the_package():
    defs = public_definitions()
    assert {"VectorConfig", "gale_face_test", "make_setup", "two_triangle_example", "main"} <= defs.keys()
    members = public_members()
    assert {"gale.VectorConfig.vector", "polytopes.HPolytope.dim", "polytopes.VPolytope.f0"} <= members.keys()


def test_every_public_definition_is_reached():
    used = names_used()
    unreached = sorted(q for name, q in public_definitions().items() if name not in used)
    assert not unreached, f"reached only through __init__ or not at all: {unreached}"


def test_every_public_member_is_reached():
    used = attributes_used()
    unreached = sorted(q for q, name in public_members().items() if name not in used)
    assert not unreached, f"methods or properties never read as an attribute: {unreached}"
