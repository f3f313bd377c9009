"""Every public module-level function and class of `galeproj` is used by
the program or the benchmark, and so is every public method and property
of a public class.

Uses are counted in the package outside `__init__.py` and in `bench/`,
never in the tests: a definition only a test calls belongs in the tests.
A top-level definition counts as used when its name occurs as a bare
name, as an import alias, or as an attribute of a galeproj module name
(`lp.cone_combination`); `itertools.product` and `"".join` do not count
for `polytopes.product` or a `join`.  A method or property counts only
as an attribute (`P.dim`), since its bare name is often a local variable
elsewhere.  Re-exporting from `__init__` alone does not count.  The scan
reads the syntax tree, so a name that appears only inside a string (a
report's scenario name, say) is not mistaken for a use.

`KEEP` names the definitions kept without a use, each with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "galeproj"
BENCH = ROOT / "bench"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}

KEEP = {
    "polytopes.sum_as_projection": "the projected-product route to the vertex bound (ROADMAP direction 2) calls it",
    "polytopes.recentre": "the projected-product route (ROADMAP direction 2) recentres the product before make_setup",
    "lp.eq": "part of the strict-system layer that deleting lp_feasible (ROADMAP direction 1) removes whole",
}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _public(nodes):
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node for node in nodes if isinstance(node, kinds) and not node.name.startswith("_")]


def public_definitions():
    """Name of each public top-level function or class, by qualified name."""
    out = {}
    for stem in sorted(MODULES):
        for node in _public(_tree(PACKAGE / f"{stem}.py").body):
            out[f"{stem}.{node.name}"] = node.name
    return out


def public_members():
    """Name of each public method or property of a public class, by qualified name."""
    out = {}
    for stem in sorted(MODULES):
        for cls in _public(_tree(PACKAGE / f"{stem}.py").body):
            if isinstance(cls, ast.ClassDef):
                for node in _public(cls.body):
                    out[f"{stem}.{cls.name}.{node.name}"] = node.name
    return out


def _uses():
    paths = [PACKAGE / f"{stem}.py" for stem in sorted(MODULES)]
    paths += sorted(BENCH.glob("*.py"))
    for path in paths:
        yield from ast.walk(_tree(path))


def _is_module(node):
    """`lp` or `galeproj.lp`: an expression naming a galeproj module."""
    if isinstance(node, ast.Name):
        return node.id in MODULES
    return isinstance(node, ast.Attribute) and node.attr in MODULES


def names_used():
    used = set()
    for node in _uses():
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and _is_module(node.value):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
    return used


def attributes_used():
    return {node.attr for node in _uses() if isinstance(node, ast.Attribute)}


def test_the_scan_sees_the_package():
    defs = public_definitions()
    assert {"gale.VectorConfig", "gale.gale_face_test", "projections.make_setup", "cli.main"} <= defs.keys()
    members = public_members()
    assert {"gale.VectorConfig.vector", "polytopes.HPolytope.dim", "polytopes.VPolytope.differences"} <= members.keys()


def test_every_public_definition_is_reached():
    used = names_used()
    unreached = sorted(q for q, name in public_definitions().items() if name not in used and q not in KEEP)
    assert not unreached, f"used only by tests, through __init__, or not at all: {unreached}"


def test_every_public_member_is_reached():
    used = attributes_used()
    unreached = sorted(q for q, name in public_members().items() if name not in used)
    assert not unreached, f"methods or properties never read as an attribute: {unreached}"


def test_keep_lists_only_unused_definitions():
    defs = public_definitions()
    missing = sorted(q for q in KEEP if q not in defs)
    assert not missing, f"KEEP names definitions that do not exist: {missing}"
    used = names_used()
    reached = sorted(q for q in KEEP if defs[q] in used)
    assert not reached, f"KEEP names definitions the program or bench already uses: {reached}"
