"""Every public module-level function and class of `galeproj` is used by
the program or the benchmark, and so is every public method and property
of a public class and every private module-level function.

Uses are counted in the package outside `__init__.py` and in `bench/`,
never in the tests: a definition only a test calls belongs in the tests.
A top-level definition counts as used when its name occurs as a bare
name or as an attribute of a galeproj module name (`lp.lp_feasible`);
`itertools.product` and `"".join` do not count for a `product` or a
`join`, and an import is no use, only what uses the name it binds.  A
method or property counts only as an attribute (`P.dim`), since its bare
name is often a local variable elsewhere.  `__init__.py` itself imports
nothing and binds no public name, so it cannot re-export a definition
and hide that nothing uses it.  The scan reads the syntax tree, so a name
that appears only inside a string (a report's scenario name, say) is not
mistaken for a use.

A use counts only in live code, so that a definition cannot hide behind
a dead caller.  A module's top level and all of `bench/` are live; the
body of a definition is live once that definition is itself used, by
the same rule, and no definition around it is listed in `KEEP`.  A use
inside the used definition's own body never counts, so recursion reaches
nothing.  The reached set grows to a fixed point from the live roots.

The same holds for parameters: every parameter with a default, of a
public function, method or class constructor, is passed somewhere in
live code outside the callee's own body, by position or by keyword.  A
call counts when it names the callee as a definition use does; a method
is called as an attribute, and a call with `*args` or `**kwargs` counts
as passing every parameter it could.

`KEEP` names the definitions kept without a use and the parameters kept
without a caller that passes them, each with its reason.

Last, `cli.py` neither constructs a `PipelineReport` nor adds a check to
one: what a report holds is decided in `pipeline` alone.  Outside
`lp.py` the package reads no name of `lp` but `lp_feasible`, so every
LP question is asked in the one formulation.  And every name a module
imports, `from __future__` aside, is read in that module, so an import
left behind by deleted code shows.
"""

import ast
from collections import defaultdict
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "galeproj"
BENCH = ROOT / "bench"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}

KEEP: dict[str, str] = {
    "linalg.solve_square": (
        "no caller in src/ since HPolytope enumerates its vertices by basic_solutions, but"
        " bench/workloads.KERNELS names it and tracing.PieceTimer.install looks it up by getattr,"
        " so deleting it fails every benchmark run; it goes once the benchmark drops the name"
    ),
}


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _public(nodes):
    return [node for node in nodes if isinstance(node, DEFINITIONS) and not node.name.startswith("_")]


def public_definitions():
    """Name of each public top-level function or class, by qualified name."""
    out = {}
    for stem in sorted(MODULES):
        for node in _public(_tree(PACKAGE / f"{stem}.py").body):
            out[f"{stem}.{node.name}"] = node.name
    return out


def private_functions():
    """Name of each private top-level function, by qualified name."""
    out = {}
    for stem in sorted(MODULES):
        for node in _tree(PACKAGE / f"{stem}.py").body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("_"):
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


def _defaulted(args: ast.arguments, skip: int):
    """(name, call position or None, keyword) of each parameter with a
    default; `skip` leading parameters (`self`) are not passed in the call."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional):
        if i >= max(first, skip):
            yield arg.arg, i - skip, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None, arg.arg


def _constructor(cls: ast.ClassDef):
    """The class's own `__init__` parameters, or else its `NamedTuple` fields."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            yield from _defaulted(node.args, 1)
            return
    fields = [n for n in cls.body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
    for i, node in enumerate(fields):
        if node.value is not None:
            yield node.target.id, i, node.target.id


def public_parameters():
    """(callee name, is a method, position, keyword) of each defaulted
    parameter of a public function, method or constructor, by qualified name."""
    out = {}
    for stem in sorted(MODULES):
        for node in _public(_tree(PACKAGE / f"{stem}.py").body):
            prefix = f"{stem}.{node.name}"
            if isinstance(node, ast.ClassDef):
                params = [(prefix, node.name, False, p) for p in _constructor(node)]
                for method in _public(node.body):
                    if isinstance(method, ast.FunctionDef):
                        qual = f"{prefix}.{method.name}"
                        params += [(qual, method.name, True, p) for p in _defaulted(method.args, 1)]
            else:
                params = [(prefix, node.name, False, p) for p in _defaulted(node.args, 0)]
            for qual, name, is_method, (param, position, keyword) in params:
                out[f"{qual}.{param}"] = (name, is_method, position, keyword)
    return out


def _scoped(tree, stem):
    """(owners, node) for each node below `tree`: owners are the qualified
    names of the definitions the node lies in, outermost first."""
    stack = [((), tree)]
    while stack:
        owners, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            inner = owners
            if isinstance(child, DEFINITIONS):
                inner = (*owners, f"{owners[-1] if owners else stem}.{child.name}")
            yield inner, child
            stack.append((inner, child))


def _sources():
    """(stem, tree) of each package module and each bench file.  The bench
    stems start with `bench.`, so no bench definition is checked and all
    of the bench is live."""
    out = [(stem, _tree(PACKAGE / f"{stem}.py")) for stem in sorted(MODULES)]
    return out + [(f"bench.{path.stem}", _tree(path)) for path in sorted(BENCH.glob("*.py"))]


def _uses(sources):
    for stem, tree in sources:
        yield from _scoped(tree, stem)


def _is_module(node):
    """`lp` or `galeproj.lp`: an expression naming a galeproj module."""
    if isinstance(node, ast.Name):
        return node.id in MODULES
    return isinstance(node, ast.Attribute) and node.attr in MODULES


def _live(owners, target, reached, checked, keep):
    """Does a use with these owners count for `target`?"""
    return target not in owners and all(o not in keep and (o in reached or o not in checked) for o in owners)


def _reached(names, attributes, sources, keep):
    """The qualified names in `names` (used by name) and `attributes` (used
    as an attribute) that live code reaches, grown to a fixed point."""
    by_name, by_attribute = defaultdict(list), defaultdict(list)
    for owners, node in _uses(sources):
        if isinstance(node, ast.Name):
            by_name[node.id].append(owners)
        elif isinstance(node, ast.Attribute):
            by_attribute[node.attr].append(owners)
            if _is_module(node.value):
                by_name[node.attr].append(owners)
    sites = {q: by_name[name] for q, name in names.items()}
    sites |= {q: by_attribute[name] for q, name in attributes.items()}
    reached = set()
    while True:
        new = {
            q
            for q, owners in sites.items()
            if q not in reached and any(_live(o, q, reached, sites, keep) for o in owners)
        }
        if not new:
            return reached
        reached |= new


@cache
def reached():
    """Qualified names of the definitions, private functions and members
    the program or the bench reaches."""
    names = {**public_definitions(), **private_functions()}
    return frozenset(_reached(names, public_members(), _sources(), KEEP))


def _calls(call, name, is_method):
    """Does `call` name the callee as a definition or member use would?"""
    f = call.func
    if isinstance(f, ast.Attribute):
        return f.attr == name and (is_method or _is_module(f.value))
    return isinstance(f, ast.Name) and f.id == name and not is_method


def _passes(call, position, keyword):
    if position is not None and (len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)):
        return True
    return any(k.arg in (None, keyword) for k in call.keywords)


def parameters_unpassed():
    live, checked = reached(), {**public_definitions(), **private_functions(), **public_members()}
    calls = [(owners, node) for owners, node in _uses(_sources()) if isinstance(node, ast.Call)]
    return sorted(
        qual
        for qual, (name, is_method, position, keyword) in public_parameters().items()
        if not any(
            _passes(call, position, keyword)
            for owners, call in calls
            if _calls(call, name, is_method) and _live(owners, qual.rsplit(".", 1)[0], live, checked, KEEP)
        )
    )


def test_the_scan_sees_the_package():
    defs = public_definitions()
    assert {"gale.VectorConfig", "gale.gale_faces_of_card", "projections.g_vectors", "cli.main"} <= defs.keys()
    members = public_members()
    assert {"gale.VectorConfig.subset", "polytopes.HPolytope.dim", "polytopes.VPolytope.differences"} <= members.keys()
    params = public_parameters()
    assert {"gale.VectorConfig.labels", "pipeline.Check.detail", "pipeline.PipelineReport.check.detail"} <= params.keys()
    assert params["polytopes.HPolytope.facet_labels"] == ("HPolytope", False, 2, "facet_labels")


def test_the_package_root_re_exports_nothing():
    # callers import the submodules; a facade in __init__ would hide unused names
    tree = _tree(PACKAGE / "__init__.py")
    imports = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not imports, f"galeproj/__init__.py imports: {imports}"
    names = [node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
    names += [node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    public = sorted(name for name in names if not name.startswith("_"))
    assert not public, f"galeproj/__init__.py binds public names: {public}"


def test_the_cli_builds_no_report():
    calls = [node for node in ast.walk(_tree(PACKAGE / "cli.py")) if isinstance(node, ast.Call)]
    names = [c.func.attr if isinstance(c.func, ast.Attribute) else getattr(c.func, "id", None) for c in calls]
    built = [ast.unparse(c) for c, name in zip(calls, names) if name in ("PipelineReport", "check")]
    assert not built, f"cli.py builds report parts: {built}"


def test_the_package_asks_every_lp_through_lp_feasible():
    # a second LP formulation, read as `lp.name` or through `from .lp
    # import name`, would come back here
    read = []
    for stem in sorted(MODULES - {"lp"}):
        for node in ast.walk(_tree(PACKAGE / f"{stem}.py")):
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) in ("lp", "galeproj.lp"):
                read.append((stem, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module in ("lp", "galeproj.lp"):
                read += [(stem, alias.name) for alias in node.names]
    assert ("polytopes", "lp_feasible") in read
    others = sorted(f"{stem}: lp.{name}" for stem, name in read if name != "lp_feasible")
    assert not others, f"names of lp read outside lp.py: {others}"


def _unread_imports(tree):
    """Names an import binds in `tree` that no expression there reads."""
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_every_import_is_read():
    source = """
from __future__ import annotations
import os.path
from collections import Counter, OrderedDict as OD
from . import lp
def f(x: OD) -> None:
    return os.path.join(lp.lp_feasible(x))
"""
    assert _unread_imports(ast.parse(source)) == ["Counter"]
    unread = [f"{stem}: {name}" for stem in sorted(MODULES) for name in _unread_imports(_tree(PACKAGE / f"{stem}.py"))]
    assert not unread, f"imported but never read: {unread}"


def test_the_scan_sees_through_dead_callers():
    source = """
def main():
    live()
def live():
    helper()
def helper():
    pass
def recursive():
    recursive()
def dead():
    hidden()
def hidden():
    dead()
def kept():
    behind_kept()
def behind_kept():
    pass
main()
"""
    defined = ("main", "live", "helper", "recursive", "dead", "hidden", "kept", "behind_kept")
    names = {f"m.{name}": name for name in defined}
    got = _reached(names, {}, [("m", ast.parse(source))], {"m.kept": "kept without a use"})
    assert got == {"m.main", "m.live", "m.helper"}


def test_every_public_definition_is_reached():
    unreached = sorted(q for q in public_definitions() if q not in reached() and q not in KEEP)
    assert not unreached, f"used only by tests, by unreached code, or not at all: {unreached}"


def test_every_private_function_is_reached():
    unreached = sorted(q for q in private_functions() if q not in reached() and q not in KEEP)
    assert not unreached, f"private functions used by no reached code: {unreached}"


def test_every_public_member_is_reached():
    unreached = sorted(q for q in public_members() if q not in reached())
    assert not unreached, f"methods or properties never read as an attribute in reached code: {unreached}"


def test_keep_lists_only_unused_definitions():
    defs, params = {**public_definitions(), **private_functions()}, public_parameters()
    missing = sorted(q for q in KEEP if q not in defs and q not in params)
    assert not missing, f"KEEP names definitions or parameters that do not exist: {missing}"
    used = sorted(q for q in KEEP if q in defs and q in reached())
    assert not used, f"KEEP names definitions the program or bench already uses: {used}"
    unpassed = parameters_unpassed()
    passed = sorted(q for q in KEEP if q in params and q not in unpassed)
    assert not passed, f"KEEP names parameters the program or bench already passes: {passed}"


def test_every_defaulted_parameter_is_passed():
    unpassed = [q for q in parameters_unpassed() if q not in KEEP]
    assert not unpassed, f"defaulted parameters no caller passes: {unpassed}"
