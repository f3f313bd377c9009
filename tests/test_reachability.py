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
elsewhere.  `__init__.py` itself imports nothing and binds no public
name, so it cannot re-export a definition and hide that nothing uses
it.  The scan reads the syntax tree, so a name that appears only inside
a string (a report's scenario name, say) is not mistaken for a use.

The same holds for parameters: every parameter with a default, of a
public function, method or class constructor, is passed somewhere, by
position or by keyword.  A call counts when it names the callee as a
definition use does; a method is called as an attribute, and a call
with `*args` or `**kwargs` counts as passing every parameter it could.

`KEEP` names the definitions kept without a use and the parameters kept
without a caller that passes them, each with its reason.

Last, `cli.py` neither constructs a `PipelineReport` nor adds a check to
one: what a report holds is decided in `pipeline` alone.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "galeproj"
BENCH = ROOT / "bench"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}

KEEP = {
    "polytopes.sum_as_projection": "the projected-product route to the vertex bound (ROADMAP direction 6) calls it",
    "polytopes.recentre": "the projected-product route (ROADMAP direction 6) recentres the product before make_setup",
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


def _outside_init(value) -> bool:
    """A dataclass field declared with `field(..., init=False)`."""
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False for k in value.keywords
    )


def _constructor(cls: ast.ClassDef):
    """The class's own `__init__` parameters, or else its dataclass fields."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            yield from _defaulted(node.args, 1)
            return
    fields = [
        n
        for n in cls.body
        if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name) and not _outside_init(n.value)
    ]
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
    calls = [node for node in _uses() if isinstance(node, ast.Call)]
    return sorted(
        qual
        for qual, (name, is_method, position, keyword) in public_parameters().items()
        if not any(_passes(call, position, keyword) for call in calls if _calls(call, name, is_method))
    )


def test_the_scan_sees_the_package():
    defs = public_definitions()
    assert {"gale.VectorConfig", "gale.gale_face_test", "projections.make_setup", "cli.main"} <= defs.keys()
    members = public_members()
    assert {"gale.VectorConfig.vector", "polytopes.HPolytope.dim", "polytopes.VPolytope.differences"} <= members.keys()
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


def test_every_public_definition_is_reached():
    used = names_used()
    unreached = sorted(q for q, name in public_definitions().items() if name not in used and q not in KEEP)
    assert not unreached, f"used only by tests, through __init__, or not at all: {unreached}"


def test_every_public_member_is_reached():
    used = attributes_used()
    unreached = sorted(q for q, name in public_members().items() if name not in used)
    assert not unreached, f"methods or properties never read as an attribute: {unreached}"


def test_keep_lists_only_unused_definitions():
    defs, params = public_definitions(), public_parameters()
    missing = sorted(q for q in KEEP if q not in defs and q not in params)
    assert not missing, f"KEEP names definitions or parameters that do not exist: {missing}"
    used = names_used()
    reached = sorted(q for q in KEEP if q in defs and defs[q] in used)
    assert not reached, f"KEEP names definitions the program or bench already uses: {reached}"
    unpassed = parameters_unpassed()
    passed = sorted(q for q in KEEP if q in params and q not in unpassed)
    assert not passed, f"KEEP names parameters the program or bench already passes: {passed}"

def test_every_defaulted_parameter_is_passed():
    unpassed = [q for q in parameters_unpassed() if q not in KEEP]
    assert not unpassed, f"defaulted parameters no caller passes: {unpassed}"
