"""The exact kernels pivot on integers; `Fraction` arithmetic stays out.

`lp._solve_nonneg` and `linalg._gauss_jordan` keep integer rows, the
tableau over one common denominator.  A `Fraction` may be built only
where the input is coerced (module-level constants) and where a result
goes out, as one two-argument `Fraction(numerator, denominator)` per
value.  The pivot loops (`lp._pivot`, every loop of `lp.py` that calls
it, `_gauss_jordan`, and the body of `solve_square`) name no `Fraction`
and use no true division `/`, and `_gauss_jordan` is the only function
of `linalg.py` with a Bareiss row update.  The `Fraction` simplex and
eliminations live on only as test oracles in `helpers.py`.
"""

import ast
from pathlib import Path

import helpers

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "galeproj"
RATIONAL_NAMES = {"Fraction", "frac", "vec", "_ZERO", "_ONE"}


def _functions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return tree, {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _fraction_calls(node):
    return [
        call for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "Fraction"
    ]


def _calls(node, name):
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name for n in ast.walk(node))


def _rational_uses(node):
    """Lines where `node` names a rational helper or divides with `/`."""
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and n.id in RATIONAL_NAMES:
            out.append((n.lineno, n.id))
        elif isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Div):
            out.append((n.lineno, "/"))
    return out


def test_lp_builds_fractions_only_for_input_and_output():
    tree, _ = _functions(PACKAGE / "lp.py")
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            calls = _fraction_calls(node)
            if node.name == "_solve_nonneg":
                # the witness coordinates
                assert len(calls) == 1 and len(calls[0].args) == 2
            else:
                assert not calls, f"Fraction(...) in lp.{node.name}"


def test_lp_pivot_loops_are_integer():
    _, functions = _functions(PACKAGE / "lp.py")
    loops = [functions["_pivot"]]
    for fn in functions.values():
        loops += [n for n in ast.walk(fn) if isinstance(n, (ast.For, ast.While)) and _calls(n, "_pivot")]
    assert len(loops) == 2  # _pivot and the phase-1 loop
    for loop in loops:
        assert not _rational_uses(loop), _rational_uses(loop)


def test_solve_square_is_integer_until_its_return():
    _, functions = _functions(PACKAGE / "linalg.py")
    fn = functions["solve_square"]
    body = [stmt for stmt in fn.body if not isinstance(stmt, ast.Return)]
    assert not any(_rational_uses(stmt) for stmt in body)
    calls = _fraction_calls(fn)
    assert len(calls) == 1 and len(calls[0].args) == 2


def test_fraction_simplex_lives_only_in_the_tests():
    assert callable(helpers.fraction_solve_nonneg) and callable(helpers.gauss_jordan_solve)
    for path in sorted(PACKAGE.glob("*.py")):
        _, functions = _functions(path)
        pivoting = [name for name, fn in functions.items() if name == "_pivot" or _calls(fn, "_pivot")]
        assert path.name == "lp.py" or not pivoting, f"{path.name} pivots: {pivoting}"


def _is_bareiss_update(node):
    """(x * p - f * y) // prev: a floor division of a difference of products."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.FloorDiv)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Sub)
        and all(isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult) for side in (node.left.left, node.left.right))
    )


def test_linalg_has_one_elimination():
    _, functions = _functions(PACKAGE / "linalg.py")
    eliminating = [name for name, fn in functions.items() if any(map(_is_bareiss_update, ast.walk(fn)))]
    assert eliminating == ["_gauss_jordan"]
    for name in ("rank", "kernel_basis", "solve_square"):
        assert _calls(functions[name], "_gauss_jordan"), name


def test_gauss_jordan_is_integer():
    _, functions = _functions(PACKAGE / "linalg.py")
    assert not _rational_uses(functions["_gauss_jordan"])


def test_kernel_and_solve_build_fractions_from_two_integers():
    _, functions = _functions(PACKAGE / "linalg.py")
    for name in ("kernel_basis", "solve_square"):
        calls = _fraction_calls(functions[name])
        assert calls and all(len(c.args) == 2 for c in calls), name
