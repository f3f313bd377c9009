"""The exact kernels pivot on integers; `Fraction` arithmetic stays out.

`lp._solve_nonneg` and `linalg._gauss_jordan` keep integer rows, the
tableau over one common denominator.  A `Fraction` may be built only
where the input is coerced (module-level constants) and where a result
goes out, as one two-argument `Fraction(numerator, denominator)` per
value.  The pivot loops (`lp._pivot`, every loop of `lp.py` that calls
it, `_gauss_jordan`, and the body of `solve_square`) name no `Fraction`
and use no true division `/`, and `_gauss_jordan` and `_add_row`, the
step of `basic_solutions`' prefix tree, are the only functions of
`linalg.py` with a Bareiss row update.  `basic_solutions` builds no
`Fraction` at all: it returns each solution as integers (num, L).  `nonneg_combination`
re-checks its points in integers, with no `Fraction` and no `vdot`.
`lp_feasible` re-checks nothing itself: it makes one `nonneg_combination`
call on its Farkas system, so its certificates pass that same re-check.
Each LP row is scaled to integers once, where it enters `lp.py`:
`_solve_nonneg` takes integer rows and scales none itself, and
`polytopes.py` reaches phase 1 only through the convex-hull test,
`lp_feasible` and the spanning test, never by building `nonneg_combination` rows by hand.
The Gordan rows of the Minkowski vertex test reach `nonneg_combination`
as ints: each summand's differences are scaled to integers once, so no
`Fraction` is coerced per vertex tuple.
The `Fraction` simplex and eliminations live on only as test oracles in
`helpers.py`.
"""

import ast
import random
from pathlib import Path

import pytest

import helpers
from galeproj import lp
from galeproj.polytopes import VPolytope, minkowski_sum_vertices
from test_polytopes import lifted_lattice_summands

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


def test_witness_recheck_is_integer():
    # the body, not the annotations, which name the Fraction type of the result
    _, functions = _functions(PACKAGE / "lp.py")
    body = functions["nonneg_combination"].body
    names = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
    assert not names & {"vdot", "Fraction"}, names & {"vdot", "Fraction"}
    calls = [
        n.func.id for n in ast.walk(functions["lp_feasible"])
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
    ]
    assert calls.count("nonneg_combination") == 1
    assert not {"_solve_nonneg", "integer_row"} & set(calls), calls


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_solve_nonneg_takes_integer_rows():
    _, functions = _functions(PACKAGE / "lp.py")
    named = _names(functions["_solve_nonneg"]) & {"integer_row", "frac"}
    assert not named, f"_solve_nonneg scales rows itself: {sorted(named)}"


def test_nonneg_combination_scales_each_row_once():
    _, functions = _functions(PACKAGE / "lp.py")
    assert "frac" not in _names(functions["nonneg_combination"])


def test_polytopes_build_no_phase_one_rows():
    tree, _ = _functions(PACKAGE / "polytopes.py")
    named = _names(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert "nonneg_combination" not in named


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


def test_linalg_eliminates_in_two_kernels():
    _, functions = _functions(PACKAGE / "linalg.py")
    eliminating = [name for name, fn in functions.items() if any(map(_is_bareiss_update, ast.walk(fn)))]
    assert eliminating == ["_gauss_jordan", "_add_row"]
    for name in ("rank", "kernel_basis", "solve_square"):
        assert _calls(functions[name], "_gauss_jordan"), name
    assert _calls(functions["basic_solutions"], "_add_row")


def test_basic_solutions_are_integer():
    _, functions = _functions(PACKAGE / "linalg.py")
    for name in ("basic_solutions", "_add_row"):
        assert not _rational_uses(functions[name]), (name, _rational_uses(functions[name]))
        assert not _fraction_calls(functions[name]), name


def test_gauss_jordan_is_integer():
    _, functions = _functions(PACKAGE / "linalg.py")
    assert not _rational_uses(functions["_gauss_jordan"])


def test_kernel_and_solve_build_fractions_from_two_integers():
    _, functions = _functions(PACKAGE / "linalg.py")
    for name in ("kernel_basis", "solve_square"):
        calls = _fraction_calls(functions[name])
        assert calls and all(len(c.args) == 2 for c in calls), name


def fraction_summands():
    rng = random.Random(4711)
    polys = [VPolytope(helpers.random_points(rng, 3, 4)) for _ in range(3)]
    assert all(any(x.denominator > 1 for p in Q.points for x in p) for Q in polys)
    return polys


@pytest.mark.parametrize("summands", [lifted_lattice_summands, fraction_summands])
def test_gordan_rows_reach_the_lp_as_ints(monkeypatch, summands):
    polys = summands()
    seen = []
    original = lp.nonneg_combination

    def checked(eq_rows, nvars):
        seen.append(eq_rows)
        return original(eq_rows, nvars)

    monkeypatch.setattr(lp, "nonneg_combination", checked)
    minkowski_sum_vertices(polys)
    assert len(seen) == len(polys[0].points) * len(polys[1].points) * len(polys[2].points)
    assert all(type(x) is int for rows in seen for coeffs, rhs in rows for x in (*coeffs, rhs))
