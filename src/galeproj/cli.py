"""Command-line interface.

Exit codes: 0 when every check passes, 1 when an assertion fails, 2 on
input errors (bad arguments, malformed files, violated preconditions).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction

from . import pipeline, serialize
from .complexes import complement_complex, deleted_join, minimal_nonfaces, sort_family
from .errors import GaleprojError
from .obstructions import nonembeddable
from .polytopes import VPolytope, h_vertices, minkowski_sum_vertices, trivial_upper_bound


def _dump(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def _print_report(report: pipeline.PipelineReport, fmt: str) -> int:
    if fmt == "json":
        print(_dump(report.as_dict()))
    else:
        print(f"scenario: {report.scenario}")
        for key, value in report.inputs.items():
            print(f"  input {key} = {value}")
        for key, value in report.results.items():
            print(f"  {key}: {value}")
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            detail = f"  [{c.detail}]" if c.detail else ""
            print(f"{status}  {c.claim}{detail}")
        for note in report.notes:
            print(f"note: {note}")
        print(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_d_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = (int(x) for x in text.split("..", 1))
        if hi < lo:
            raise ValueError(f"empty range {text!r}: {hi} < {lo}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _as_vpolytope(data: dict) -> VPolytope:
    P = serialize.parse_polytope(data)
    if isinstance(P, VPolytope):
        return P
    return VPolytope([r.vertex_coords for r in h_vertices(P)])


def _cmd_obstruction(args) -> int:
    code = 0
    for d in _parse_d_range(args.d):
        code = max(code, _print_report(pipeline.obstruction_pipeline(d), args.format))
    return code


def _cmd_example(args) -> int:
    return _print_report(pipeline.two_triangle_example(Fraction(args.epsilon)), args.format)


def _cmd_minksum(args) -> int:
    polys = [_as_vpolytope(_load_json(path)) for path in args.input]
    sums = minkowski_sum_vertices(polys)
    # f0(P_i) is read off the vertex tuples: every vertex of P_i lies in
    # some tuple, and a point that is not a vertex lies in none
    bound = trivial_upper_bound([len({choice[i] for choice, _ in sums}) for i in range(len(polys))])
    report = pipeline.PipelineReport(
        "minkowski_sum",
        {"inputs": list(args.input)},
        results={
            "f0_sum": len(sums),
            "trivial_bound": bound,
            "vertices": [serialize.vec_json(pt) for _, pt in sums],
            "choices": [list(choice) for choice, _ in sums],
        },
    )
    report.check(
        "the sum has at most prod f0(P_i) vertices",
        len(sums) <= bound,
        f"{len(sums)} <= {bound}",
    )
    return _print_report(report, args.format)


def _cmd_bound(args) -> int:
    f0s = [int(x) for x in args.f0.split(",")]
    value = pipeline.minkowski_vertex_bound(args.d, args.r, f0s)
    counting = pipeline.pigeonhole_lower_bound(args.d, args.r, f0s)
    report = pipeline.PipelineReport(
        "vertex_bounds",
        {"d": args.d, "r": args.r, "f0s": f0s},
        results={
            "trivial_bound": trivial_upper_bound(f0s),
            "sharpened_bound": serialize.rat_str(value),
            "failing_sums_at_least": serialize.rat_str(counting.failures_lower),
            "simplex_subset_choices": counting.subset_choices,
            "subsums_per_tuple": counting.subsums_per_tuple,
        },
    )
    report.check(
        "the sharpened bound improves on the trivial bound",
        value < trivial_upper_bound(f0s),
        f"{serialize.rat_str(value)} < {trivial_upper_bound(f0s)}",
    )
    return _print_report(report, args.format)


def _cmd_experiment(args) -> int:
    f0s = [int(x) for x in args.f0.split(",")]
    report = pipeline.random_experiment(args.d, args.r, f0s, args.trials, args.seed)
    return _print_report(report, args.format)


def _cmd_complex(args) -> int:
    K = serialize.parse_complex(_load_json(args.input))
    if args.op == "cc":
        out = serialize.complex_json(complement_complex(K))
    elif args.op == "djn":
        out = serialize.complex_json(deleted_join(K))
    else:
        out = {"minimal_nonfaces": sort_family(minimal_nonfaces(K))}
    if args.format == "json":
        print(_dump(out))
    else:
        for key, value in out.items():
            print(f"{key}:")
            for item in value:
                print(f"  {item}")
    return 0


def _cmd_embed(args) -> int:
    K = serialize.parse_complex(_load_json(args.input))
    verdict = nonembeddable(K, args.sphere)
    data = asdict(verdict)
    if args.format == "json":
        print(_dump(data))
    else:
        for key, value in data.items():
            print(f"{key}: {value}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galeproj",
        description=(
            "Exact computations around Minkowski sum vertex counts: "
            "normal-cone enumeration, projection censuses, Gale duality, "
            "and embeddability obstructions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("obstruction", help="index bounds for products of simplices")
    p.add_argument("--d", required=True, help="dimension, or a range like 3..6")
    add_format(p)
    p.set_defaults(func=_cmd_obstruction)

    p = sub.add_parser("example", help="the deformed two-triangle projection")
    p.add_argument("--epsilon", required=True, help="rational deformation, e.g. 1/4")
    add_format(p)
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("minksum", help="vertices of a Minkowski sum")
    p.add_argument("--input", action="append", required=True, help="polytope JSON file (repeatable)")
    add_format(p)
    p.set_defaults(func=_cmd_minksum)

    p = sub.add_parser("bound", help="vertex-count bounds for given parameters")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--f0", required=True, help="comma-separated vertex counts")
    add_format(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("experiment", help="seeded random bound checks")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--f0", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("complex", help="complement complex, non-faces, deleted join")
    p.add_argument("op", choices=("cc", "nf", "djn"))
    p.add_argument("--input", required=True, help="complex JSON file")
    add_format(p)
    p.set_defaults(func=_cmd_complex)

    p = sub.add_parser("embed", help="embeddability verdict for a complex")
    p.add_argument("--input", required=True, help="complex JSON file")
    p.add_argument("--sphere", type=int, required=True, help="target sphere dimension")
    add_format(p)
    p.set_defaults(func=_cmd_embed)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GaleprojError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, ZeroDivisionError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
