"""Command-line interface.

A subcommand parses its arguments, reads its files, makes one call and
prints the answer: the report subcommands call one `pipeline` builder,
`complex` and `embed` the complex and obstruction layers.  What a report
holds is decided in `pipeline`; here it is only printed.

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


def _cmd_obstruction(args) -> int:
    code = 0
    for d in _parse_d_range(args.d):
        code = max(code, _print_report(pipeline.obstruction_pipeline(d), args.format))
    return code


def _cmd_example(args) -> int:
    return _print_report(pipeline.two_triangle_example(Fraction(args.epsilon)), args.format)


def _cmd_minksum(args) -> int:
    polys = [serialize.parse_polytope(_load_json(path)) for path in args.input]
    return _print_report(pipeline.minkowski_sum_report(polys, args.input), args.format)


def _cmd_bound(args) -> int:
    f0s = [int(x) for x in args.f0.split(",")]
    return _print_report(pipeline.vertex_bounds(args.d, args.r, f0s), args.format)


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
    except (GaleprojError, OSError, ValueError, KeyError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
