"""Command-line interface.

A subcommand parses its arguments, reads its files, makes one call and
prints the answer: the report subcommands call one `pipeline` builder,
`complex` and `embed` the complex and obstruction layers.  What a report
holds is decided in `pipeline`; here it is only printed.

A call builds the parser of the one subcommand it names, as building all
seven is most of a short call's fixed cost; `--help` or a typo builds all.

Exit codes: 0 when every check passes, 1 when an assertion fails, 2 on
input errors (bad arguments, malformed files, violated preconditions).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import pipeline, serialize
from .complexes import complement_complex, minimal_nonfaces, sort_family
from .errors import GaleprojError
from .obstructions import nonembeddable


def _dump(data: dict) -> str:
    # one line per document, so a run of reports is JSON Lines; without an
    # indent `json` keeps its C encoder
    return json.dumps(data, sort_keys=True)


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
        try:
            return json.load(fh)
        except RecursionError:
            # the decoder recurses once per nesting level: bad input, not a bug
            raise ValueError(f"{path}: JSON nested too deeply to read") from None


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
    return _print_report(pipeline.two_triangle_example(serialize.parse_rat(args.epsilon)), args.format)


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
    data = verdict._asdict()
    if args.format == "json":
        print(_dump(data))
    else:
        for key, value in data.items():
            print(f"{key}: {value}")
    return 0


# name -> (help, handler, arguments); every option is required, and all take --format
_COMMANDS = {
    "obstruction": (
        "index bounds for products of simplices", _cmd_obstruction, {"--d": {"help": "dimension, or a range like 3..6"}}
    ),
    "example": (
        "the deformed two-triangle projection", _cmd_example, {"--epsilon": {"help": "rational deformation, e.g. 1/4"}}
    ),
    "minksum": (
        "vertices of a Minkowski sum",
        _cmd_minksum,
        {"--input": {"action": "append", "help": "polytope JSON file (repeatable)"}},
    ),
    "bound": (
        "vertex-count bounds for given parameters",
        _cmd_bound,
        {"--d": {"type": int}, "--r": {"type": int}, "--f0": {"help": "comma-separated vertex counts"}},
    ),
    "experiment": (
        "seeded random bound checks",
        _cmd_experiment,
        {"--d": {"type": int}, "--r": {"type": int}, "--f0": {}, "--trials": {"type": int}, "--seed": {"type": int}},
    ),
    "complex": (
        "complement complex or minimal non-faces",
        _cmd_complex,
        {"op": {"choices": ("cc", "nf")}, "--input": {"help": "complex JSON file"}},
    ),
    "embed": (
        "embeddability verdict for a complex",
        _cmd_embed,
        {"--input": {"help": "complex JSON file"}, "--sphere": {"type": int, "help": "target sphere dimension"}},
    ),
}


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or with the subcommand `only` alone."""
    parser = argparse.ArgumentParser(
        prog="galeproj",
        description=(
            "Exact computations around Minkowski sum vertex counts: "
            "normal-cone enumeration, projection censuses, Gale duality, "
            "and embeddability obstructions."
        ),
    )
    # a lone subcommand keeps the usage line of the full build; in the full build a
    # metavar would rename the command in `invalid choice` errors
    metavar = None if only is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, func, arguments) in _COMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=help_text)
            for flag, kwargs in arguments.items():
                p.add_argument(flag, **kwargs, **({"required": True} if flag.startswith("--") else {}))
            p.add_argument("--format", choices=("text", "json"), default="text")
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    # exact arithmetic has no magnitude bound: read and print integers of any
    # length (Python 3.10.0 to 3.10.6 have no such limit to lift)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except (GaleprojError, OSError, ValueError, KeyError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
