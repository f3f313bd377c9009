"""Inputs and output checks for the three benchmark workloads.

Run as a script, this module is the benchmark's set-up step, the part a
CLI user pays on every call: a fresh interpreter imports ``galeproj.cli``
from the checkout's ``src`` tree, then writes the workload's calls (and,
for ``minksum-d3r3``, the polytope JSON files) to a work directory:

    python3 bench/workloads.py --workload minksum-d3r3 --seed 1 --out .bench_work/x

Input generation uses only the standard library, never galeproj's own
sampler, so a change to the program cannot change the inputs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINS_PATH = Path(__file__).with_name("minksum_pins.json")

WORKLOADS = ("minksum-d3r3", "projection-sweep", "obstruction-d2-6")

# minksum-d3r3: r = 3 summands in R^3 with 5 vertices each (the paper's
# r >= d regime).  The instance lifts distinct integer (x, y) points to
# (x, y, x^2 + y^2), so every point is a vertex of its summand; its sum
# vertex count is pinned in minksum_pins.json.
#
# It is one fixed instance, the first the generator makes, whatever the
# seed.  A call takes 2 s, and a 40 s run gives each vertex test 9-20
# repeats only if a pass is one call (with 3 instances, 5 repeats, whole
# runs read up to 1.5x slow on a busy host).  And the LP pivots of one
# instance differ from the next by 8% (coefficient of variation), which
# put a spread of 0.15 between ten seeds before the host added its own
# (see README.md).
MINKSUM_D = 3
MINKSUM_R = 3
MINKSUM_F0 = 5
MINKSUM_GRID = 10  # (x, y) in [-10, 10]^2
MINKSUM_INSTANCE = 0

# The exact-arithmetic kernels.  Timing runs mark where each outermost call
# of one starts and ends, which cuts a CLI call into pieces of a few
# milliseconds, so that `wall_s` can take each piece at its fastest repeat
# (see run.Fastest and README.md).
KERNELS = (
    "lp.lp_feasible",
    "lp.nonneg_combination",
    "linalg.solve_square",
    "linalg.rank",
    "linalg.kernel_basis",
)

EPSILONS = ("1/5", "1/4", "1/3", "1/2", "2/3", "3/4", "4/5", "1")

OBSTRUCTION_D_HI = 6


def load_galeproj_cli():
    """Import ``galeproj.cli`` from this checkout's ``src`` tree, nowhere else."""
    if not (SRC / "galeproj" / "cli.py").is_file():
        raise SystemExit(f"error: no galeproj source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import galeproj.cli

    if Path(galeproj.cli.__file__).resolve().parent != SRC / "galeproj":
        raise SystemExit(f"error: galeproj was imported from {galeproj.cli.__file__}")
    return galeproj.cli


def minksum_instance(index: int) -> list[list[tuple[int, int, int]]]:
    """Instance `index` of the generator: MINKSUM_R summands of lifted lattice points."""
    rng = random.Random(f"minksum-d3r3/{index}")
    summands = []
    for _ in range(MINKSUM_R):
        xy: set[tuple[int, int]] = set()
        while len(xy) < MINKSUM_F0:
            xy.add((rng.randint(-MINKSUM_GRID, MINKSUM_GRID), rng.randint(-MINKSUM_GRID, MINKSUM_GRID)))
        summands.append([(x, y, x * x + y * y) for x, y in sorted(xy)])
    return summands


def load_pin() -> int:
    """Sum vertex count of the instance, as galeproj computed it when the
    benchmark was defined (see pin_minksum.py)."""
    pin = json.loads(PINS_PATH.read_text())
    if pin["instance"] != MINKSUM_INSTANCE:
        raise ValueError(f"{PINS_PATH.name} pins instance {pin['instance']}, not {MINKSUM_INSTANCE}")
    return pin["f0_sum"]


def minksum_bound() -> Fraction:
    """(1 - 1/(d+1)^r) * prod f0, computed here rather than by galeproj."""
    return (1 - Fraction(1, (MINKSUM_D + 1) ** MINKSUM_R)) * MINKSUM_F0**MINKSUM_R


def make_calls(workload: str, seed: int, workdir: Path, size: int | None = None) -> list[dict]:
    """The CLI calls of one pass, each with what its output must show.

    `tuples` is a call's weight in `tuples_per_s`: the vertex tuples a
    minksum call decides.  The other workloads decide no tuples; they
    weigh an `example` call as 1 and an obstruction call by the facets its
    joins build, so there `tuples_per_s` is `wall_s` rescaled by a constant.

    `size` shrinks a workload for self-tests: the number of epsilons, or
    the largest obstruction d; minksum has one call at any size.
    """
    if workload == "minksum-d3r3":
        # One fixed call: see MINKSUM_INSTANCE for why the seed does not vary it.
        argv = ["minksum"]
        for j, points in enumerate(minksum_instance(MINKSUM_INSTANCE)):
            path = workdir / f"minksum-{MINKSUM_INSTANCE}-{j}.json"
            doc = {"type": "V", "dim": MINKSUM_D, "points": [[str(c) for c in p] for p in points]}
            path.write_text(json.dumps(doc))
            argv += ["--input", str(path)]
        argv += ["--format", "json"]
        return [{"argv": argv, "instance": MINKSUM_INSTANCE, "f0_sum": load_pin(), "tuples": MINKSUM_F0**MINKSUM_R}]
    if workload == "projection-sweep":
        epsilons = list(EPSILONS[: size or len(EPSILONS)])
        random.Random(seed).shuffle(epsilons)
        return [
            {"argv": ["example", "--epsilon", e, "--format", "json"], "epsilon": e, "tuples": 1}
            for e in epsilons
        ]
    if workload == "obstruction-d2-6":
        # One fixed call: the seed has nothing to vary here.
        d_hi = size or OBSTRUCTION_D_HI
        return [
            {
                "argv": ["obstruction", "--d", f"2..{d_hi}", "--format", "json"],
                "d_values": list(range(2, d_hi + 1)),
                "tuples": sum((d + 1) ** d for d in range(2, d_hi + 1)),
            }
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _json_documents(text: str) -> list:
    decoder = json.JSONDecoder()
    docs, at = [], 0
    while True:
        while at < len(text) and text[at].isspace():
            at += 1
        if at == len(text):
            return docs
        doc, at = decoder.raw_decode(text, at)
        docs.append(doc)


def _check_minksum(call: dict, doc: dict) -> list[str]:
    res = doc["results"]
    problems = []
    f0_sum = res["f0_sum"]
    if f0_sum != call["f0_sum"]:
        problems.append(f"f0_sum {f0_sum} != pinned {call['f0_sum']}")
    if not f0_sum <= minksum_bound():
        problems.append(f"f0_sum {f0_sum} exceeds the bound {minksum_bound()}")
    if res["trivial_bound"] != MINKSUM_F0**MINKSUM_R:
        problems.append(f"trivial_bound {res['trivial_bound']}")
    choices = [tuple(c) for c in res["choices"]]
    if not len(res["vertices"]) == len(choices) == len(set(choices)) == f0_sum:
        problems.append("vertex and choice lists disagree with f0_sum")
    summands = minksum_instance(call["instance"])
    for choice, vertex in zip(choices, res["vertices"]):
        expected = [sum(P[i][c] for i, P in zip(choice, summands)) for c in range(MINKSUM_D)]
        if [Fraction(x) for x in vertex] != expected:
            problems.append(f"vertex {vertex} is not the sum of choice {list(choice)}")
            break
    return problems


def _check_projection(call: dict, doc: dict) -> list[str]:
    res = doc["results"]
    problems = []
    if res.get("face_counts") != [6, 12, 8]:
        problems.append(f"face_counts {res.get('face_counts')}")
    if Fraction(call["epsilon"]) < 1 and not res.get("surviving") == res.get("image_vertex_count") == 8:
        problems.append(f"surviving {res.get('surviving')}, image {res.get('image_vertex_count')}")
    return problems


def _check_obstruction(d: int, doc: dict) -> list[str]:
    res = doc["results"]
    problems = []
    if doc["inputs"].get("d") != d:
        problems.append(f"report for d={doc['inputs'].get('d')}, expected {d}")
    if res["chi_total"] != d * (d - 1):
        problems.append(f"d={d}: chi_total {res['chi_total']}")
    if not res["sarkaria_lower"] == res["djn_dim_upper"] == 2 * d - 1:
        problems.append(f"d={d}: index bounds [{res['sarkaria_lower']}, {res['djn_dim_upper']}]")
    if res["embeddable"] != "no":
        problems.append(f"d={d}: embeddable {res['embeddable']!r}")
    return problems


def check_output(workload: str, call: dict, code: int, stdout: str) -> list[str]:
    """Everything wrong with one call's exit code and output; empty if correct."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        docs = _json_documents(stdout)
        problems = [f"{doc.get('scenario')}: checks failed" for doc in docs if doc.get("passed") is not True]
        if workload == "minksum-d3r3":
            if len(docs) != 1:
                return [f"{len(docs)} reports, expected 1"]
            problems += _check_minksum(call, docs[0])
        elif workload == "projection-sweep":
            if len(docs) != 1:
                return [f"{len(docs)} reports, expected 1"]
            problems += _check_projection(call, docs[0])
        else:
            if len(docs) != len(call["d_values"]):
                return [f"{len(docs)} reports, expected {len(call['d_values'])}"]
            for d, doc in zip(call["d_values"], docs):
                problems += _check_obstruction(d, doc)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {exc!r}"]
    return problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    load_galeproj_cli()
    args.out.mkdir(parents=True, exist_ok=True)
    calls = make_calls(args.workload, args.seed, args.out)
    (args.out / "calls.json").write_text(json.dumps(calls))


if __name__ == "__main__":
    main()

