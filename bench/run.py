"""Benchmark of the galeproj CLI, one workload per process.

    python3 bench/run.py --workload minksum-d3r3 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Set-up runs `bench/workloads.py` in a
fresh interpreter (import plus input generation).  The measured part is a
closed loop with one client: this process calls `galeproj.cli.main(argv)`
in-process, one call at a time, with no threads, and checks every output.
A pass runs each call of the workload once.  The first pass always runs
whole; after it, calls go on in the same order, pass after pass, while the
next call is expected to end within `--seconds`, so the last pass may stop
part way.  Between calls the set-up is repeated in fresh interpreters,
spread over the run, and `setup_s` is the median of all of them, so that
it samples the host over the same span as the calls rather than in one
burst.

Every call does fixed, deterministic work, so when its repeats differ the
slower ones were slowed by other load on the host.  `wall_s` therefore
takes each call at its fastest repeat (the rule `timeit` follows), and
finer still: a timer on the exact-arithmetic kernels (`workloads.KERNELS`)
cuts each call into the kernel calls and the code between them, a few
milliseconds each, and `wall_s` sums each piece at its fastest repeat
(`Fastest`).  The median whole-pass time and the call latency tail are
printed alongside.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json.
With `--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics: self times are medians over the traced passes, counts
must repeat exactly between traced passes, and traced output must be byte
for byte the untraced output.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads
from tracing import PieceTimer, Tracer, layer_metric

SETUP_REPEATS = 15  # set-up interpreters in an untraced run
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
MIN_TRACED_PASSES = 2


def tail_percentile(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(p, value) for the highest percentile p with `beyond` samples above it."""
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        raise ValueError(f"{n} samples leave none with {beyond} beyond it")
    k = n - beyond - 1
    return 100 * (k + 1) / n, xs[k]


@dataclass
class Pass:
    """The workload's calls, run once each in order; the last pass of a run
    may stop part way."""

    times: list[float]
    pieces: list[list[float]]  # per call, the durations of its pieces
    outputs: list[str]
    failed: int
    elapsed: float

    @property
    def wall(self) -> float:
        return sum(self.times)


class Fastest:
    """Each call's fastest repeat so far and, while its repeats are cut into
    the same number of pieces, each of its pieces at its fastest repeat.
    Pieces are matched by position, which holds because the program is
    deterministic."""

    def __init__(self, passes: list[Pass] = ()):
        self.whole: list[float] = []
        self.pieces: list[list[float]] = []
        for p in passes:
            self.add(p)

    def add(self, p: Pass) -> None:
        for i, (t, cut) in enumerate(zip(p.times, p.pieces)):
            if i == len(self.whole):
                self.whole.append(t)
                self.pieces.append(cut)
                continue
            self.whole[i] = min(self.whole[i], t)
            best = self.pieces[i]
            self.pieces[i] = list(map(min, best, cut)) if len(best) == len(cut) else []

    def wall(self) -> float:
        """Time of one pass, each call at its fastest: the sum of its
        fastest pieces, or its fastest whole repeat where it has no pieces."""
        return sum(sum(cut) if cut else t for t, cut in zip(self.whole, self.pieces))


def run_pass(
    cli, workload: str, calls: list[dict], proceed=lambda i: True, piece: PieceTimer | None = None
) -> Pass:
    """Run the calls in order until `proceed(index)` says no."""
    start = perf_counter()
    times, pieces, outputs, failed = [], [], [], 0
    for i, call in enumerate(calls):
        if not proceed(i):
            break
        gc.collect()
        if piece is not None:
            piece.marks.clear()
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(call["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = None
        t1 = perf_counter()
        times.append(t1 - t0)
        # the call's span cut at each mark: kernel calls and the code between
        marks = piece.marks if piece is not None else []
        pieces.append([b - a for a, b in itertools.pairwise([t0, *marks, t1])] if marks else [])
        out = buf.getvalue()
        outputs.append(out)
        problems = workloads.check_output(workload, call, code, out)
        if problems:
            failed += 1
            print(f"check failed for {' '.join(call['argv'])}: {problems[0]}", file=sys.stderr)
    return Pass(times, pieces, outputs, failed, perf_counter() - start)


def setup_command(workload: str, seed: int, workdir: Path) -> list[str]:
    script = str(Path(workloads.__file__))
    return [sys.executable, script, "--workload", workload, "--seed", str(seed), "--out", str(workdir)]


def timed_setup(cmd: list[str]) -> float:
    """Seconds one fresh set-up interpreter takes."""
    t0 = perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up exited with code {proc.returncode}")
    return elapsed


def measure_traced(cli, workload, calls, seconds):
    """Untraced/traced pass pairs until `seconds` run out, at least
    `MIN_TRACED_PASSES` of them.  Returns the untraced and traced passes,
    the counts and self times of each traced pass, and its last spans."""
    deadline = perf_counter() + seconds
    plain, traced, counts, self_times = [], [], [], []
    tracer = Tracer()
    while True:
        plain.append(run_pass(cli, workload, calls))
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_pass(cli, workload, calls))
        finally:
            tracer.uninstall()
        counts.append(Counter(tracer.counts))
        self_times.append(tracer.self_times())
        step = plain[-1].elapsed + traced[-1].elapsed
        if len(traced) >= MIN_TRACED_PASSES and perf_counter() + step > deadline:
            return plain, traced, counts, self_times, tracer.spans


def measure(cli, workload, calls, seconds, setup_cmd, setup_times: list[float]):
    """Untraced calls until `seconds` run out, with the kernel piece timer
    on.  Repeats the set-up between calls, spread over the run, until
    `setup_times` holds `SETUP_REPEATS` times.  Returns the passes, with
    their pieces and outputs dropped once counted, and the `Fastest` of
    them."""
    start = perf_counter()
    deadline = start + seconds
    plain = []
    fastest = Fastest()

    def proceed(i: int) -> bool:
        while len(setup_times) < min(SETUP_REPEATS, 1 + SETUP_REPEATS * (perf_counter() - start) / seconds):
            setup_times.append(timed_setup(setup_cmd))
        # the first pass runs whole; later calls run while the call's last
        # time still fits before the deadline
        return not plain or perf_counter() + plain[-1].times[i] <= deadline

    piece = PieceTimer(workloads.KERNELS)
    piece.install()
    try:
        while not plain or len(plain[-1].times) == len(calls):
            done = run_pass(cli, workload, calls, proceed, piece)
            if not done.times:
                break
            fastest.add(done)
            # keep memory flat, so that the run's peak RSS does not grow
            # with the number of passes
            done.pieces.clear()
            done.outputs.clear()
            plain.append(done)
    finally:
        piece.uninstall()
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(timed_setup(setup_cmd))
    return plain, fastest


def end_to_end(spec, setup_s, calls, plain, fastest):
    wall = fastest.wall()
    samples = [t for p in plain for t in p.times]
    median = statistics.median(p.wall for p in plain if len(p.times) == len(calls))
    print(f"{len(plain)} passes; median whole pass {median:.4f} s; each piece at its fastest {wall:.4f} s")
    if len(samples) > TAIL_BEYOND:
        # Printed, not gated: the calls do fixed work, so their tail measures
        # the host's interference, which flips between runs (see README.md).
        pct, tail = tail_percentile(samples)
        print(f"call latency p{pct:.1f} of {len(samples)} calls: {tail:.4f} s")
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "tuples_per_s": sum(c["tuples"] for c in calls) / wall,
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def per_layer(spec, plain, traced, counts, self_times):
    # whole calls on both sides: trace runs do not cut calls into pieces
    overhead = Fastest(traced).wall() - Fastest(plain).wall()
    print(f"{len(traced)} traced passes; tracing adds {overhead:.4f} s to a pass")
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace_overhead_s":
            value = overhead
        elif name.endswith(".self_s"):
            value = statistics.median(layer_metric(name, counts[0], s) for s in self_times)
        else:
            value = layer_metric(name, counts[0], {})
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def trace_problems(plain, traced, counts) -> list[str]:
    """Drift in the traced counts, or traced output that differs from untraced."""
    problems = []
    fingerprint = hashlib.sha256(json.dumps(counts[0], sort_keys=True).encode()).hexdigest()[:16]
    print(f"count fingerprint {fingerprint}")
    if any(c != counts[0] for c in counts[1:]):
        problems.append("traced counts differ between traced passes")
    if any(p.outputs != plain[0].outputs for p in traced):
        problems.append("traced output differs from untraced output")
    return problems


def main() -> int:
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="galeproj CLI benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = workloads.load_galeproj_cli()
    workdir = workloads.ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    setup_cmd = setup_command(args.workload, args.seed, workdir)
    setup_times = [timed_setup(setup_cmd)]
    calls = json.loads((workdir / "calls.json").read_text())
    problems = []
    if args.trace:
        plain, traced, counts, self_times, spans = measure_traced(cli, args.workload, calls, args.seconds)
        problems = trace_problems(plain, traced, counts)
        metrics = per_layer(spec, plain, traced, counts, self_times)
        (workdir / "spans.json").write_text(json.dumps(spans))
    else:
        plain, fastest = measure(cli, args.workload, calls, args.seconds, setup_cmd, setup_times)
        traced = []
        metrics = end_to_end(spec, statistics.median(setup_times), calls, plain, fastest)

    passes = plain + traced
    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} calls, {failed} failed, fail_frac {failed / attempted}")
    result = {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
