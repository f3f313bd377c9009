"""Self-tests of the benchmark harness.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import random
import sys

import pytest

import run
import workloads
import tracing
from tracing import LAYERS, Tracer

cli = workloads.load_galeproj_cli()


@pytest.mark.parametrize(
    "workload, size",
    [("minksum-d3r3", 1), ("projection-sweep", 2), ("obstruction-d2-6", 2)],
)
def test_each_workload_passes_its_checks_at_its_smallest_size(workload, size, tmp_path):
    calls = workloads.make_calls(workload, 5, tmp_path, size)
    done = run.run_pass(cli, workload, calls)
    assert done.failed == 0
    assert len(done.times) == len(calls) and all(t > 0 for t in done.times)


def test_checks_reject_wrong_outputs(tmp_path):
    [call] = workloads.make_calls("obstruction-d2-6", 5, tmp_path, 3)
    done = run.run_pass(cli, "obstruction-d2-6", [call])
    assert workloads.check_output("obstruction-d2-6", call, 0, done.outputs[0]) == []
    bad = done.outputs[0].replace('"embeddable": "no"', '"embeddable": "unknown"', 1)
    assert workloads.check_output("obstruction-d2-6", call, 0, bad)
    assert workloads.check_output("obstruction-d2-6", call, 1, done.outputs[0])
    assert workloads.check_output("obstruction-d2-6", call, 0, "not json")

    [call] = workloads.make_calls("minksum-d3r3", 5, tmp_path, 1)
    out = run.run_pass(cli, "minksum-d3r3", [call]).outputs[0]
    doc = json.loads(out)
    doc["results"]["f0_sum"] += 1
    assert workloads.check_output("minksum-d3r3", call, 0, json.dumps(doc))


def _galeproj_bindings():
    return {
        (name, attr): obj
        for name, module in sys.modules.items()
        if name == "galeproj" or name.startswith("galeproj.")
        for attr, obj in vars(module).items()
    }


def test_tracer_rebinds_every_alias_and_restores_originals():
    pipeline = sys.modules["galeproj.pipeline"]
    polytopes = sys.modules["galeproj.polytopes"]
    before = _galeproj_bindings()
    init = polytopes.HPolytope.__init__
    tracer = Tracer()
    tracer.install()
    try:
        # pipeline imported this function by name; both names see the wrapper
        assert pipeline.minkowski_sum_vertices is polytopes.minkowski_sum_vertices
        assert pipeline.minkowski_sum_vertices is not before[("galeproj.polytopes", "minkowski_sum_vertices")]
        pipeline.obstruction_pipeline(2)
        pipeline.two_triangle_example("1/4")
    finally:
        tracer.uninstall()
    after = _galeproj_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert polytopes.HPolytope.__init__ is init

    counts = tracer.counts
    assert counts["pipeline.obstruction_pipeline.calls"] == 1
    assert counts["complexes.power_join.calls"] == 1
    assert counts["complexes.power_join.facets"] == 9
    assert counts["polytopes.HPolytope.init.calls"] >= 1
    assert counts["lp.lp_feasible.calls"] == sum(1 for s in tracer.spans if s[0] == "lp.lp_feasible") > 0
    assert 0 < counts["lp.lp_feasible.feasible"] < counts["lp.lp_feasible.calls"] < counts["lp.lp_feasible.rows"]
    assert {s[0].split(".")[0] for s in tracer.spans} <= set(LAYERS)

    # self times partition the root spans
    roots = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    assert sum(tracer.self_times().values()) == pytest.approx(roots, rel=1e-9)


def test_tail_percentile_on_known_samples():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    assert run.tail_percentile(samples) == (90.0, 90)
    assert run.tail_percentile(range(11)) == (100 / 11, 0)
    assert run.tail_percentile(range(1, 21), beyond=5) == (75.0, 15)
    with pytest.raises(ValueError):
        run.tail_percentile(range(10))


def test_fastest_takes_each_call_and_each_piece_at_its_fastest_repeat():
    def p(times, pieces):
        return run.Pass(times, pieces, [""] * len(times), 0, sum(times))

    # whole calls, where calls have no pieces
    fastest = run.Fastest([p([3.0, 1.0], [[], []]), p([2.0, 5.0], [[], []])])
    assert fastest.wall() == 3.0
    # a last pass that stopped part way still counts for the calls it ran
    fastest.add(p([1.5], [[]]))
    assert fastest.wall() == 2.5
    # pieces matched by position, each at its fastest repeat
    assert run.Fastest([p([3.5], [[1.5, 2.0]]), p([3.25], [[2.25, 1.0]])]).wall() == 2.5
    # repeats cut into different numbers of pieces: whole calls from then on
    fastest = run.Fastest([p([3.5], [[1.5, 2.0]]), p([3.25], [[3.25]])])
    fastest.add(p([3.75], [[0.5, 3.25]]))
    assert fastest.wall() == 3.25


@pytest.mark.parametrize("workload", ["minksum-d3r3", "projection-sweep"])
def test_piece_timer_cuts_calls_at_kernels_and_restores_them(workload, tmp_path):
    before = _galeproj_bindings()
    piece = tracing.PieceTimer(workloads.KERNELS)
    calls = workloads.make_calls(workload, 5, tmp_path, 1)
    piece.install()
    try:
        done = run.run_pass(cli, workload, calls, piece=piece)
    finally:
        piece.uninstall()
    after = _galeproj_bindings()
    assert all(after[k] is before[k] for k in before)
    assert done.failed == 0
    [pieces] = done.pieces
    # a start and an end mark per outermost kernel call
    assert len(pieces) % 2 == 1 and all(t >= 0 for t in pieces)
    assert sum(pieces) == pytest.approx(done.times[0], rel=1e-9)
    if workload == "minksum-d3r3":
        assert len(pieces) == 2 * workloads.MINKSUM_F0**workloads.MINKSUM_R + 1


def test_minksum_input_is_fixed_distinct_lifted_points(tmp_path):
    instance = workloads.minksum_instance(workloads.MINKSUM_INSTANCE)
    assert instance == workloads.minksum_instance(workloads.MINKSUM_INSTANCE)
    assert len(instance) == workloads.MINKSUM_R
    for points in instance:
        assert len(set(points)) == len({(x, y) for x, y, _ in points}) == workloads.MINKSUM_F0
        assert all(z == x * x + y * y for x, y, z in points)
    # the seed does not vary the instance (see workloads.MINKSUM_INSTANCE)
    [a] = workloads.make_calls("minksum-d3r3", 7, tmp_path)
    files = {path: open(path).read() for path in a["argv"] if path.endswith(".json")}
    [b] = workloads.make_calls("minksum-d3r3", 8, tmp_path)
    assert a == b and len(files) == workloads.MINKSUM_R
    assert all(open(path).read() == text for path, text in files.items())
    assert a["f0_sum"] == workloads.load_pin()
