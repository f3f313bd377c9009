"""Exit codes of every `galeproj` subcommand: 0 on a passing call, 2 on bad input."""

import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from test_complexes import points_sweep_work
from test_polytopes import polygon_rows

from galeproj import cli, complexes, pipeline, polytopes
from galeproj.cli import _COMMANDS, _build_parser, main
from galeproj.obstructions import EXACT_CAP

SQUARE_H = {"type": "H", "dim": 2, "A": [[1, 0], [-1, 0], [0, 1], [0, -1]], "b": [1, 1, 1, 1]}
TRIANGLE_V = {"type": "V", "dim": 2, "points": [["0", "0"], ["1", "0"], ["0", "1"]]}
SEGMENT_V = {"type": "V", "points": [["0"], ["1"]]}
# the boundary of a triangle plus an isolated vertex
COMPLEX = {"vertices": [1, 2, 3, 4], "facets": [[1, 2], [2, 3], [1, 3], [4]]}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, doc in (("square", SQUARE_H), ("triangle", TRIANGLE_V), ("complex", COMPLEX)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    paths["broken"] = tmp_path / "broken.json"
    paths["broken"].write_text("{not json")
    paths["missing"] = tmp_path / "missing.json"
    return {name: str(path) for name, path in paths.items()}


PASSING = {
    "example": ["example", "--epsilon", "1/4"],
    "minksum": ["minksum", "--input", "{triangle}", "--input", "{square}", "--format", "json"],
    "bound": ["bound", "--d", "2", "--r", "2", "--f0", "3,4"],
    "experiment": ["experiment", "--d", "2", "--r", "2", "--f0", "3,3", "--trials", "1", "--seed", "5"],
    # rejection sampling of grid points found no 10 points in convex position
    "experiment ten-gon": ["experiment", "--d", "2", "--r", "2", "--f0", "10,3", "--trials", "1", "--seed", "1"],
    "experiment d4": ["experiment", "--d", "4", "--r", "4", "--f0", "5,5,5,5", "--trials", "1", "--seed", "5"],
    "complex cc": ["complex", "cc", "--input", "{complex}"],
    "complex nf": ["complex", "nf", "--input", "{complex}", "--format", "json"],
    "embed": ["embed", "--input", "{complex}", "--sphere", "1", "--format", "json"],
    "obstruction": ["obstruction", "--d", "3"],
}

BAD_INPUT = {
    "example": ["example", "--epsilon", "0"],
    "minksum": ["minksum", "--input", "{missing}"],
    "bound": ["bound", "--d", "3", "--r", "2", "--f0", "4,4"],
    "experiment": ["experiment", "--d", "3", "--r", "3", "--f0", "100,100,100", "--trials", "1", "--seed", "5"],
    "complex": ["complex", "cc", "--input", "{broken}"],
    "embed": ["embed", "--input", "{complex}", "--sphere", "-1"],
    "obstruction": ["obstruction", "--d", "5..2"],
}


def test_every_subcommand_is_covered():
    commands = {"example", "minksum", "bound", "experiment", "complex", "embed", "obstruction"}
    assert {key.split()[0] for key in PASSING} == commands == set(BAD_INPUT)


@pytest.mark.parametrize("name", sorted(PASSING))
def test_passing_call_exits_0(name, files, capsys):
    argv = [arg.format(**files) for arg in PASSING[name]]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out
    if "json" in argv:
        json.loads(out)


@pytest.mark.parametrize("name", sorted(BAD_INPUT))
def test_bad_input_exits_2(name, files, capsys):
    argv = [arg.format(**files) for arg in BAD_INPUT[name]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def _write(tmp_path, doc) -> str:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


# well-formed JSON of the wrong shape: (command, document, what the error names)
MALFORMED = {
    "polytope array": ("minksum", [TRIANGLE_V], "JSON object"),
    "points number": ("minksum", {**TRIANGLE_V, "points": 5}, "'points'"),
    "points row number": ("minksum", {**TRIANGLE_V, "points": [5]}, "'points[0]'"),
    "A number": ("minksum", {**SQUARE_H, "A": 5}, "'A'"),
    "b number": ("minksum", {**SQUARE_H, "b": 5}, "'b'"),
    "labels number": ("minksum", {**SQUARE_H, "labels": 5}, "'labels'"),
    # a segment has dimension 1, which true and 1.0 equal but are not
    "dim bool": ("minksum", {**SEGMENT_V, "dim": True}, "'dim'"),
    "dim float": ("minksum", {**SEGMENT_V, "dim": 1.0}, "'dim'"),
    "dim string": ("minksum", {**SEGMENT_V, "dim": "1"}, "'dim'"),
    "complex array": ("complex", [COMPLEX], "JSON object"),
    "facets entry number": ("complex", {**COMPLEX, "facets": [1]}, "'facets[0]'"),
    "vertices number": ("embed", {**COMPLEX, "vertices": 5}, "'vertices'"),
    "facet label list": ("embed", {**COMPLEX, "facets": [[[1]]]}, "'facets[0]'"),
    # distinct labels that every output would print as 1
    "labels printing alike": ("complex", {"vertices": [1, "1"], "facets": [[1], ["1"]]}, "1 and '1' both print as '1'"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_file_exits_2(name, tmp_path, capsys):
    command, doc, field = MALFORMED[name]
    path = _write(tmp_path, doc)
    argv = {
        "minksum": ["minksum", "--input", path],
        "complex": ["complex", "cc", "--input", path],
        "embed": ["embed", "--input", path, "--sphere", "1"],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and field in captured.err
    assert captured.out == ""


# a required field left out: (command, document, the field, the object kind)
MISSING_FIELD = {
    "points": ("minksum", {"type": "V"}, "points", "V-polytope"),
    "A": ("minksum", {"type": "H", "b": [1, 1]}, "A", "H-polytope"),
    "b": ("minksum", {"type": "H", "A": [[1], [-1]]}, "b", "H-polytope"),
    "vertices": ("complex", {"facets": [[1]]}, "vertices", "complex"),
    "facets": ("complex", {"vertices": [1, 2]}, "facets", "complex"),
    "facets embed": ("embed", {"vertices": [1, 2]}, "facets", "complex"),
}


@pytest.mark.parametrize("name", sorted(MISSING_FIELD))
def test_missing_field_is_named(name, tmp_path, capsys):
    command, doc, field, kind = MISSING_FIELD[name]
    path = _write(tmp_path, doc)
    argv = {
        "minksum": ["minksum", "--input", path],
        "complex": ["complex", "cc", "--input", path],
        "embed": ["embed", "--input", path, "--sphere", "1"],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: the {kind} has no {field!r} field\n"
    assert captured.out == ""


@pytest.mark.parametrize("A, b", [([[], []], [1, -1]), ([[]], [1])])
def test_h_polytope_without_coordinates_is_named(A, b, tmp_path, capsys):
    # rows with no entries used to reach the square solves of vertex enumeration
    assert main(["minksum", "--input", _write(tmp_path, {"type": "H", "A": A, "b": b})]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: an H-polytope needs at least one coordinate\n"
    assert captured.out == ""


def test_h_polytope_over_the_vertex_cap_exits_2(tmp_path, capsys, monkeypatch):
    def walking(rows):
        raise AssertionError("the vertices were enumerated")

    monkeypatch.setattr(polytopes, "basic_solutions", walking)
    m = 4
    while comb(m, 2) <= polytopes.H_VERTEX_CAP:
        m += 1
    A, b = polygon_rows(m)
    assert main(["minksum", "--input", _write(tmp_path, {"type": "H", "A": A, "b": b})]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: H-vertex enumeration of {m} rows in R^2 (C({m}, 2) = {comb(m, 2)} row subsets)"
        f" exceeds the cap {polytopes.H_VERTEX_CAP}\n"
    )
    assert captured.out == ""


def test_minksum_over_the_work_cap_exits_2(tmp_path, capsys, monkeypatch):
    def testing(choice, polys):
        raise AssertionError("a vertex tuple was tested")

    monkeypatch.setattr(polytopes, "minkowski_vertex_test", testing)
    argv = ["minksum"]
    for k, n in enumerate([30, 30, 29]):
        path = tmp_path / f"summand{k}.json"
        path.write_text(json.dumps({"type": "V", "dim": 2, "points": [[i, i * i] for i in range(n)]}))
        argv += ["--input", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    # 30 x 30 x 29 tuples x 86 LP columns x 3^2
    assert captured.err == (
        "error: minksum of 26100 tuples x 86 LP columns x (d+1)^2 = 20201400"
        f" exceeds the cap {pipeline.EXPERIMENT_CAP}\n"
    )
    assert captured.out == ""


def test_nf_over_the_sweep_cap_exits_2(tmp_path, capsys, monkeypatch):
    def testing(self, sigma):
        raise AssertionError("a face was tested")

    monkeypatch.setattr(complexes.Complex, "is_face", testing)
    n = 2
    while points_sweep_work(n) <= complexes.NONFACE_CAP:
        n += 1
    doc = {"vertices": list(range(1, n + 1)), "facets": [[v] for v in range(1, n + 1)]}
    assert main(["complex", "nf", "--input", _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: minimal non-face sweep of {n} vertices up to size 2"
        f" ({1 + n + comb(n, 2)} candidates x {n} facets = {points_sweep_work(n)})"
        f" exceeds the cap {complexes.NONFACE_CAP}\n"
    )
    assert captured.out == ""


# input files each parser or constructor refuses: (argv before --input, document, message)
REFUSED = {
    "float coordinate": (
        ["minksum"], {"type": "V", "points": [[0.5, 1]]}, "expected a rational string or int, got 0.5"
    ),
    "polytope type": (["minksum"], {"type": "X"}, "polytope type must be 'V' or 'H', got 'X'"),
    "declared dim": (
        ["minksum"], {"type": "V", "dim": 2, "points": [["0", "0", "1"]]}, "declared dim does not match the coordinates"
    ),
    "rhs per row": (
        ["minksum"], {"type": "H", "A": [[1, 0], [0, 1], [-1, -1]], "b": [1, 1]}, "need one rhs entry per row"
    ),
    "ragged rows": (["minksum"], {"type": "H", "A": [[1, 0], [1]], "b": [1, 1]}, "matrix rows must have equal length"),
    "duplicate labels embed": (
        ["embed", "--sphere", "1"], {"vertices": [1, 1, 2], "facets": [[1, 2]]}, "duplicate vertex labels"
    ),
    "duplicate labels complex": (
        ["complex", "nf"], {"vertices": [1, 1, 2], "facets": [[1, 2]]}, "duplicate vertex labels"
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_input_is_named(name, tmp_path, capsys):
    head, doc, message = REFUSED[name]
    assert main([*head, "--input", _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("via", ["epsilon", "file"])
def test_zero_denominator_is_named(via, tmp_path, capsys):
    argv = {
        "epsilon": ["example", "--epsilon", "1/0"],
        "file": ["minksum", "--input", _write(tmp_path, {**SQUARE_H, "b": [1, "1/0", 1, 1]})],
    }[via]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: '1/0' has a zero denominator\n"
    assert captured.out == ""


def test_minksum_bound_counts_summand_vertices_not_points(tmp_path, capsys):
    # a square with its centre point (5 points, 4 vertices) plus a triangle
    square = {"type": "V", "dim": 2, "points": [[0, 0], [2, 0], [0, 2], [2, 2], [1, 1]]}
    paths = []
    for name, doc in (("square", square), ("triangle", TRIANGLE_V)):
        paths += ["--input", str(tmp_path / f"{name}.json")]
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    assert main(["minksum", *paths, "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["f0_sum"] == 5
    assert results["trivial_bound"] == 4 * 3
    assert all(choice[0] != 4 for choice in results["choices"])


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_experiment_needs_a_trial(trials, capsys):
    argv = ["experiment", "--d", "2", "--r", "2", "--f0", "3,3", "--trials", trials, "--seed", "5"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "trial" in captured.err
    assert captured.out == ""


def test_experiment_with_too_few_vertices_samples_nothing(monkeypatch, capsys):
    # f0 = 3 points never span R^3; r < d, so no bound hypothesis catches it
    sampled = []
    monkeypatch.setattr(pipeline, "sample_vpolytope", lambda *args: sampled.append(args))
    argv = ["experiment", "--d", "3", "--r", "1", "--f0", "3", "--trials", "1", "--seed", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: every summand needs at least d+1=4 vertices, got [3]\n"
    assert captured.out == "" and sampled == []


def test_experiment_over_the_work_cap_samples_nothing(monkeypatch, capsys):
    sampled = []
    monkeypatch.setattr(pipeline, "sample_vpolytope", lambda *args: sampled.append(args))
    assert main(BAD_INPUT["experiment"]) == 2
    captured = capsys.readouterr()
    cap = pipeline.EXPERIMENT_CAP
    assert captured.err == (
        "error: experiment of 1 trials x 1000000 tuples x 297 LP columns "
        f"x (d+1)^2 = 4752000000 exceeds the cap {cap}\n"
    )
    assert captured.out == "" and sampled == []


EMBED_TEXT = """\
complex_size: 4
chi_used: 1
sarkaria_lower: 2
djn_dim_upper: 2
target_sphere: 1
embeddable: no
"""

# one line per document; it was indented by 2 while that made `json` fall
# back to its pure-Python encoder
EMBED_JSON = """\
{"chi_used": 1, "complex_size": 4, "djn_dim_upper": 2, "embeddable": "no", "sarkaria_lower": 2, "target_sphere": 1}
"""


@pytest.mark.parametrize("fmt, expected", [("text", EMBED_TEXT), ("json", EMBED_JSON)], ids=["text", "json"])
def test_embed_output_is_pinned(fmt, expected, files, capsys):
    assert main(["embed", "--input", files["complex"], "--sphere", "1", "--format", fmt]) == 0
    assert capsys.readouterr().out == expected


def test_embed_certifies_a_kneser_factor_past_the_cap(tmp_path, capsys):
    # nine isolated points: the 36 non-faces are all 2-subsets, KG(9, 2)
    doc = {"vertices": list(range(1, 10)), "facets": [[v] for v in range(1, 10)]}
    assert main(["embed", "--input", _write(tmp_path, doc), "--sphere", "3", "--format", "json"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["chi_used"] == 7


def test_embed_past_the_cap_needs_a_whole_kneser_family(tmp_path, capsys):
    # the edge {1, 2} leaves 35 of the 36 pairs as non-faces
    doc = {"vertices": list(range(1, 10)), "facets": [[1, 2]] + [[v] for v in range(3, 10)]}
    assert main(["embed", "--input", _write(tmp_path, doc), "--sphere", "3", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and f"exact cap {EXACT_CAP}" in captured.err
    assert "greedy" not in captured.err
    assert captured.out == ""


def test_nf_orders_labels_as_values(tmp_path, capsys):
    # twelve isolated points: every pair is a minimal non-face, [1, 2] before [1, 10]
    doc = {"vertices": list(range(1, 13)), "facets": [[v] for v in range(1, 13)]}
    assert main(["complex", "nf", "--input", _write(tmp_path, doc), "--format", "json"]) == 0
    nf = json.loads(capsys.readouterr().out)["minimal_nonfaces"]
    assert nf[0] == [1, 2] and nf == [[a, b] for a in range(1, 13) for b in range(a + 1, 13)]
    # ints before strings, whatever the hash seed ("0" sorts before 1 as text)
    doc = {"vertices": [1, "0", 2, "x"], "facets": [[2]]}
    assert main(["complex", "nf", "--input", _write(tmp_path, doc), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["minimal_nonfaces"] == [[1], ["0"], ["x"]]


VOID = {"vertices": [4], "facets": []}


def test_nf_of_a_complex_without_faces_is_the_empty_set(tmp_path, capsys):
    assert main(["complex", "nf", "--input", _write(tmp_path, VOID), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["minimal_nonfaces"] == [[]]


def test_embed_refuses_a_complex_without_faces(tmp_path, capsys):
    assert main(["embed", "--input", _write(tmp_path, VOID), "--sphere", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: the complex has no faces, not even the empty one\n"
    assert captured.out == ""


# argv that argparse itself ends: help, and usage errors before or after the command
PARSER_EXITS = {
    **{f"{name} --help": [name, "--help"] for name in _COMMANDS},
    "missing option": ["bound", "--d", "2", "--r", "2"],
    "unknown option": ["obstruction", "--d", "3", "--nope"],
    "extra argument": ["embed", "--input", "x.json", "--sphere", "1", "extra"],
    "format xml": ["example", "--epsilon", "1/4", "--format", "xml"],
    "complex zz": ["complex", "zz", "--input", "x.json"],
    "complex djn": ["complex", "djn", "--input", "x.json"],
    "unknown command": ["nope", "--d", "3"],
    "no arguments": [],
    "top-level help": ["--help"],
}


def _exit(call, capsys) -> tuple:
    with pytest.raises(SystemExit) as info:
        call()
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


def test_complex_refuses_the_deleted_join(files, capsys):
    code, out, err = _exit(lambda: main(["complex", "djn", "--input", files["complex"]]), capsys)
    assert (code, out) == (2, "")
    assert "invalid choice: 'djn'" in err


@pytest.mark.parametrize("name", sorted(PARSER_EXITS))
def test_one_subcommand_parser_prints_what_the_full_parser_prints(name, capsys):
    # the oracle runs in the same process, so both see one terminal width
    argv = PARSER_EXITS[name]
    got = _exit(lambda: main(argv), capsys)
    assert got == _exit(lambda: _build_parser().parse_args(argv), capsys)
    assert got[0] == (0 if "help" in name else 2)


def test_main_builds_the_named_subcommand_alone(monkeypatch, capsys):
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda only=None: built.append(only) or build(only))
    assert main(["bound", "--d", "2", "--r", "2", "--f0", "3,4"]) == 0
    _exit(lambda: main(["nope"]), capsys)
    assert built == ["bound", None]
    sub = next(a for a in build("bound")._actions if isinstance(a, cli.argparse._SubParsersAction))
    assert list(sub.choices) == ["bound"]


def test_fresh_process_reads_sys_argv():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    run = [sys.executable, "-m", "galeproj.cli"]
    done = subprocess.run(
        [*run, "obstruction", "--d", "2..3", "--format", "json"], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0 and done.stderr == ""
    # one JSON document per d
    decoder, text, docs = json.JSONDecoder(), done.stdout, []
    while text.strip():
        doc, end = decoder.raw_decode(text.lstrip())
        docs.append(doc)
        text = text.lstrip()[end:]
    assert [doc["inputs"] for doc in docs] == [{"d": 2}, {"d": 3}]
    done = subprocess.run([*run, "nope"], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    # a metavar on the full build would read "argument {obstruction,...}:"
    assert "argument command: invalid choice: 'nope'" in done.stderr


def test_import_loads_no_dataclasses():
    # `dataclasses` imports `inspect`, `ast`, `dis` and `tokenize`, which
    # nothing else a call needs loads: about 10 ms of each call's start-up
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    code = "import sys, galeproj.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout == "[]\n"
