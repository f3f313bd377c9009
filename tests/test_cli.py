"""Exit codes of every `galeproj` subcommand: 0 on a passing call, 2 on bad input."""

import json

import pytest

from galeproj.cli import main
from galeproj.obstructions import EXACT_CAP

SQUARE_H = {"type": "H", "dim": 2, "A": [[1, 0], [-1, 0], [0, 1], [0, -1]], "b": [1, 1, 1, 1]}
TRIANGLE_V = {"type": "V", "dim": 2, "points": [["0", "0"], ["1", "0"], ["0", "1"]]}
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
    "complex cc": ["complex", "cc", "--input", "{complex}"],
    "complex nf": ["complex", "nf", "--input", "{complex}", "--format", "json"],
    "complex djn": ["complex", "djn", "--input", "{complex}"],
    "embed": ["embed", "--input", "{complex}", "--sphere", "1", "--format", "json"],
    "obstruction": ["obstruction", "--d", "3"],
}

BAD_INPUT = {
    "example": ["example", "--epsilon", "0"],
    "minksum": ["minksum", "--input", "{missing}"],
    "bound": ["bound", "--d", "3", "--r", "2", "--f0", "4,4"],
    "experiment": ["experiment", "--d", "4", "--r", "4", "--f0", "5,5,5,5", "--trials", "1", "--seed", "5"],
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
    "complex array": ("complex", [COMPLEX], "JSON object"),
    "facets entry number": ("complex", {**COMPLEX, "facets": [1]}, "'facets[0]'"),
    "vertices number": ("embed", {**COMPLEX, "vertices": 5}, "'vertices'"),
    "facet label list": ("embed", {**COMPLEX, "facets": [[[1]]]}, "'facets[0]'"),
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


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_experiment_needs_a_trial(trials, capsys):
    argv = ["experiment", "--d", "2", "--r", "2", "--f0", "3,3", "--trials", trials, "--seed", "5"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "trial" in captured.err
    assert captured.out == ""


def test_embed_certifies_a_kneser_factor_past_the_cap(tmp_path, capsys):
    # nine isolated points: the 36 non-faces are all 2-subsets, KG(9, 2)
    doc = {"vertices": list(range(1, 10)), "facets": [[v] for v in range(1, 10)]}
    assert main(["embed", "--input", _write(tmp_path, doc), "--sphere", "3", "--format", "json"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["chi_used"] == 7 and verdict["chi_is_exact"] is True


def test_embed_past_the_cap_needs_a_whole_kneser_family(tmp_path, capsys):
    # the edge {1, 2} leaves 35 of the 36 pairs as non-faces
    doc = {"vertices": list(range(1, 10)), "facets": [[1, 2]] + [[v] for v in range(3, 10)]}
    assert main(["embed", "--input", _write(tmp_path, doc), "--sphere", "3", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and f"exact cap {EXACT_CAP}" in captured.err
    assert captured.out == ""
