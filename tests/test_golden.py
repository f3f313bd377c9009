"""Golden CLI output: the full stdout and exit code of a few report calls.

Each file under `tests/golden/` holds the exact bytes a call prints.  A
change that should not alter what the CLI prints (a refactor, a faster
kernel) must keep every one of them; a change that alters output on
purpose rewrites the file and says so.
"""

import json
from pathlib import Path

import pytest

from galeproj.cli import main
from test_cli import COMPLEX, TRIANGLE_V

GOLDEN = Path(__file__).with_name("golden")

# a square given by its 4 vertices and its centre, which is no vertex
SQUARE_V = {"type": "V", "dim": 2, "points": [[0, 0], [2, 0], [0, 2], [2, 2], [1, 1]]}
# input files written into the working directory of each call; the minksum
# report prints its input paths, so the calls name them relatively
INPUTS = {"triangle.json": TRIANGLE_V, "square.json": SQUARE_V}

# golden file -> (argv, exit code); "{complex}" is the COMPLEX fixture's path
CALLS = {
    "example-quarter.txt": (["example", "--epsilon", "1/4"], 0),
    "example-quarter.json": (["example", "--epsilon", "1/4", "--format", "json"], 0),
    "example-one.txt": (["example", "--epsilon", "1"], 0),
    # the two ends of the benchmark's epsilon sweep
    "example-fifth.json": (["example", "--epsilon", "1/5", "--format", "json"], 0),
    "example-four-fifths.json": (["example", "--epsilon", "4/5", "--format", "json"], 0),
    "minksum-triangle-square.txt": (["minksum", "--input", "triangle.json", "--input", "square.json"], 0),
    "obstruction-d2-4.json": (["obstruction", "--d", "2..4", "--format", "json"], 0),
    "bound-d3-r3.txt": (["bound", "--d", "3", "--r", "3", "--f0", "5,5,5"], 0),
    # below the threshold (r < d): the counts and the trivial bound, no sharpened one
    "experiment-d3-r2.txt": (["experiment", "--d", "3", "--r", "2", "--f0", "5,5", "--trials", "2", "--seed", "1"], 0),
    "complex-djn.txt": (["complex", "djn", "--input", "{complex}"], 0),
    "complex-nf.txt": (["complex", "nf", "--input", "{complex}"], 0),
    # the verdict's fields in order; "no" at the 1-sphere, "unknown" at the 2-sphere
    "embed-sphere1.json": (["embed", "--input", "{complex}", "--sphere", "1", "--format", "json"], 0),
    "embed-sphere2.txt": (["embed", "--input", "{complex}", "--sphere", "2"], 0),
}


def test_every_golden_file_is_checked():
    assert {p.name for p in GOLDEN.iterdir()} == set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_stdout_and_exit_code_are_pinned(name, tmp_path, monkeypatch, capsys):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(COMPLEX))
    for filename, doc in INPUTS.items():
        (tmp_path / filename).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    argv, code = CALLS[name]
    assert main([arg.format(complex=path) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / name).read_text(encoding="utf-8")
    assert captured.err == ""
