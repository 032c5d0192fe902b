"""The exit codes `normgraph.cli.main` maps from the errors the subcommands
raise: an unreadable or malformed input and an unwritable output give 4,
an unmet precondition 3.  Each ends in exactly one `error:` line on stderr
and nothing on stdout."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from normgraph.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
REP3 = str(CORPUS / "rep3.json")


def two_rep3_nodes() -> dict:
    """A valid realization whose graph has two components."""
    return {"alphabets": {"b": {"field": 2}},
            "symbols": [{"id": f"a{i}", "alphabet": "b"} for i in range(6)],
            "constraints": [
                {"id": f"c{k}", "vars": [f"a{3 * k + i}" for i in range(3)],
                 "generators": [[1, 1, 1]]} for k in range(2)]}


def missing(tmp: Path) -> str:
    return f"[Errno 2] No such file or directory: '{tmp / 'nope.json'}'"


CASES = [
    # (case, argv, exit code, the error line's text)
    ("missing realization file", lambda tmp: ["validate", str(tmp / "nope.json")],
     4, missing),
    ("missing priors file",
     lambda tmp: ["decode", REP3, "--priors", str(tmp / "nope.json")], 4, missing),
    ("malformed priors",
     lambda tmp: ["decode", REP3, "--priors", str(tmp / "bad_priors.json")], 4,
     lambda tmp: "invalid JSON: Expecting ',' delimiter: line 1 column 13 (char 12)"),
    ("unwritable -o", lambda tmp: ["decode", REP3, "-o", str(tmp / "no" / "m.json")],
     4, lambda tmp: f"[Errno 2] No such file or directory: '{tmp / 'no' / 'm.json'}'"),
    ("exact decoding of a cycle",
     lambda tmp: ["decode", str(CORPUS / "tail_biting_rep2.json"), "--exact"], 3,
     lambda tmp: "exact decoding requires a connected cycle-free graph"),
    ("two-core of a disconnected graph",
     lambda tmp: ["two-core", str(tmp / "two_nodes.json")], 3,
     lambda tmp: "two_core requires a connected realization"),
]


@pytest.mark.parametrize("case, argv, code, message", CASES,
                         ids=[case for case, *_ in CASES])
def test_main_maps_each_error_to_its_exit_code(case, argv, code, message,
                                               tmp_path, capsys):
    (tmp_path / "bad_priors.json").write_text('{"a0": [1, 2')
    (tmp_path / "two_nodes.json").write_text(json.dumps(two_rep3_nodes()))
    assert main(argv(tmp_path)) == code
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message(tmp_path)}\n")
