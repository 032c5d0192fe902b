"""The JSON reader against `json.load`.

`serialize._read_json` scans a document with the C scanner that
`json.loads` runs on, and hands every other outcome to `json.loads`.  Its
values must be `json.load`'s, key order and types included, on every
document the repository reads.  A table of odd and malformed texts is run
through the command line in a fresh `python -S`, with `json.decoder`
unloaded before each read (the state in which CPython 3.11's scanner
reports some errors as a `SystemError`), once with the scanner and once
without it, as on an interpreter without `_json`; each text must give the
reference reader's value, or its one `error:` line and exit code.
"""

from __future__ import annotations

import ast
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from normgraph import serialize
from normgraph.cli import main
from normgraph.serialize import ParseError, _read_json, _unique_keys
from tests.test_bench_guard import ROOT, bench_module

REP3 = ROOT / "corpus" / "rep3.json"


def reference_read(path, parse_float=None):
    """The reader as it was before the scanner: `json.load` throughout."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_float=parse_float, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc


def same(a, b) -> bool:
    """Equal values of the same types, every object with the same key order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def documents(tmp_path) -> list:
    """Every corpus and golden file, and the bench documents and priors of
    all three workloads at seeds 0 and 1."""
    paths = sorted((ROOT / "corpus").glob("*.json")) + sorted(
        (ROOT / "tests" / "golden").glob("*.json"))
    workloads = bench_module("workloads")
    for name, generate in sorted(workloads.GENERATORS.items()):
        for seed in (0, 1):
            written = generate(seed).write(str(tmp_path / f"{name}-{seed}"))
            paths += [written["realization"], written["priors"]]
    return paths


def test_the_reader_returns_what_json_load_returns(tmp_path):
    paths = documents(tmp_path)
    assert len(paths) >= 26
    for path in paths:
        for parse_float in (None, str):
            got = _read_json(path, parse_float)
            assert same(got, reference_read(path, parse_float)), (path, parse_float)
    # the workloads' priors carry decimals, which `parse_float=str` keeps as text
    assert isinstance(next(iter(_read_json(paths[-1], str).values()))[0], str)


PRIORS = b'{"a0": [0.9, 0.1], "a1": [1, 3]}'
TEXTS = [
    ("whitespace around", b" \t\r\n" + REP3.read_bytes() + b"\n \t\r"),
    ("whitespace around priors", b"\n\n  " + PRIORS + b" \n"),
    ("byte order mark", b"\xef\xbb\xbf" + PRIORS),
    ("empty file", b""),
    ("whitespace only", b" \n\t\r "),
    ("trailing garbage", PRIORS + b" x"),
    ("a second document", PRIORS + b"\n" + PRIORS),
    ("NaN and -Infinity", b'{"a0": [NaN, -Infinity]}'),
    ("raw control character", b'{"a0\x01": [1, 1]}'),
    ("bad escape", b'{"a\\q": [1, 1]}'),
    ("lone surrogate escape", b'{"\\ud800": [1, 1]}'),
    ("unterminated string", b'{"a0": [1, 1], "a1'),
    ("single quotes", b"{'a0': [1, 1]}"),
    ("trailing comma", b'{"a0": [1, 1],}'),
    ("missing colon", b'{"a0" [1, 1]}'),
    ("repeated key", b'{"a0": [1, 0], "a0": [0, 1]}'),
    ("nesting 100,000 deep", b"[" * 100_000 + b"]" * 100_000),
    ("5,000-digit integer", b'{"a0": [1' + b"0" * 4_999 + b', 1]}'),
    ("invalid UTF-8", b'{"a0": "\xff"}'),
]

TABLE_SCRIPT = """
import io, sys
from contextlib import redirect_stderr, redirect_stdout
from normgraph import serialize
from normgraph.cli import main
if sys.argv[1] == "none":
    serialize.c_make_scanner = None
report = []
for path in sys.argv[3:]:
    for argv in (["validate", path], ["decode", sys.argv[2], "--priors", path]):
        for name in [m for m in sys.modules if m == "json" or m.startswith("json.")]:
            del sys.modules[name]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except BaseException as exc:
                code = "raised " + repr(exc)
        report.append([code, out.getvalue(), err.getvalue()])
    for parse_float in (None, str):
        for name in [m for m in sys.modules if m == "json" or m.startswith("json.")]:
            del sys.modules[name]
        try:
            report.append(["value", repr(serialize._read_json(path, parse_float))])
        except serialize.ParseError as exc:
            report.append(["error", str(exc)])
        except BaseException as exc:
            report.append(["raised", repr(exc)])
print(repr(report))
"""


def reference_outcomes(paths, monkeypatch) -> list:
    """What the reference reader gives, in the order `TABLE_SCRIPT` reports."""
    monkeypatch.setattr(serialize, "_read_json", reference_read)
    report = []
    for path in paths:
        for argv in (["validate", path], ["decode", str(REP3), "--priors", path]):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            report.append([code, out.getvalue(), err.getvalue()])
        for parse_float in (None, str):
            try:
                report.append(["value", repr(reference_read(path, parse_float))])
            except ParseError as exc:
                report.append(["error", str(exc)])
    return report


@pytest.mark.parametrize("scanner", ["c", "none"])
def test_odd_texts_read_as_json_load_reads_them(scanner, tmp_path, monkeypatch):
    paths = []
    for k, (_, text) in enumerate(TEXTS):
        paths.append(str(tmp_path / f"text{k}.json"))
        (tmp_path / f"text{k}.json").write_bytes(text)
    want = reference_outcomes(paths, monkeypatch)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-S", "-c", TABLE_SCRIPT, scanner, str(REP3),
                           *paths], capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = ast.literal_eval(proc.stdout)
    assert len(got) == len(want) == 4 * len(TEXTS)
    for k, (case, _) in enumerate(TEXTS):
        assert got[4 * k:4 * k + 4] == want[4 * k:4 * k + 4], case
    # so the table is not vacuous: a well-formed document reads, and each of
    # these malformed texts fails with one `error:` line and exit 4
    codes = {case: [want[4 * k][0], want[4 * k + 1][0]] for k, (case, _) in enumerate(TEXTS)}
    assert codes["whitespace around"] == [0, 4] and codes["whitespace around priors"][1] == 0
    for case in ("byte order mark", "empty file", "raw control character",
                 "nesting 100,000 deep", "invalid UTF-8", "repeated key"):
        assert codes[case] == [4, 4], case
        k = [c for c, _ in TEXTS].index(case)
        assert want[4 * k][2].count("\n") == 1 and want[4 * k][2].startswith("error: ")
