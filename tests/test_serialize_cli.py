"""Serialization round-trips and the command-line surface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from normgraph.cli import main
from normgraph.corpus import (
    GF2,
    random_realization,
    tail_biting_rep2,
    tanner_realization,
    trellis_realization,
    z4_sample_realizations,
)
from normgraph.serialize import (
    ParseError,
    graph_to_dot,
    load_priors,
    load_realization,
    realization_from_json,
    realization_to_json,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def roundtrip(r):
    return realization_from_json(json.loads(json.dumps(realization_to_json(r))))


def test_roundtrip_fixtures():
    fixtures = [
        trellis_realization([(1, 1, 1)], [GF2] * 3),
        tail_biting_rep2(),
        tanner_realization([[1, 1, 1, 0], [0, 1, 1, 1]], GF2),
        z4_sample_realizations()[2],
    ]
    for r in fixtures:
        assert roundtrip(r) == r


def test_roundtrip_randomized():
    done = 0
    for seed in range(20):
        r = random_realization(seed, topology="cycle_pendant", iso_prob=0.4)
        if not r.validate().is_valid:
            continue
        assert roundtrip(r) == r
        done += 1
    assert done >= 12


def test_parser_rejects_out_of_range():
    doc = realization_to_json(trellis_realization([(1, 1)], [GF2] * 2))
    doc["constraints"][0]["generators"] = [[2, 1]]
    with pytest.raises(ParseError):
        realization_from_json(doc)


def test_priors_parse_decimals_exactly(tmp_path):
    r = trellis_realization([(1, 1, 1)], [GF2] * 3)
    p = tmp_path / "p.json"
    p.write_text('{"a0": [0.9, 0.1], "a1": ["9/10", "1/10"], "a2": [0.9, 0.1]}')
    priors = load_priors(str(p), r, exact=True)
    for k in r.symbols:
        assert priors[k].weights == (Fraction(9, 10), Fraction(1, 10))


def test_cli_validate(capsys):
    assert main(["validate", str(CORPUS / "rep3.json")]) == 0
    assert main(["validate", str(CORPUS / "bad_degree.json")]) == 1
    out = capsys.readouterr().out
    assert "a0" in out
    assert main(["validate", str(CORPUS / "missing.json")]) == 4


def test_cli_check_duality(capsys):
    assert main(["check-duality", str(CORPUS / "rep3.json")]) == 0
    out = capsys.readouterr().out
    assert "verified" in out and "|C|=2" in out and "|C⊥|=4" in out


def test_cli_minimize(capsys, tmp_path):
    out_file = tmp_path / "min.json"
    assert main(["minimize", str(CORPUS / "rep3_padded.json"),
                 "-o", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "[2, 2]" in out
    m = load_realization(str(out_file))
    assert m.validate().is_valid
    # cyclic input is a precondition error pointing at two-core
    assert main(["minimize", str(CORPUS / "tail_biting_rep2.json")]) == 3


def test_cli_behavior(capsys):
    assert main(["behavior", str(CORPUS / "rep3.json"),
                 "--external-only"]) == 0
    out = capsys.readouterr().out
    assert "order 2" in out
    assert "1 1 1" in out


def test_cli_dual_and_two_core(capsys, tmp_path):
    dual_file = tmp_path / "dual.json"
    assert main(["dual", str(CORPUS / "rep3.json"), "-o", str(dual_file)]) == 0
    d = load_realization(str(dual_file))
    assert d.code().order == 4

    dot_file = tmp_path / "g.dot"
    assert main(["two-core", str(CORPUS / "tail_biting_rep2.json"),
                 "--emit-graph", str(dot_file)]) == 0
    text = dot_file.read_text()
    assert "graph" in text and "--" in text
    assert main(["two-core", str(CORPUS / "rep3.json")]) == 0
    out = capsys.readouterr().out
    assert "cycle-free" in out


def test_cli_analyze(capsys):
    assert main(["analyze", str(CORPUS / "tanner_redundant.json")]) == 0
    out = capsys.readouterr().out
    assert "controllable=False" in out
    assert main(["analyze", str(CORPUS / "rep3.json"),
                 "--fragment", "s1", "--json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert len(parsed) == 2


def test_cli_decode_exact(capsys):
    assert main(["decode", str(CORPUS / "rep3.json"),
                 "--priors", str(CORPUS / "rep3_priors.json"), "--exact"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["a0"] == ["729/730", "1/730"]


def test_cli_decode_iterative(capsys, tmp_path):
    out_file = tmp_path / "marg.json"
    assert main(["decode", str(CORPUS / "tail_biting_rep2.json"),
                 "--iters", "50", "-o", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert set(payload) == {"a0", "a1"}


MALFORMED_DECODE = [
    # (case, extra decode arguments, priors document, expected exit code)
    ("damping above 1", ["--damping", "1.5"], None, 4),
    ("zero iterations", ["--iters", "0"], None, 4),
    ("tolerance not a number", ["--tol", "nan"], None, 4),
    ("negative tolerance", ["--tol", "-1"], None, 4),
    ("negative prior weight", [], {"a0": [-1, 2]}, 4),
    ("prior entry not a list", [], {"a0": 5}, 4),
    ("prior weight beyond the float range", [], {"a0": ["1e400", "1"]}, 4),
    ("iterations not an integer", ["--iters", "abc"], None, 4),
]


def test_cli_malformed_decode_inputs_exit_cleanly(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    for case, extra, priors, code in MALFORMED_DECODE:
        argv = ["decode", str(CORPUS / "tail_biting_rep2.json"), *extra]
        if priors is not None:
            path = tmp_path / "priors.json"
            path.write_text(json.dumps(priors))
            argv += ["--priors", str(path)]
        proc = subprocess.run([sys.executable, "-m", "normgraph.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == code, (case, proc.stderr)
        assert "Traceback" not in proc.stderr, case
        assert proc.stderr.startswith("error: "), case
        assert proc.stdout == "", case


USAGE_ERRORS = [
    # (case, arguments): a usage error is a parse error, reported on one line
    ("unknown subcommand", ["frobnicate"]),
    ("no subcommand", []),
    ("validate without a file", ["validate"]),
    ("unknown option", ["validate", str(CORPUS / "rep3.json"), "--bogus"]),
]


def test_cli_usage_errors_exit_cleanly():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    for case, argv in USAGE_ERRORS:
        proc = subprocess.run([sys.executable, "-m", "normgraph.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 4, (case, proc.stderr)
        assert proc.stderr.startswith("error: "), (case, proc.stderr)
        assert proc.stderr.count("\n") == 1, (case, proc.stderr)
        assert proc.stdout == "", case
    for argv in (["-h"], ["decode", "-h"]):
        proc = subprocess.run([sys.executable, "-m", "normgraph.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, argv
        assert proc.stdout.startswith("usage: normgraph"), argv
        assert proc.stderr == "", argv


def test_main_returns_usage_exit_codes(capsys):
    """In process, `main` returns the usage and help exit codes rather than
    raising SystemExit."""
    for case, argv in USAGE_ERRORS:
        assert main(argv) == 4, case
        assert capsys.readouterr().err.startswith("error: "), case
    for argv in (["-h"], ["decode", "-h"]):
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.startswith("usage: normgraph"), argv


UNWRITABLE_OUTPUT = [
    # (subcommand and arguments up to the output flag, input document)
    (["decode", "-o"], "rep3.json"),
    (["minimize", "-o"], "rep3.json"),
    (["dual", "-o"], "rep3.json"),
    (["two-core", "-o"], "tail_biting_rep2.json"),
    (["two-core", "--emit-graph"], "tail_biting_rep2.json"),
]


def test_cli_unwritable_output_exits_cleanly(tmp_path):
    """An output path under a missing directory is an I/O error (exit 4)
    reported on one line, not a traceback."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    target = tmp_path / "missing" / "out"
    for (command, flag), doc in UNWRITABLE_OUTPUT:
        proc = subprocess.run([sys.executable, "-m", "normgraph.cli", command,
                               str(CORPUS / doc), flag, str(target)],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 4, (command, flag, proc.stderr)
        assert proc.stderr.startswith("error: "), (command, flag, proc.stderr)
        assert proc.stderr.count("\n") == 1 and str(target) in proc.stderr
        assert "Traceback" not in proc.stderr


def test_cli_exact_decode_of_a_long_trellis(tmp_path):
    """Tree messages are passed without recursion: a 1,200-section trellis,
    deeper than the interpreter's recursion limit, decodes exactly."""
    path = tmp_path / "long.json"
    r = trellis_realization([(1,) * 1200], [GF2] * 1200)
    path.write_text(json.dumps(realization_to_json(r)))
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-m", "normgraph.cli", "decode",
                           str(path), "--exact"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr[-500:]
    assert "Traceback" not in proc.stderr
    assert "a1199" in proc.stdout


def malformed_document(alphabet=None, vars_=None, generators=None, **top):
    doc = {
        "alphabets": {"F": alphabet if alphabet is not None else {"field": 2}},
        "symbols": [{"id": "a0", "alphabet": "F"}, {"id": "a1", "alphabet": "F"}],
        "states": [],
        "constraints": [{"id": "c0",
                         "vars": vars_ if vars_ is not None else ["a0", "a1"],
                         "generators": generators if generators is not None else []}],
    }
    return doc | top


MALFORMED_DOCUMENT = [
    # (case, document, expected exit code, text the error must name)
    ("field 2^61 - 1 is prime", malformed_document({"field": 2**61 - 1, "dim": 30}),
     0, None),
    ("field modulus 2^64 + 13", malformed_document({"field": 2**64 + 13}), 4, "'F'"),
    ("field modulus not prime", malformed_document({"field": 4}), 4, "'F'"),
    ("field modulus a bool", malformed_document({"field": True}), 4, "'F' field"),
    ("negative dim", malformed_document({"field": 2, "dim": -1}), 4, "'F'"),
    ("dim a string", malformed_document({"field": 2, "dim": "2"}), 4, "'F' dim"),
    ("dim too large", malformed_document({"field": 2, "dim": 2**40}), 4, "'F'"),
    ("cyclic modulus a float", malformed_document({"cyclic": [2.0]}), 4, "'F' cyclic"),
    ("vars a string", malformed_document(vars_="a0"), 4, "'c0' vars"),
    ("generator entry a float", malformed_document(generators=[[1.0, 1]]), 4,
     "'c0' generator"),
    ("alphabets not an object", malformed_document(alphabets=[]), 4, None),
    ("a priors file", json.loads((CORPUS / "rep3_priors.json").read_text()), 4,
     "key 'a0'"),
]


def test_cli_malformed_documents_exit_cleanly(tmp_path, capsys):
    path = tmp_path / "doc.json"
    for case, doc, code, names in MALFORMED_DOCUMENT:
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        got = main(["validate", str(path)])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert got == code, (case, err)
        assert elapsed < 1.0, case
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, (case, err)
            assert names is None or names in err, (case, err)
            assert out == "", case
        else:
            assert out.startswith("ok"), case


def test_graph_export_contains_half_edges():
    r = trellis_realization([(1, 1, 1)], [GF2] * 3)
    frag = r.split(["s2"]).fragments[0]
    dot = graph_to_dot(frag)
    assert "sym:" in dot
    assert "ext:" in dot


def test_cli_outputs_deterministic(capsys):
    main(["behavior", str(CORPUS / "tail_biting_rep2.json")])
    first = capsys.readouterr().out
    main(["behavior", str(CORPUS / "tail_biting_rep2.json")])
    assert capsys.readouterr().out == first
