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

from normgraph import cli
from normgraph.cli import main
from normgraph.corpus import (
    GF2,
    tail_biting_rep2,
    tanner_realization,
    trellis_realization,
)
from normgraph.decode import Message
from normgraph.serialize import (
    ParseError,
    graph_to_dot,
    load_priors,
    load_realization,
    realization_from_json,
    realization_to_json,
)
from tests.oracles import brute_force_app, random_realization, z4_sample_realizations

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


def fragment_document(states, constraints, boundary):
    """A GF(2) fragment with symbols a0.. and the GF(2)^2 alphabet F2."""
    symbols = sorted({v for _, vars_, _ in constraints for v in vars_ if v[0] == "a"})
    return {"alphabets": {"F": {"field": 2}, "F2": {"field": 2, "dim": 2}},
            "symbols": [{"id": a, "alphabet": "F"} for a in symbols],
            "states": [{"id": s, "alphabet": alpha} for s, alpha in states],
            "constraints": [{"id": c, "vars": v, "generators": g} for c, v, g in constraints],
            "boundary": boundary}


def test_two_core_cuts_a_fragment_at_its_half_edge(tmp_path, capsys):
    """A leaf of a fragment also holds the input's boundary variables; the
    leaf is measured at the half-edge of its cut edge, whatever they are named."""
    path = tmp_path / "frag.json"
    for b in ("b", "z"):            # sorts before and after the cut edge s
        path.write_text(json.dumps(fragment_document(
            [("s", "F"), (b, "F2")],
            [("c0", ["a0", "s"], [[1, 1]]),
             ("c1", ["s", "a1", b], [[1, 0, 0, 1], [0, 1, 1, 1]])], [b])))
        assert main(["two-core", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out == "cycle-free: no 2-core\n" + (
            "leaf at s: state order 2, effective alphabet order 2\n" * 2), b
        assert err == ""
    path.write_text(json.dumps(fragment_document(
        [(s, "F") for s in ("s", "t", "u", "b")],
        [("c0", ["a0", "s", "t", "u"], [[1, 1, 0, 1], [0, 1, 1, 0]]),
         ("c1", ["s", "t"], [[1, 1]]),
         ("c2", ["u", "a2", "b"], [[1, 1, 0], [0, 1, 1]])], ["b"])))
    assert main(["two-core", str(path)]) == 0
    assert capsys.readouterr() == (
        "2-core constraints: c0, c1\ncyclomatic number 1\n"
        "leaf at u: state order 2, effective alphabet order 2\n", "")


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
    ("boolean prior weight", [], {"a0": [True, False]}, 4),
    ("prior weight beyond the float range", [], {"a0": ["1e400", "1"]}, 4),
    ("iterations not an integer", ["--iters", "abc"], None, 4),
    # raw bytes: json.dumps cannot write these three
    ("priors nested 100,000 deep", [], b'{"a0": ' + b"[" * 10**5 + b"]" * 10**5 + b"}",
     4),
    ("a prior weight of 5,001 digits", [], b'{"a0": [1' + b"0" * 5000 + b", 1]}", 4),
    ("priors not UTF-8", [], bytes.fromhex("fffe7b7d"), 4),
]


def test_cli_malformed_decode_inputs_exit_cleanly(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    for case, extra, priors, code in MALFORMED_DECODE:
        argv = ["decode", str(CORPUS / "tail_biting_rep2.json"), *extra]
        if priors is not None:
            path = tmp_path / "priors.json"
            path.write_bytes(priors if isinstance(priors, bytes)
                             else json.dumps(priors).encode())
            argv += ["--priors", str(path)]
        proc = subprocess.run([sys.executable, "-m", "normgraph.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == code, (case, proc.stderr)
        assert "Traceback" not in proc.stderr, case
        assert proc.stderr.startswith("error: "), case
        assert proc.stderr.count("\n") == 1, (case, proc.stderr)
        assert proc.stdout == "", case


USAGE_ERRORS = [
    # (case, arguments): a usage error is a parse error, reported on one line
    ("unknown subcommand", ["frobnicate"]),
    ("no subcommand", []),
    ("validate without a file", ["validate"]),
    ("unknown option", ["validate", str(CORPUS / "rep3.json"), "--bogus"]),
]


IN_PROCESS_SCRIPT = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from normgraph.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"sentinel": codes}))
"""


def test_in_process_main_writes_only_to_the_current_streams(tmp_path):
    """A caller that runs `main` under `redirect_stdout` (as the bench's
    traced run does) and prints its own result last must find that result
    on the last line: no subcommand writes to fd 1, `sys.__stdout__`, a
    stream bound at import time or from an exit hook."""
    rep3, ring = str(CORPUS / "rep3.json"), str(CORPUS / "tail_biting_rep2.json")
    commands = [
        ["validate", rep3],
        ["behavior", rep3],
        ["check-duality", rep3],
        ["minimize", rep3, "-o", str(tmp_path / "minimized.json")],
        ["analyze", rep3, "--json"],
        ["two-core", ring],
        ["decode", ring, "--iters", "20", "--tol", "0"],
        ["decode", rep3, "--exact", "--priors", str(CORPUS / "rep3_priors.json")],
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-S", "-c", IN_PROCESS_SCRIPT,
                           json.dumps(commands)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == json.dumps({"sentinel": [0] * len(commands)}) + "\n"
    assert proc.stderr == ""


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


def test_running_out_of_memory_exits_3_with_one_line(monkeypatch, capsys):
    """A `MemoryError` that escapes a command ends in exit 3 and one
    `error:` line, not a traceback."""
    def exhausted(args):
        raise MemoryError

    for command in ("check-duality", "analyze"):
        monkeypatch.setitem(cli.COMMANDS, command, (exhausted, *cli.COMMANDS[command][1:]))
        assert main([command, str(CORPUS / "rep3.json")]) == 3, command
        out, err = capsys.readouterr()
        assert out == "" and err == "error: out of memory\n", command
        assert "Traceback" not in err


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


REP3 = json.loads((CORPUS / "rep3.json").read_text())


def ring_over_names(names, isos):
    """A 2-constraint ring over GF(3): symbols a0, a1 and states s, t, u, v,
    over the alphabet names in `names` (each defined as GF(3)); `isos` is
    state t's "iso" entry, if any."""
    a, b, c, d, e, f = names
    return {
        "alphabets": {n: {"field": 3} for n in names},
        "symbols": [{"id": "a0", "alphabet": a}, {"id": "a1", "alphabet": b}],
        "states": [{"id": "s", "alphabet": c}, {"id": "t", "alphabet": d, **isos},
                   {"id": "u", "alphabet": e}, {"id": "v", "alphabet": f}],
        "constraints": [
            {"id": "c0", "vars": ["a0", "s", "t", "u", "v"],
             "generators": [[1, 1, 0, 2, 1], [2, 1, 2, 1, 1]]},
            {"id": "c1", "vars": ["a1", "s", "t", "u", "v"],
             "generators": [[2, 0, 2, 2, 0], [2, 0, 1, 0, 0]]}],
    }


# two names for one alphabet; and iso-free and iso states over one name.
# ONE_NAME holds the same documents under a single name.
SHARED_ALPHABETS = [ring_over_names("FGFGGF", {}),
                    ring_over_names("FGFFGF", {"iso": [[2]]})]
ONE_NAME = [ring_over_names("FFFFFF", {}), ring_over_names("FFFFFF", {"iso": [[2]]})]

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
    ("duplicate symbol id", malformed_document(
        symbols=[{"id": "a0", "alphabet": "F"}, {"id": "a1", "alphabet": "F"},
                 {"id": "a1", "alphabet": "Z"}], alphabets={"F": {"field": 2},
                                                        "Z": {"cyclic": [2]}}),
     4, "duplicate symbol id 'a1'"),
    ("duplicate state id", malformed_document(states=[{"id": "s", "alphabet": "F"}] * 2),
     4, "duplicate state id 's'"),
    ("duplicate constraint id", REP3 | {"constraints": REP3["constraints"] + [
        {"id": "c1", "vars": ["s1", "a1", "s2"], "generators": [[0, 0, 0]]}]},
     4, "duplicate constraint id 'c1'"),
    ("symbol id an integer", malformed_document(symbols=[{"id": 0, "alphabet": "F"}]),
     4, "symbol id must be a string"),
    ("constraint id null", malformed_document(constraints=[
        {"id": None, "vars": ["a0", "a1"], "generators": []}]),
     4, "constraint id must be a string"),
    ("boundary a string", REP3 | {"boundary": "s1"}, 4, "boundary must be a list"),
    ("boundary lists a state twice", malformed_document(
        vars_=["a0", "a1", "x"], states=[{"id": "x", "alphabet": "F"}],
        boundary=["x", "x"]), 4, "boundary variable 'x' is listed twice"),
    ("two names for one alphabet", SHARED_ALPHABETS[0], 0, None),
    ("iso-free and iso states over one alphabet", SHARED_ALPHABETS[1], 0, None),
    # raw bytes: json.dumps cannot write these three
    ("nested 100,000 deep", b'{"alphabets": ' + b"[" * 10**5 + b"]" * 10**5 + b"}",
     4, "invalid JSON: maximum recursion depth"),
    ("a field of 5,001 digits", b'{"alphabets": {"F": {"field": 1' + b"0" * 5000
     + b"}}}", 4, "invalid JSON: Exceeds the limit"),
    ("not UTF-8", bytes.fromhex("fffe7b7d"), 4, "invalid JSON: 'utf-8' codec"),
]


def test_cli_malformed_documents_exit_cleanly(tmp_path, capsys):
    path = tmp_path / "doc.json"
    for case, doc, code, names in MALFORMED_DOCUMENT:
        path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
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


def test_a_repeated_json_key_is_a_parse_error(tmp_path, capsys):
    """Raw text, since a dict cannot repeat a key: the last entry won."""
    rep3, path = (CORPUS / "rep3.json").read_text(), tmp_path / "doc.json"
    decode = ["decode", str(CORPUS / "rep3.json"), "--exact", "--priors"]
    for key, argv, text in (
            ("A0", ["validate"], rep3.replace('"A0": {', '"A0": {"cyclic": [2]}, "A0": {')),
            ("id", ["validate"], rep3.replace('"id": "c0",', '"id": "c0", "id": "c9",')),
            ("a0", decode, '{"a0": [0.9, 0.1], "a0": [0.1, 0.9]}')):
        path.write_text(text)
        assert main([*argv, str(path)]) == 4, key
        assert capsys.readouterr() == (
            "", f"error: key {key!r} is repeated in one JSON object\n")


def test_validate_reports_a_repeated_boundary_entry():
    r = realization_from_json(malformed_document(
        vars_=["a0", "a1", "x"], states=[{"id": "x", "alphabet": "F"}], boundary=["x"]))
    assert r.replaced(boundary=["x", "x"]).validate().degree_errors == [
        "boundary variable 'x' is listed 2 times"]


def test_equal_constraint_codes_share_one_object():
    """Constraints over the same slot alphabets with the same generator rows
    load as one code; equal slot alphabets share one ambient."""
    def pair(cl, a, b, gens):
        return {"id": cl, "vars": [a, b], "generators": gens}

    doc = {
        "alphabets": {"F": {"field": 2}, "T": {"field": 3}},
        "symbols": [{"id": f"a{i}", "alphabet": "F" if i < 6 else "T"}
                    for i in range(8)],
        "states": [],
        "constraints": [pair("c0", "a0", "a1", [[1, 1]]),
                        pair("c1", "a2", "a3", [[1, 1]]),
                        pair("c2", "a4", "a5", [[1, 0]]),
                        pair("c3", "a6", "a7", [[1, 1]])],
    }
    c = {cl: con.code for cl, con in realization_from_json(doc).constraints.items()}
    assert c["c0"] is c["c1"]
    assert c["c2"] is not c["c0"] and c["c2"].ambient is c["c0"].ambient
    assert c["c3"].ambient is not c["c0"].ambient
    # a repeated code still has every entry's rows type-checked
    doc["constraints"].append(pair("c4", "a0", "a1", [[1.0, 1]]))
    with pytest.raises(ParseError, match="constraint 'c4' generator"):
        realization_from_json(doc)


def test_alphabet_names_key_the_loader():
    """Spaces, codes and iso-free states are keyed by alphabet name.  Two
    names for one alphabet load, write back and realize the code as one
    name does; iso-free states over one name share one record, and an iso
    state over it keeps its own."""
    for doc, one_name in zip(SHARED_ALPHABETS, ONE_NAME):
        r = realization_from_json(doc)
        out = realization_to_json(r)
        assert realization_to_json(realization_from_json(out)) == out
        assert realization_from_json(out).code() == r.code()
        one = realization_from_json(one_name)
        assert realization_to_json(one) == out and one.code() == r.code()
        assert r.states["s"] is r.states["v"] and r.states["s"] == r.states["u"]
        assert (r.states["t"] is r.states["u"]) == (r.states["t"].iso is None)
    codes = [realization_from_json(doc).code() for doc in SHARED_ALPHABETS]
    assert codes[0] != codes[1] and [c.order for c in codes] == [3, 3]


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


def test_decode_prints_exact_marginals_beyond_the_int_string_limit(tmp_path, capsys):
    """Exact decimal priors are read exactly, so a marginal may have more
    digits than int-to-str allows by default; it is printed, and an
    in-process caller keeps its own limit."""
    rep3, priors = str(CORPUS / "rep3.json"), tmp_path / "priors.json"
    priors.write_text(json.dumps({"a0": ["1e5000", "1"]}))
    argv = ["decode", rep3, "--exact", "--priors", str(priors)]
    env = {**os.environ, "PYTHONPATH": str(CORPUS.parent / "src")}
    proc = subprocess.run([sys.executable, "-m", "normgraph.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr[-300:]
    r = load_realization(rep3)
    big = Message(r.symbols["a0"], (Fraction(10**5000), Fraction(1)))
    want = brute_force_app(r, {"a0": big}).symbol_marginals
    printed = json.loads(proc.stdout)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    assert main(argv) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    assert json.loads(capsys.readouterr().out) == printed
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        assert {k: [Fraction(w) for w in ws] for k, ws in printed.items()} == \
            {k: list(m.weights) for k, m in want.items()}
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert len(printed["a0"][0]) > 10_000
