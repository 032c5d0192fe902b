"""`normgraph.cli.parse_args` against the argparse parser it replaced.

`tests/argparse_reference.py` keeps that parser verbatim.  On a seeded set
of command lines over every subcommand, drawn from the accepted forms
(`--opt value`, `--opt=value`, `-oFILE`, unique prefixes, options on both
sides of the file, `--`, negative numbers, repeated options) and from
malformed ones, both parsers must agree: equal values where both accept,
exit 4 after the same one `error:` line where both refuse, and the help
(exit 0, `usage: normgraph` first) where both print it.  The reference is
the argparse of Python 3.10 to 3.12; 3.13's prints the help for `-hx`,
which these refuse.
`parse_args` itself hands every line but the plain ones to the installed
argparse, so under any version it agrees with the reference on those.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout

from normgraph.cli import parse_args
from normgraph.cli import _read_plain
from tests.argparse_reference import build_parser

REFERENCE = build_parser()
SUBPARSERS = REFERENCE._subparsers._group_actions[0].choices

VALUES = {
    int: ["5", "0", "-3", "1_0", " 7", "abc", "2.5", "-1e3", ""],
    float: ["0.5", "-1", "-.5", "1e-3", "nan", "-1e-3", "x", "3", "-0.25"],
    None: ["out.json", "-", "-x", "a b", "", "a,b", "=", "-5", "--", "-o"],
}
FILES = ["corpus/rep3.json", "f.json", "-", "-7", "--", ""]


def value_forms(rng: random.Random, action) -> list[str]:
    """One way to write `action` with a value, possibly malformed."""
    value = rng.choice(list(action.choices) + ["ser", "bogus"] if action.choices
                       else VALUES[action.type])
    long = action.option_strings[-1]
    prefix = long[:rng.randrange(3, len(long) + 1)]
    forms = [[long, value], [f"{long}={value}"], [prefix, value],
             [f"{prefix}={value}"], [long]]
    if len(action.option_strings) > 1:
        forms += [[f"-o{value}"], ["-o", value], [f"-o={value}"]]
    return rng.choice(forms)


def flag_forms(rng: random.Random, action) -> list[str]:
    long = action.option_strings[-1]
    prefix = long[:rng.randrange(3, len(long) + 1)]
    return rng.choice([[long], [prefix], [long], [f"{long}=1"], [f"{prefix}="]])


def draw(rng: random.Random) -> list[str]:
    command = rng.choice(list(SUBPARSERS))
    options = [a for a in SUBPARSERS[command]._actions
               if a.option_strings and a.dest != "help"]
    groups = []
    for action in rng.sample(options, rng.randrange(len(options) + 1)):
        for _ in range(1 + (rng.random() < 0.2)):          # sometimes repeated
            groups.append(flag_forms(rng, action) if action.nargs == 0
                          else value_forms(rng, action))
    roll = rng.random()
    if roll < 0.05:
        groups.append([rng.choice(["--bogus", "-x", "--exact-ish", "-q=1"])])
    elif roll < 0.10:
        groups.append(["extra.json"])
    elif roll < 0.13:
        groups.append([rng.choice(["-h", "--help", "--he", "-hh", "-hx"])])
    elif roll < 0.15:
        groups.append(["--=x"])
    rng.shuffle(groups)
    file = [] if rng.random() < 0.05 else [rng.choice(FILES)]
    at = rng.randrange(len(groups) + 1)
    if rng.random() < 0.15:                    # the file after `--`, at the end
        groups.append(["--", *file])
    else:
        groups.insert(at, file)
    head = [command]
    roll = rng.random()
    if roll < 0.03:
        head = []
    elif roll < 0.06:
        head = [rng.choice(["frobnicate", "valid", "--", "-5", ""])]
    elif roll < 0.08:
        head = [rng.choice(["--bogus", "-h", "--he", "-hx", "--help=1"]), command]
    return head + [arg for group in groups for arg in group]


def outcome(parse, argv: list[str]):
    """(values, or the exit code; stdout; stderr); a NaN value reads "nan",
    so that two parses of `--tol nan` compare equal."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            values = vars(parse(list(argv)))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()
    values = {k: "nan" if v != v else v for k, v in values.items()}
    return values, out.getvalue(), err.getvalue()


def command_lines(n: int = 600, seed: int = 20131) -> list[list[str]]:
    rng = random.Random(seed)
    return [draw(rng) for _ in range(n)]


def test_the_command_table_reads_argv_as_argparse_did():
    tally = {"accepted": 0, "refused": 0, "help": 0, "attached --": 0}
    plain = 0                 # the lines the plain reader takes, not argparse
    for argv in command_lines():
        plain += _read_plain(list(argv)) is not None
        want, want_out, want_err = outcome(REFERENCE.parse_args, argv)
        got, got_out, got_err = outcome(parse_args, argv)
        if isinstance(want, dict) and [] in want.values():
            # argparse drops an attached `--` (`--priors=--`, `-o--`) and
            # stores an empty list, on which `dual -o--` and
            # `decode --iters=--` crashed; the table reads `--` as the value
            tally["attached --"] += 1
            assert got == {k: "--" if v == [] else v for k, v in want.items()} \
                or got == 4 and "invalid" in got_err, (argv, got, got_err)
        elif isinstance(want, dict):
            tally["accepted"] += 1
            assert got == want, argv
            assert (got_out, got_err) == ("", ""), argv
        elif want == 4:
            tally["refused"] += 1
            assert (got, got_out, got_err) == (want, want_out, want_err), argv
            assert got_err.startswith("error: ") and got_err.count("\n") == 1, argv
        else:
            tally["help"] += 1
            assert (want, got) == (0, 0), (argv, got, got_err)
            assert got_out.startswith("usage: normgraph"), argv
            assert got_err == "", argv
    # the draw reaches every outcome
    assert tally["accepted"] > 200 and tally["refused"] > 100 and tally["help"] > 5, \
        tally
    assert tally["attached --"] > 0, tally
    # both readers are reached: the plain one took 110 of these 600 lines
    assert 50 < plain < 550, plain


def test_each_accepted_form_gives_the_reference_value():
    cases = [
        ["decode", "f", "--iters", "5"],
        ["decode", "f", "--iters=5"],
        ["decode", "f", "-oout.json"],
        ["decode", "f", "--it", "5", "--exa", "--sch=serial"],
        ["decode", "--tol", "-1", "f", "--damping", "-.5"],
        ["decode", "--iters", "5", "--", "f"],
        ["decode", "f", "--iters", "5", "--iters", "7"],
        ["two-core", "f", "--emit=g.dot", "-o", "-"],
        ["behavior", "--external", "f"],
        ["analyze", "f", "--fragment", "a b"],
    ]
    for argv in cases:
        want = outcome(REFERENCE.parse_args, argv)
        assert isinstance(want[0], dict) and outcome(parse_args, argv) == want, argv
