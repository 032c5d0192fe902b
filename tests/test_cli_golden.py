"""Golden CLI outputs: stdout, stderr and exit code of the structure and
decode subcommands on every corpus document, compared byte for byte.

The expected outputs live in tests/golden/<document>.json.  A change that
means to alter an output regenerates them with

    PYTHONPATH=src python tests/test_cli_golden.py

and the diff of tests/golden/ then shows exactly what changed.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from normgraph.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "validate": ["validate"],
    "behavior": ["behavior"],
    "behavior --external-only": ["behavior", "--external-only"],
    "check-duality": ["check-duality"],
    "analyze": ["analyze"],
    "analyze --json": ["analyze", "--json"],
    "two-core": ["two-core"],
    "minimize": ["minimize"],
    "decode --iters 20 --tol 0": ["decode", "--iters", "20", "--tol", "0"],
    "decode --iters 7 --tol 0 --schedule serial --damping 0.5": [
        "decode", "--iters", "7", "--tol", "0", "--schedule", "serial",
        "--damping", "0.5"],
    "decode --exact": ["decode", "--exact"],
}

DOCUMENTS = sorted(p.stem for p in CORPUS.glob("*.json"))


def run_cli(command: list[str], document: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command[0], str(document), *command[1:]])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def outputs(stem: str) -> dict:
    return {key: run_cli(cmd, CORPUS / f"{stem}.json")
            for key, cmd in COMMANDS.items()}


def test_every_corpus_document_has_a_golden_file():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == DOCUMENTS


@pytest.mark.parametrize("stem", DOCUMENTS)
def test_cli_output_matches_golden(stem):
    expected = json.loads((GOLDEN / f"{stem}.json").read_text())
    got = outputs(stem)
    assert list(got) == list(expected)
    for key in COMMANDS:
        assert got[key] == expected[key], (stem, key)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem in DOCUMENTS:
        (GOLDEN / f"{stem}.json").write_text(
            json.dumps(outputs(stem), indent=1, ensure_ascii=False) + "\n")
        print(f"wrote {GOLDEN.name}/{stem}.json", file=sys.stderr)
