"""What the bench's traced run needs of the program.

The bench times `import normgraph.cli` under `python -S` and reports each
`bench/tracer.py` target it can find.  A module imported from outside the
standard library fails under `-S`, so the import time reads NaN and the
result line is no longer strict JSON; a target that no longer resolves is
skipped, so its metrics silently leave the report.  Both are checked here
in one fresh interpreter, started as the bench starts it.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
import normgraph.cli
loaded = {name: getattr(getattr(mod, "__spec__", None), "origin", None)
          for name, mod in list(sys.modules.items())}
import importlib.util, json
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
with tracer.Tracer(tracer.TARGETS) as t:
    installed = [target.name for target in t.installed]
print(json.dumps({"loaded": loaded, "installed": installed,
                  "targets": [target.name for target in tracer.TARGETS]}))
"""


def bench_module(name: str):
    """`bench/<name>.py`, imported by path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_cli_imports_only_the_stdlib_and_every_trace_target_resolves():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-S", "-c", SCRIPT,
                           str(ROOT / "bench" / "tracer.py")],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    stdlib = Path(sysconfig.get_paths()["stdlib"]).resolve()
    package = (ROOT / "src" / "normgraph").resolve()
    outside = {}
    for name, origin in report["loaded"].items():
        if origin in (None, "built-in", "frozen"):
            continue
        path = Path(origin).resolve()
        if path.is_relative_to(package):
            continue
        if path.is_relative_to(stdlib) and not {"site-packages", "dist-packages"} \
                & set(path.relative_to(stdlib).parts):
            continue
        outside[name] = origin
    assert outside == {}
    assert report["installed"] == report["targets"]


RUN_SCRIPT = """
import json, sys
from normgraph.cli import main
code = main(["validate", "corpus/rep3.json"])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def test_a_cli_run_loads_no_argparse_gettext_or_shutil():
    """A plain line (`COMMAND FILE` and whole option strings, as the bench
    runs them) is read from the command table alone: the run builds no
    argparse parser, so it imports neither argparse nor what argparse pulls
    in for its messages (gettext) and its help layout (shutil, for the
    terminal width).  Every other line is argparse's to read."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-S", "-c", RUN_SCRIPT],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == 0
    assert {"argparse", "gettext", "shutil"} & set(report["modules"]) == set()


PARSE_SCRIPT = """
import json, sys
from normgraph.cli import parse_args
read = []
for argv in json.loads(sys.argv[1]):
    read.append([parse_args(argv).command,
                 sorted({"argparse", "gettext", "shutil"} & set(sys.modules))])
print(json.dumps(read))
"""

# every argv shape of `bench/run.py::commands_for`, over all three workloads
BENCH_LINES = [
    ["validate", "F"],
    ["behavior", "F", "--external-only"],
    ["check-duality", "F"],
    ["minimize", "F", "-o", "O"],
    ["analyze", "F", "--json"],
    ["decode", "F", "--exact", "--priors", "P"],
    ["decode", "F", "--iters", "20", "--tol", "0", "--priors", "P"],
    ["two-core", "F"],
]


def test_every_bench_command_line_is_read_without_argparse():
    """The plain reader takes every line the bench runs, so none of them
    imports argparse or builds its parser: `parse_args` reads each one with
    no argparse, gettext or shutil in `sys.modules`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-S", "-c", PARSE_SCRIPT,
                           json.dumps(BENCH_LINES)],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[argv[0], []] for argv in BENCH_LINES]


NO_FRACTIONS_SCRIPT = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from normgraph.cli import main
report = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    report.append([argv, code, out.getvalue(),
                   sorted({"fractions", "decimal", "numbers"} & set(sys.modules))])
print(json.dumps(report))
"""


def test_only_decoding_loads_fractions(tmp_path):
    """`fractions` (which loads `decimal` and `numbers`) is imported where a
    `Fraction` is made: every non-decoding bench line, run by `main` on each
    corpus realization in one fresh `python -S`, leaves all three unloaded;
    `decode --exact` then loads them and still prints its golden marginals."""
    files = sorted(p for p in (ROOT / "corpus").glob("*.json")
                   if not p.stem.endswith("_priors"))
    written = str(tmp_path / "O")
    lines = [[cmd, str(f), *(written if a == "O" else a for a in rest)]
             for cmd, _, *rest in BENCH_LINES if cmd != "decode" for f in files]
    exact = [["decode", str(ROOT / "corpus" / f"{stem}.json"), "--exact"]
             for stem in ("rep3", "z4_iso_edge")]
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-S", "-c", NO_FRACTIONS_SCRIPT,
                           json.dumps(lines + exact)],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert len(report) == len(lines) + len(exact) >= 30
    assert {code for _, code, _, _ in report[:len(lines)]} >= {0, 3}
    for argv, code, out, loaded in report[:len(lines)]:
        assert loaded == [], argv
    for argv, code, out, loaded in report[len(lines):]:
        golden = json.loads((ROOT / "tests" / "golden" / Path(argv[1]).name).read_text())
        assert [code, out] == [golden["decode --exact"]["exit"],
                               golden["decode --exact"]["stdout"]], argv
        assert "/" in out and loaded == ["decimal", "fractions", "numbers"], argv


def test_main_runs_the_command_function_the_module_holds(monkeypatch):
    """`bench/tracer.py` wraps `cli.cmd_validate` and its siblings where the
    module holds them, so `main` must run what the module holds now, not
    the function the command table was built with."""
    import normgraph.cli as cli

    ran = []
    monkeypatch.setattr(cli, "cmd_validate", lambda args: ran.append(args.file) or 7)
    assert cli.main(["validate", "corpus/rep3.json"]) == 7
    assert ran == ["corpus/rep3.json"]


NO_JSON_SCRIPT = """
import io, sys
from contextlib import redirect_stderr, redirect_stdout
from normgraph.cli import main
report = []
for f in sys.argv[1:]:
    for cmd in (["validate"], ["behavior", "--external-only"], ["check-duality"],
                ["two-core"], ["analyze"]):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main([cmd[0], f, *cmd[1:]])
        report.append([cmd[0], f, code, sorted({"json", "re", "enum"} & set(sys.modules))])
print(repr(report))
"""


def test_the_reading_commands_load_no_json_re_or_enum():
    """A command that writes no JSON reads its document with the C scanner
    alone: `validate`, `behavior --external-only`, `check-duality`,
    `two-core` and text `analyze`, run by `main` on every corpus realization
    in one fresh `python -S`, leave `json`, `re` and `enum` unloaded."""
    files = sorted(str(p) for p in (ROOT / "corpus").glob("*.json")
                   if not p.stem.endswith("_priors"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-S", "-c", NO_JSON_SCRIPT, *files],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = ast.literal_eval(proc.stdout)      # read here: `ast` loads `enum`
    assert len(report) == 5 * len(files) >= 25
    assert {code for _, _, code, _ in report} >= {0, 1}
    assert [loaded for _, _, _, loaded in report] == [[]] * len(report)
