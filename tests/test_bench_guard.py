"""What the bench's traced run needs of the program.

The bench times `import normgraph.cli` under `python -S` and reports each
`bench/tracer.py` target it can find.  A module imported from outside the
standard library fails under `-S`, so the import time reads NaN and the
result line is no longer strict JSON; a target that no longer resolves is
skipped, so its metrics silently leave the report.  Both are checked here
in one fresh interpreter, started as the bench starts it.
"""

from __future__ import annotations

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
