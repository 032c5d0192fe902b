"""End-to-end and per-layer benchmark of the `normgraph` command line.

    python3 bench/run.py --workload trellis --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  The workload's documents are generated from the seed, then:

* `--trace 0` runs the workload's CLI subcommands as subprocesses, one at a
  time in cycles (closed loop, one client) until `--seconds` have passed,
  checks every answer against the oracles in `oracles.py`, and reports the
  median wall time per role (`validate_s`, `structure_s`, `decode_s`) and
  the median set-up time (`setup_s`), scaled to a nominal host speed.
* `--trace 1` calls `normgraph.cli.main(argv)` in-process on the same
  commands, alternating untraced and traced passes, and reports per-layer
  counts and times (see `tracer.py`), the tracing overhead, the import time
  and the scaling exponents of the trellis ladder.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the Python version, CPU count, seed, invocation counts, unscaled medians and
the median probe time.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
from tracer import COUNT_STATS, TARGETS, Tracer, stat_values  # noqa: E402
from workloads import (GENERATORS, Workload, fixed_profile_rows,  # noqa: E402
                       trellis_document)

SETUP_REPEATS = 5
INVOCATION_TIMEOUT_S = 60.0
HARD_LIMIT_S = 165.0          # the whole run ends well inside 180 s
IMPORT_SAMPLES = 5
LADDER_SIZES = (8, 10, 12, 14)
# -S: the program needs only the standard library, so site-packages hooks
# (which differ between machines) are kept out of the measured start-up
CLI = ["-S", "-c", "import sys; from normgraph.cli import main; sys.exit(main())"]


# Host speed probe.  On a shared host the CPU speed a process gets drifts
# several-fold over minutes, for every program alike.  Each timed sample is
# scaled by (PROBE_NOMINAL_S / probe time around it) ** SPEED_ELASTICITY:
# an estimate of the time on a host where the probe takes PROBE_NOMINAL_S
# (an unloaded 2-CPU x86 host running Python 3.11).  CLI time grows less
# than the probe time when the host slows down: on such a host, log CLI
# time rose 0.77-0.81 per unit of log probe time over 87 paired samples,
# and 0.8 gave the least spread over ten runs while the probe time doubled.
PROBE_NOMINAL_S = 0.036
SPEED_ELASTICITY = 0.8


def _probe_kernel() -> int:
    """Fixed pure-Python work: modular list arithmetic, tuples, a dict."""
    acc = 0
    row = list(range(48))
    seen: dict[tuple, int] = {}
    for k in range(2500):
        row = [(a * 5 + k) % 12 for a in row]
        key = tuple(row[:6])
        seen[key] = seen.get(key, 0) + 1
        acc += sum(row)
    return acc + len(seen)


def probe() -> float:
    """Seconds for five runs of the probe kernel (about 36 ms unloaded)."""
    t0 = time.perf_counter()
    for _ in range(5):
        _probe_kernel()
    return time.perf_counter() - t0


class Timeout(BaseException):
    """Raised inside an in-process pass when the run's hard limit is reached."""


@dataclass
class Command:
    name: str                     # subcommand, e.g. "check-duality"
    role: str                     # "validate", "structure" or "decode"
    argv: list[str]
    check: Callable[[str, str], list[str]]    # (stdout, stderr) -> problems
    repeat: int = 1               # invocations per cycle, so that short
                                  # commands collect as many samples as long ones


class Run:
    """One benchmark run: work directory, deadlines and the failure tally."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.perf_counter()
        self.hard_deadline = self.start + HARD_LIMIT_S
        self.work = ROOT / ".bench_build" / f"{workload}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.invocations: dict[str, int] = {}
        self.verified: set[str] = set()
        self.raw_medians: dict[str, float] = {}
        self.probes: list[float] = [probe()]
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("PYTHON") or k == "PYTHONHOME"}
        env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                   PYTHONIOENCODING="utf-8")
        self.env = env

    def remaining(self) -> float:
        return self.hard_deadline - time.perf_counter()

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAIL {label}: {'; '.join(problems)}", file=sys.stderr)
        return not problems

    def cli(self, argv: list[str], env=None) -> tuple[int | None, str, str, float]:
        """Run the CLI as a subprocess; exit code None means timed out."""
        timeout = min(INVOCATION_TIMEOUT_S, max(self.remaining(), 0.1))
        t0 = time.perf_counter()
        try:
            p = subprocess.run([sys.executable, *CLI, *argv], cwd=ROOT,
                               env=env or self.env, capture_output=True,
                               text=True, encoding="utf-8", timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, "", f"timed out after {timeout:.0f} s", \
                time.perf_counter() - t0
        return p.returncode, p.stdout, p.stderr, time.perf_counter() - t0

    def scaled(self, dt: float) -> float:
        """Scale a sample just taken by the host speed around it."""
        self.probes.append(probe())
        around = (self.probes[-2] + self.probes[-1]) / 2
        return dt * (PROBE_NOMINAL_S / around) ** SPEED_ELASTICITY

    def judge(self, cmd: Command, code, out: str, err: str) -> bool:
        if code != 0:
            problems = [f"exit {code}: {err.strip()[-300:]}"]
        else:
            try:
                problems = cmd.check(out, err)
            except Exception as exc:          # a malformed answer is a failure
                problems = [f"check raised {exc!r}"]
        return self.record(cmd.name, problems)

    def same_code_check(self, path: Path, code: set, n: int) -> list[str]:
        """Untimed `behavior` run on a written file; cached by file content."""
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if digest in self.verified:
            return []
        rc, out, err, _ = self.cli(["behavior", str(path), "--external-only"])
        if rc != 0:
            return [f"behavior on the minimized file exited {rc}"]
        problems = oracles.check_code_rows(out, code, n)
        if not problems:
            self.verified.add(digest)
        return problems


# -- workloads -------------------------------------------------------------------


def commands_for(run: Run, wl: Workload, paths: dict[str, str]) -> list[Command]:
    """The workload's subcommands, each with its independent answer check."""
    f, pri = paths["realization"], paths["priors"]
    doc = oracles.Doc(wl.realization)
    validate = Command("validate", "validate", ["validate", f],
                       lambda out, err: oracles.check_validate(out), repeat=3)
    if wl.name == "trellis":
        rows, n = wl.facts["rows"], wl.facts["n"]
        code = oracles.binary_code(rows)
        orders = oracles.analyze_orders(doc)
        app = oracles.exact_app(code, wl.facts["priors"])
        minimized = run.work / "minimized.json"

        def check_minimize(out, err):
            written = json.loads(minimized.read_text())
            problems = (oracles.check_minimized(written, out, code, n)
                        or run.same_code_check(minimized, code, n))
            minimized.unlink()      # the next invocation must write it anew
            return problems

        return [
            validate,
            Command("behavior", "structure", ["behavior", f, "--external-only"],
                    lambda out, err: oracles.check_code_rows(out, code, n),
                    repeat=2),
            Command("check-duality", "structure", ["check-duality", f],
                    lambda out, err: oracles.check_duality_summary(
                        out, len(code), 2 ** n)),
            Command("minimize", "structure",
                    ["minimize", f, "-o", str(minimized)], check_minimize),
            Command("analyze", "structure", ["analyze", f, "--json"],
                    lambda out, err: oracles.check_analyze(out, orders)),
            Command("decode", "decode", ["decode", f, "--exact", "--priors", pri],
                    lambda out, err: oracles.check_exact_marginals(out, app),
                    repeat=3),
        ]
    if wl.name == "ldpc":
        # 20 flooding iterations on the normal graph are 10 two-phase rounds
        reference = oracles.reference_bp(wl.facts["h"], wl.priors, 10)
        return [
            validate,
            Command("decode", "decode",
                    ["decode", f, "--iters", "20", "--tol", "0", "--priors", pri],
                    lambda out, err: oracles.check_bp_marginals(out, reference)),
            Command("two-core", "structure", ["two-core", f],
                    lambda out, err: oracles.check_two_core(out, doc), repeat=3),
        ]
    if wl.name == "ring":
        orders = oracles.analyze_orders(doc)
        code_order = (orders["order_extended"]
                      // oracles.count_configurations(doc, zero_symbols=True))
        symbols = {k: math.prod(m) for k, m in doc.symbols.items()}
        return [
            validate,
            Command("analyze", "structure", ["analyze", f, "--json"],
                    lambda out, err: oracles.check_analyze(out, orders)),
            Command("check-duality", "structure", ["check-duality", f],
                    lambda out, err: oracles.check_duality_summary(
                        out, code_order, doc.symbol_space_order()), repeat=3),
            Command("decode", "decode",
                    ["decode", f, "--iters", "20", "--tol", "0", "--priors", pri],
                    lambda out, err: oracles.check_distributions(out, symbols),
                    repeat=2),
        ]
    raise ValueError(f"unknown workload {wl.name!r}")


def setup(run: Run) -> tuple[Workload, dict[str, str], float]:
    """Generate and write the workload, then validate it once with a cold
    bytecode cache; repeated, and the median time reported."""
    times = []
    for k in range(SETUP_REPEATS):
        dest = run.work / f"setup{k}"
        cold_src = dest / "cold-src"
        shutil.copytree(ROOT / "src", cold_src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        env = dict(run.env, PYTHONPATH=str(cold_src))
        t0 = time.perf_counter()
        wl = GENERATORS[run.workload](run.seed)
        paths = wl.write(str(dest))
        rc, out, err, _ = run.cli(["validate", paths["realization"]], env=env)
        times.append(run.scaled(time.perf_counter() - t0))
        run.record("cold validate",
                   [f"exit {rc}: {err.strip()[-300:]}"] if rc != 0
                   else oracles.check_validate(out))
    return wl, paths, statistics.median(times)


# -- end-to-end (subprocess) mode ------------------------------------------------


def measure_cli(run: Run, commands: list[Command]) -> dict[str, float]:
    """Cycle through the commands until `seconds` have passed (the first
    cycle always completes); report per-role medians of the wall times,
    each scaled by the host speed probed around it (see `probe`)."""
    warm = commands[0]
    run.judge(warm, *run.cli(warm.argv)[:3])        # fills the bytecode cache
    deadline = time.perf_counter() + run.seconds
    samples: dict[str, list[float]] = {c.name: [] for c in commands}
    raw: dict[str, list[float]] = {c.name: [] for c in commands}
    first_cycle = True
    while run.remaining() > 0:
        for cmd in commands:
            for _ in range(cmd.repeat):
                if not first_cycle and time.perf_counter() >= deadline:
                    break
                code, out, err, dt = run.cli(cmd.argv)
                raw[cmd.name].append(dt)
                samples[cmd.name].append(run.scaled(dt))
                run.invocations[cmd.name] = run.invocations.get(cmd.name, 0) + 1
                run.judge(cmd, code, out, err)
        first_cycle = False
        if time.perf_counter() >= deadline:
            break
    median = {name: statistics.median(v) for name, v in samples.items()}
    run.raw_medians = {name: statistics.median(v) for name, v in raw.items()}
    by_role = {role: [median[c.name] for c in commands if c.role == role]
               for role in ("validate", "structure", "decode")}
    return {"validate_s": sum(by_role["validate"]),
            "structure_s": sum(by_role["structure"]),
            "decode_s": sum(by_role["decode"])}


# -- traced (in-process) mode ----------------------------------------------------


def _on_alarm(signum, frame):
    raise Timeout()


def call_main(main, argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def in_process_pass(run: Run, main, commands, tracer: Tracer | None):
    """All commands once, in-process; answers are checked after the pass so
    that the checks stay outside the traced region."""
    t0 = time.perf_counter()
    if tracer is not None:
        with tracer:
            results = [call_main(main, c.argv) for c in commands]
    else:
        results = [call_main(main, c.argv) for c in commands]
    wall = time.perf_counter() - t0
    for cmd, (code, out, err) in zip(commands, results):
        run.invocations[cmd.name] = run.invocations.get(cmd.name, 0) + 1
        run.judge(cmd, code, out, err)
    iterations = sum(int(line.split()[2]) for _, _, err in results
                     for line in err.splitlines()
                     if line.startswith("# iterations "))
    return wall, iterations


def import_seconds(run: Run) -> float:
    script = ("import time; t = time.perf_counter(); import normgraph.cli; "
              "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_SAMPLES):
        p = subprocess.run([sys.executable, "-S", "-c", script], cwd=ROOT, env=run.env,
                           capture_output=True, text=True,
                           timeout=max(run.remaining(), 0.1))
        if run.record("import normgraph.cli",
                      [] if p.returncode == 0 else [p.stderr.strip()[-300:]]):
            times.append(float(p.stdout))
    return min(times) if times else float("nan")


def ladder(run: Run) -> dict[str, float]:
    """Log-log slope of Realization.code() and minimize_cycle_free on the
    `trellis` workload's construction at n in LADDER_SIZES, k = n / 2."""
    from normgraph.minimize import minimize_cycle_free
    from normgraph.serialize import realization_from_json
    code_t, min_t = [], []
    for n in LADDER_SIZES:
        rows = fixed_profile_rows(random.Random(f"ladder/{run.seed}/{n}"),
                                  n, n // 2)
        doc = trellis_document(rows, n)
        t0 = time.perf_counter()
        order = realization_from_json(doc).code().order
        code_t.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        m = minimize_cycle_free(realization_from_json(doc))
        min_t.append(time.perf_counter() - t0)
        code = oracles.binary_code(rows)
        got = {j: m.states[j].alphabet.order for j in m.internal_states()}
        want = oracles.minimal_state_orders(code, n)
        run.record(f"ladder n={n}",
                   ([f"|C| = {order}"] if order != len(code) else [])
                   + ([f"minimal state orders {got} != {want}"]
                      if got != want else []))
    return {"ladder.code_exponent": slope(LADDER_SIZES, code_t),
            "ladder.minimize_exponent": slope(LADDER_SIZES, min_t)}


def slope(xs, ys) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def measure_traced(run: Run, commands: list[Command]) -> dict[str, float]:
    sys.path.insert(0, str(ROOT / "src"))
    import normgraph.cli
    if not Path(normgraph.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported {normgraph.cli.__file__}, not {ROOT / 'src'}")
    main = normgraph.cli.main
    metrics = {"cli.import_s": import_seconds(run)}
    metrics.update(ladder(run))
    deadline = run.start + run.seconds
    walls, per_pass = [], []
    iterations = 0
    # untraced and traced passes in the order U T T U U T ..., until the
    # run's time is up and each kind has run at least once; each adjacent
    # pair (U T, T U, ...) gives one overhead ratio
    for k in itertools.count():
        tracer = Tracer(TARGETS) if k % 4 in (1, 2) else None
        wall, iterations = in_process_pass(run, main, commands, tracer)
        walls.append(wall)
        if tracer is not None:
            per_pass.append(stat_values(tracer))
        if per_pass and time.perf_counter() >= deadline:
            break
    ratios = []
    for k in range(0, len(walls) - 1, 2):
        pair = walls[k:k + 2]
        plain, traced = pair if k % 4 == 0 else pair[::-1]
        ratios.append(traced / plain)
    first = per_pass[0]
    for other in per_pass[1:]:
        drift = [k for k in first if k.rsplit(".", 1)[1] in COUNT_STATS
                 and other[k] != first[k]]
        run.record("traced counts repeat", [f"counts differ: {drift}"] if drift else [])
    for key in first:
        if key.rsplit(".", 1)[1] in COUNT_STATS:
            metrics[key] = first[key]
        else:
            metrics[key] = min(p[key] for p in per_pass)
    metrics["decode.iterations"] = iterations
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    return metrics


# -- report ----------------------------------------------------------------------


def units_of(spec: dict, trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "normgraph" / "cli.py").is_file():
        print(f"error: no normgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # one CPU for the benchmark and its children, so that the speed probe
    # runs where the measured program runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args.workload, args.seed, args.seconds)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, HARD_LIMIT_S)
    try:
        wl, paths, setup_s = setup(run)
        commands = commands_for(run, wl, paths)
        if args.trace:
            metrics = measure_traced(run, commands)
        else:
            metrics = measure_cli(run, commands)
            metrics["setup_s"] = setup_s
    except Timeout:
        print("error: run exceeded its time limit", file=sys.stderr)
        return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(run.work, ignore_errors=True)

    units = units_of(spec, bool(args.trace))
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"note: not measured at this commit: {missing}", file=sys.stderr)
    print(json.dumps({
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "invocations": run.invocations, "raw_median_s": run.raw_medians,
        "probe_median_s": statistics.median(run.probes)}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if k in metrics},
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # fixed hashing, so that counts repeat exactly between runs
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    raise SystemExit(main())
