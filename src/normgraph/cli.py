"""Command-line interface.

Exit codes: 0 ok, 1 validation failure, 2 property-check failure,
3 precondition error, 4 I/O or parse error (a usage error included).
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from ._records import record
from .alphabets import sort_key
from .analysis import obs_ctrl, state_trim_status, trim_proper
from .decode import decode_exact, decode_iterative
from .duality import dualize, verify_duality
from .errors import Disconnected, NormgraphError, NotCycleFree
from .graphcore import (
    cut_edges,
    cyclomatic_number,
    second_canonical_decomposition,
)
from .minimize import minimize_cycle_free, state_orders
from .serialize import (
    ParseError,
    dump_realization,
    graph_to_dot,
    load_priors,
    load_realization,
    marginals_to_json,
)

E_OK, E_VALIDATION, E_PROPERTY, E_PRECONDITION, E_IO = 0, 1, 2, 3, 4


def cmd_validate(args) -> int:
    r = load_realization(args.file)
    report = r.validate()
    for line in report.lines():
        print(line)
    if report.is_valid:
        print("ok: normal degree and alphabet checks pass")
        return E_OK
    return E_VALIDATION


def cmd_behavior(args) -> int:
    r = load_realization(args.file)
    sub = r.code() if args.external_only else r.behavior()
    labels = " ".join(str(lab) for lab in sub.ambient.labels)
    print(f"# columns: {labels}")
    print(f"# order {sub.order}")
    for row in sub.rows:
        print(" ".join(str(v) for v in row))
    return E_OK


def cmd_dual(args) -> int:
    r = load_realization(args.file)
    dump_realization(dualize(r), args.output)
    print(f"wrote dual realization to {args.output}")
    return E_OK


def cmd_check_duality(args) -> int:
    r = load_realization(args.file)
    rep = verify_duality(r)
    print(rep.summary())
    return E_OK if rep.passed else E_PROPERTY


def cmd_analyze(args) -> int:
    r = load_realization(args.file)
    targets = [r]
    if args.fragment:
        edges = [e.strip() for e in args.fragment.split(",") if e.strip()]
        targets = r.split(edges).fragments
    out = []
    for idx, frag in enumerate(targets):
        entry: dict = {"fragment": idx, "constraints": sorted(frag.constraints)}
        tp = {}
        frag.behavior()  # joins B, and C^F with it, for every report below
        for v in frag.external_behavior().ambient.labels:
            st = trim_proper(frag, v)
            tp[str(v)] = {"trim": st.trim, "proper": st.proper,
                          "effective_order": st.effective_order}
        entry["trim_proper"] = tp
        rep = obs_ctrl(frag)
        entry["observability"] = {
            "externally_observable": rep.ext_observable,
            "internally_observable": rep.int_observable,
            "totally_observable": rep.tot_observable,
            "externally_controllable": rep.ext_controllable,
            "internally_controllable": rep.int_controllable_flag,
        }
        entry["controllability_test"] = {
            "order_universe": rep.order_universe,
            "order_extended": rep.order_extended,
            "order_states": rep.order_int_states,
            "order_controllable": rep.int_controllable.order,
            "controllable": rep.int_controllable_flag,
        }
        if not frag.is_fragment:
            st_entries = {}
            cut = cut_edges(frag)
            for j in sorted(frag.internal_states(), key=sort_key):
                if len(frag.slots[j]) != 2 or j in cut:
                    continue
                srep = state_trim_status(frag, j)
                st_entries[j] = {
                    "state_trim": srep.state_trim,
                    "dual_state_trim": srep.dual_state_trim,
                    "transitions_order": srep.unobservable_transitions.order,
                    "fragment_externally_observable":
                        srep.fragment_ext_observable,
                    "fragment_externally_controllable":
                        srep.fragment_ext_controllable,
                }
            entry["state_trim"] = st_entries
        out.append(entry)
    if args.json:
        print(json.dumps(out, indent=1))
    else:
        for entry in out:
            print(f"fragment {entry['fragment']}: "
                  f"constraints {', '.join(entry['constraints'])}")
            for v, st in entry["trim_proper"].items():
                print(f"  {v}: trim={st['trim']} proper={st['proper']} "
                      f"effective_order={st['effective_order']}")
            oc = entry["observability"]
            print("  observability: " + ", ".join(
                f"{k}={v}" for k, v in oc.items()))
            ct = entry["controllability_test"]
            print(f"  controllability test: |U|={ct['order_universe']} "
                  f"|B|={ct['order_extended']} |S|={ct['order_states']} "
                  f"|Sc|={ct['order_controllable']} "
                  f"controllable={ct['controllable']}")
            for j, st in entry.get("state_trim", {}).items():
                print(f"  edge {j}: state_trim={st['state_trim']} "
                      f"dual_state_trim={st['dual_state_trim']} "
                      f"|transitions|={st['transitions_order']}")
    return E_OK


def cmd_minimize(args) -> int:
    r = load_realization(args.file)
    try:
        m = minimize_cycle_free(r)
    except (NotCycleFree, Disconnected) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: cyclic inputs decompose with `two-core` instead",
              file=sys.stderr)
        return E_PRECONDITION
    orders = state_orders(m)
    print("state orders " + str(list(orders.values())))
    if args.output:
        dump_realization(m, args.output)
        print(f"wrote minimized realization to {args.output}")
    return E_OK


def cmd_two_core(args) -> int:
    r = load_realization(args.file)
    dec = second_canonical_decomposition(r)
    if dec.core is None:
        print("cycle-free: no 2-core")
    else:
        print(f"2-core constraints: {', '.join(sorted(dec.core.constraints))}")
        print(f"cyclomatic number {cyclomatic_number(dec.core)}")
    for ls in dec.leaves:
        if ls.edge is None:
            print("leaf fragment: the whole realization")
            continue
        print(f"leaf at {ls.edge}: state order {ls.state_order}, "
              f"effective alphabet order {ls.effective_order}")
    if not dec.orders_match:
        print("state space theorem FAILED on a leaf", file=sys.stderr)
        return E_PROPERTY
    if args.output and dec.core is not None:
        dump_realization(dec.core, args.output)
        print(f"wrote 2-core to {args.output}")
    if args.emit_graph:
        with open(args.emit_graph, "w") as fh:
            fh.write(graph_to_dot(r))
        print(f"wrote graph to {args.emit_graph}")
    return E_OK


def cmd_decode(args) -> int:
    if args.iters < 1:
        print(f"error: --iters must be at least 1, got {args.iters}",
              file=sys.stderr)
        return E_IO
    if not 0 <= args.damping < 1:
        print(f"error: --damping must lie in [0, 1), got {args.damping}",
              file=sys.stderr)
        return E_IO
    if not args.tol >= 0:
        print(f"error: --tol must be a non-negative number, got {args.tol}",
              file=sys.stderr)
        return E_IO
    r = load_realization(args.file)
    exact = args.exact
    priors = load_priors(args.priors, r, exact) if args.priors else None
    # printed after the marginals, so that a failed write reports only its error
    notes = []
    if exact:
        res = decode_exact(r, priors, exact=True)
        payload = marginals_to_json(res.symbol_marginals, exact=True)
    else:
        res, report = decode_iterative(
            r, priors, max_iters=args.iters, schedule=args.schedule,
            damping=args.damping, tol=args.tol)
        notes.append(f"# iterations {report.iterations} converged {report.converged}")
        payload = marginals_to_json(res.symbol_marginals, exact=False)
    if res.contradiction:
        notes.append("# warning: contradictory evidence, all-zero marginals")
    text = json.dumps(payload, indent=1)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for line in notes:
        print(line, file=sys.stderr)
    return E_OK


@record(frozen=True)
class Option:
    """A subcommand option: a flag (no converter, default False) or one value."""
    strings: tuple
    convert: object = str
    default: object = None
    choices: tuple = ()
    required: bool = False
    help: str = ""

    @property
    def dest(self) -> str:
        return self.strings[-1][2:].replace("-", "_")

    def read(self, value: str):
        """The option's value from its string; a ValueError says why it has none."""
        try:
            result = self.convert(value)
        except (TypeError, ValueError):
            raise ValueError(f"invalid {self.convert.__name__} value: {value!r}") from None
        if self.choices and result not in self.choices:
            raise ValueError(f"invalid choice: {result!r} (choose from "
                             f"{', '.join(map(repr, self.choices))})")
        return result


_OUTPUT = Option(("-o", "--output"))

# The command line: subcommand -> (function, help, options).  Each subcommand
# also reads one positional `file`.  `parse_args` reads argv against it.
COMMANDS = {
    "validate": (cmd_validate, "check normal degree and alphabet rules", ()),
    "behavior": (cmd_behavior, "print the behavior generator matrix", (
        Option(("--external-only",), None, False,
               help="print the realized code instead of the behavior"),)),
    "dual": (cmd_dual, "write the dual realization",
             (Option(("-o", "--output"), required=True),)),
    "check-duality": (cmd_check_duality, "verify C° = C⊥ both ways", ()),
    "analyze": (cmd_analyze, "trim/proper and obs/ctrl reports", (
        Option(("--fragment",), help="comma-separated edges to cut first (their "
                                     "isos are folded into the head constraints)"),
        Option(("--json",), None, False))),
    "minimize": (cmd_minimize, "minimize a cycle-free realization", (_OUTPUT,)),
    "two-core": (cmd_two_core, "second canonical decomposition", (_OUTPUT, Option(
        ("--emit-graph",), help="write a DOT description of the graph"))),
    "decode": (cmd_decode, "sum-product decoding", (
        Option(("--priors",), help="JSON file of per-symbol weights"),
        Option(("--exact",), None, False,
               help="exact rational two-pass decoding (cycle-free only)"),
        Option(("--iters",), int, 100),
        Option(("--schedule",), default="flooding", choices=("flooding", "serial")),
        Option(("--damping",), float, 0.0),
        Option(("--tol",), float, 1e-8),
        _OUTPUT)),
}


def _read_plain(argv: list[str]) -> dict | None:
    """The values of a plain line: `COMMAND FILE` and whole option strings,
    each valued option followed by a value not starting with `-`.  None for
    any other line, and for a plain one with a bad value or a required
    option left out, which argparse then reads and refuses."""
    if not argv or argv[0] not in COMMANDS:
        return None
    options = COMMANDS[argv[0]][2]
    table = {s: option for option in options for s in option.strings}
    values = {"command": argv[0]} | {option.dest: option.default for option in options}
    args = iter(argv[1:])
    for arg in args:
        option = table.get(arg)
        if option is None:
            if arg.startswith("-") or "file" in values:
                return None
            values["file"] = arg
        elif option.convert is None:
            values[option.dest] = True
        else:
            value = next(args, "-")
            if value.startswith("-"):
                return None
            try:
                values[option.dest] = option.read(value)
            except ValueError:
                return None
    if "file" not in values or any(option.required and values[option.dest] is None
                                   for option in options):
        return None
    return values


def _read_with_argparse(argv: list[str]) -> dict:
    """argv as an argparse parser built from `COMMANDS` reads it: a usage
    error exits 4 after one `error:` line, `-h` exits 0 after the help."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.exit(E_IO, f"error: {message}\n")

    parser = Parser(prog="normgraph",
                    description="normal graph realizations of linear and group codes")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, options) in COMMANDS.items():
        sub = commands.add_parser(name, help=text)
        sub.add_argument("file")
        for option in options:
            if option.convert is None:
                sub.add_argument(*option.strings, action="store_true",
                                 help=option.help)
            else:
                sub.add_argument(*option.strings, type=option.convert,
                                 default=option.default, required=option.required,
                                 choices=option.choices or None, help=option.help)
    values = vars(parser.parse_args(argv))
    # argparse stores an attached `--` (`-o--`, `--iters=--`) as [], on which
    # the commands crash; it is read as the value `--`
    if values["file"] == []:
        values["file"] = "--"
    for option in COMMANDS[values["command"]][2]:
        if values[option.dest] == []:
            try:
                values[option.dest] = option.read("--")
            except ValueError as exc:
                parser.error(f"argument {'/'.join(option.strings)}: {exc}")
    return values


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The subcommand, its function (`func`) and its option values.  argparse
    reads every line but the plain ones, and so owns the corner cases, the
    usage errors and `-h`; the plain reader keeps its import off the rest."""
    values = _read_plain(list(argv)) or _read_with_argparse(list(argv))
    return SimpleNamespace(**values, func=COMMANDS[values["command"]][0])


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, ParseError) as exc:   # a bad input file, an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return E_IO
    except NormgraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return E_PRECONDITION
    except MemoryError:   # a backstop: no size is checked before work starts
        print("error: out of memory", file=sys.stderr)
        return E_PRECONDITION


if __name__ == "__main__":
    raise SystemExit(main())
