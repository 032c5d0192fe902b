"""Command-line interface.

Exit codes: 0 ok, 1 validation failure, 2 property-check failure,
3 precondition error, 4 I/O or parse error (a usage error included).
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

from ._records import record
from .alphabets import sort_key
from .analysis import obs_ctrl, state_trim_status, trim_proper
from .decode import decode_exact, decode_iterative
from .duality import dualize, verify_duality
from .errors import (
    Disconnected,
    NormgraphError,
    NotCycleFree,
    NotTrimProper,
)
from .graphcore import (
    cut_edges,
    cyclomatic_number,
    second_canonical_decomposition,
)
from .minimize import minimize_cycle_free, state_orders
from .realization import Realization
from .serialize import (
    ParseError,
    dump_realization,
    graph_to_dot,
    load_priors,
    load_realization,
    marginals_to_json,
)

E_OK, E_VALIDATION, E_PROPERTY, E_PRECONDITION, E_IO = 0, 1, 2, 3, 4


def _load(path: str) -> Realization:
    try:
        return load_realization(path)
    except (OSError, ParseError, NormgraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(E_IO)


def cmd_validate(args) -> int:
    r = _load(args.file)
    report = r.validate()
    for line in report.lines():
        print(line)
    if report.is_valid:
        print("ok: normal degree and alphabet checks pass")
        return E_OK
    return E_VALIDATION


def cmd_behavior(args) -> int:
    r = _load(args.file)
    sub = r.code() if args.external_only else r.behavior_bundle().behavior
    labels = " ".join(str(lab) for lab in sub.ambient.labels)
    print(f"# columns: {labels}")
    print(f"# order {sub.order}")
    for row in sub.rows:
        print(" ".join(str(v) for v in row))
    return E_OK


def cmd_dual(args) -> int:
    r = _load(args.file)
    dump_realization(dualize(r), args.output)
    print(f"wrote dual realization to {args.output}")
    return E_OK


def cmd_check_duality(args) -> int:
    r = _load(args.file)
    rep = verify_duality(r)
    print(rep.summary())
    return E_OK if rep.passed else E_PROPERTY


def cmd_analyze(args) -> int:
    r = _load(args.file)
    targets = [r]
    if args.fragment:
        edges = [e.strip() for e in args.fragment.split(",") if e.strip()]
        targets = r.split(edges).fragments
    out = []
    for idx, frag in enumerate(targets):
        entry: dict = {"fragment": idx, "constraints": sorted(frag.constraints)}
        tp = {}
        ext = frag.behavior_bundle().external  # every report below reads the bundle
        for v in ext.ambient.labels:
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
    r = _load(args.file)
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
    r = _load(args.file)
    try:
        dec = second_canonical_decomposition(r)
    except NotTrimProper as exc:
        print(f"error: {exc}", file=sys.stderr)
        return E_PRECONDITION
    except (Disconnected,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return E_PRECONDITION
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
    r = _load(args.file)
    exact = args.exact
    try:
        priors = load_priors(args.priors, r, exact) if args.priors else None
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return E_IO
    # printed after the marginals, so that a failed write reports only its error
    notes = []
    if exact:
        try:
            res = decode_exact(r, priors, exact=True)
        except NotCycleFree as exc:
            print(f"error: {exc}", file=sys.stderr)
            return E_PRECONDITION
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

    def read(self, value: str | None):
        """The option's value from its string (None for a flag)."""
        if self.convert is None:
            return True
        try:
            result = self.convert(value)
        except (TypeError, ValueError):
            _usage_error(f"invalid {self.convert.__name__} value: {value!r}", self)
        if self.choices and result not in self.choices:
            _usage_error(f"invalid choice: {result!r} (choose from "
                         f"{', '.join(map(repr, self.choices))})", self)
        return result


_HELP = Option(("-h", "--help"), None, help="show this help and exit")
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
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")   # a value, not an option


def _usage_error(message: str, option: Option | None = None):
    if option is not None:
        message = f"argument {'/'.join(option.strings)}: {message}"
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(E_IO)


def _classify(arg: str, table: dict):
    """None if `arg` is a value; else (its option, None if unknown; the
    option string; the value attached to it, or None)."""
    if not arg.startswith("-"):
        return None
    if arg in table:
        return table[arg], arg, None
    if len(arg) == 1:
        return None
    name, eq, value = arg.partition("=")
    if eq and name in table:
        return table[name], name, value
    if arg[1] == "-":                     # a unique prefix of a long option
        found = [(table[s], s, value if eq else None)
                 for s in table if s.startswith(name)]
        if len(found) > 1:
            _usage_error(f"ambiguous option: {arg} could match "
                         f"{', '.join(s for _, s, _ in found)}")
        if found:
            return found[0]
    elif arg[:2] in table:                # a short option with its value attached
        return table[arg[:2]], arg[:2], arg[2:]
    if _NEGATIVE.match(arg) or " " in arg:
        return None
    return None, arg, None


def _scan(args: list, command: str | None) -> tuple[dict, list]:
    """Reads `args` as argparse read them: the options and `file` of a
    subcommand, or (command None) the top level, whose `file` is the
    subcommand and its arguments.  Returns the values read, defaults
    included, and the strings that fit nowhere; a malformed option or `-h`
    exits."""
    options = COMMANDS[command][2] if command else ()
    table = {s: option for option in (_HELP, *options) for s in option.strings}
    values = {option.dest: option.default for option in options}
    sep = args.index("--") if "--" in args else len(args)   # values only after it
    kinds = [_classify(arg, table) for arg in args[:sep]] + [None] * (len(args) - sep)
    extras, i = [], 0
    while i < len(args):
        if not kinds[i]:
            if "file" in values or i == sep == len(args) - 1:   # or a bare last `--`
                extras.append(args[i])
                i += 1
            elif command:                 # the file, and a `--` beside it
                values["file"] = args[i + (i == sep)]
                i += 1 + (sep in (i, i + 1))
            else:
                values["file"], i = args[i:], len(args)
            continue
        option, string, value = kinds[i]
        i, taken = i + 1, []
        if option is None:
            extras.append(args[i - 1])
            continue
        while value is not None and option.convert is None:   # `-hh`: two flags
            if string[1] == "-" or not value or "-" + value[0] not in table:
                _usage_error(f"ignored explicit argument {value!r}", option)
            taken.append((option, None))
            string = "-" + value[0]
            option, value = table[string], value[1:] or None
        if value is None and option.convert is not None:
            if i in (sep, len(args)) or kinds[i]:
                _usage_error("expected one argument", option)
            value, i = args[i], i + 1
        for option, value in taken + [(option, value)]:
            if option is _HELP:
                print(_help(command))
                raise SystemExit(E_OK)
            values[option.dest] = option.read(value)
    return values, extras


def _help(command: str | None) -> str:
    if command is None:
        return "\n".join([f"usage: normgraph [-h] {{{','.join(COMMANDS)}}} ...",
                          "normal graph realizations of linear and group codes", *(
            f"  {name:<14} {text}" for name, (_, text, _) in COMMANDS.items())])
    usage, lines = [], [COMMANDS[command][1]]
    for option in (_HELP, *COMMANDS[command][2]):
        metavar = "" if option.convert is None else " " + (
            "{" + ",".join(option.choices) + "}" if option.choices
            else option.dest.upper())
        usage.append(f"{option.strings[0]}{metavar}" if option.required
                     else f"[{option.strings[0]}{metavar}]")
        note = option.help if not metavar or option.default is None \
            else f"{option.help} (default: {option.default})".lstrip()
        lines.append(f"  {', '.join(option.strings) + metavar:<30} {note}".rstrip())
    return "\n".join([f"usage: normgraph {command} {' '.join(usage)} file", *lines])


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The subcommand, its function (`func`) and its option values, read from
    argv as argparse read them; a usage error exits 4 after one `error:` line
    and `-h` exits 0 after the help."""
    top, extras = _scan(list(argv), None)
    if "file" not in top:
        _usage_error("the following arguments are required: command")
    command, *args = top["file"]
    if command not in COMMANDS:
        _usage_error(f"argument command: invalid choice: {command!r} "
                     f"(choose from {', '.join(map(repr, COMMANDS))})")
    values, unread = _scan(args, command)
    missing = ["file"] * ("file" not in values) + [
        "/".join(option.strings) for option in COMMANDS[command][2]
        if option.required and values[option.dest] is None]
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    if extras + unread:
        _usage_error(f"unrecognized arguments: {' '.join(extras + unread)}")
    return SimpleNamespace(**values, command=command, func=COMMANDS[command][0])


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except NormgraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return E_PRECONDITION
    except OSError as exc:
        # an output file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return E_IO


if __name__ == "__main__":
    raise SystemExit(main())
