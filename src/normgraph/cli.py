"""Command-line interface.

Exit codes: 0 ok, 1 validation failure, 2 property-check failure,
3 precondition error, 4 I/O or parse error (a usage error included).
"""

from __future__ import annotations

import argparse
import json
import sys

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
    cyclomatic_number,
    is_cut_edge,
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
    bundle = r.behavior_bundle()
    sub = bundle.code if args.external_only else bundle.behavior
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
        ext = frag.external_behavior()
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
            for j in sorted(frag.internal_states(), key=sort_key):
                if len(frag.slots[j]) != 2 or is_cut_edge(frag, j):
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


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one line, as a parse error (exit 4)."""

    def error(self, message):
        self.exit(E_IO, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="normgraph",
        description="normal graph realizations of linear and group codes")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("validate", help="check normal degree and alphabet rules")
    q.add_argument("file")
    q.set_defaults(func=cmd_validate)

    q = sub.add_parser("behavior", help="print the behavior generator matrix")
    q.add_argument("file")
    q.add_argument("--external-only", action="store_true",
                   help="print the realized code instead of the behavior")
    q.set_defaults(func=cmd_behavior)

    q = sub.add_parser("dual", help="write the dual realization")
    q.add_argument("file")
    q.add_argument("-o", "--output", required=True)
    q.set_defaults(func=cmd_dual)

    q = sub.add_parser("check-duality", help="verify C° = C⊥ both ways")
    q.add_argument("file")
    q.set_defaults(func=cmd_check_duality)

    q = sub.add_parser("analyze", help="trim/proper and obs/ctrl reports")
    q.add_argument("file")
    q.add_argument("--fragment",
                   help="comma-separated edges to cut first (their isos are "
                        "folded into the head constraints)")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_analyze)

    q = sub.add_parser("minimize", help="minimize a cycle-free realization")
    q.add_argument("file")
    q.add_argument("-o", "--output")
    q.set_defaults(func=cmd_minimize)

    q = sub.add_parser("two-core", help="second canonical decomposition")
    q.add_argument("file")
    q.add_argument("-o", "--output")
    q.add_argument("--emit-graph", help="write a DOT description of the graph")
    q.set_defaults(func=cmd_two_core)

    q = sub.add_parser("decode", help="sum-product decoding")
    q.add_argument("file")
    q.add_argument("--priors", help="JSON file of per-symbol weights")
    q.add_argument("--exact", action="store_true",
                   help="exact rational two-pass decoding (cycle-free only)")
    q.add_argument("--iters", type=int, default=100)
    q.add_argument("--schedule", choices=("flooding", "serial"),
                   default="flooding")
    q.add_argument("--damping", type=float, default=0.0)
    q.add_argument("--tol", type=float, default=1e-8)
    q.add_argument("-o", "--output")
    q.set_defaults(func=cmd_decode)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
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
