"""The command line's argparse parser, kept as the reference that
`normgraph.cli.parse_args` is tested against (`test_cli_parser.py`)."""

from __future__ import annotations

import argparse

from normgraph.cli import (
    E_IO,
    cmd_analyze,
    cmd_behavior,
    cmd_check_duality,
    cmd_decode,
    cmd_dual,
    cmd_minimize,
    cmd_two_core,
    cmd_validate,
)


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
