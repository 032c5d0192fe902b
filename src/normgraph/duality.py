"""Dual realizations and computational checks of realization duality.

The dual realization keeps the graph topology, replaces every constraint
code by its orthogonal complement, and replaces each edge's validity map by
the negative adjoint.  Sign inverters are folded into the edge maps, so
dualizing twice returns the original realization bit-exactly.

`verify_duality` computes C⊥ by three routes, on realizations and fragments
alike: the orthogonal of the (external) code C, the dual realization's
external behavior C°, and the cross-section of the check space U⊥ + V⊥ on
the external block.  C and C° are joined without the universe: the peeled
leaves one at a time, then the 2-core in one step; the check space is
written down in closed form (`Realization.check_rows`) and cut in one
Howell form.
"""

from __future__ import annotations

from itertools import chain, islice

from ._records import record
from .alphabets import ProductSpace
from .homs import Homomorphism, negation_map
from .realization import Realization, Constraint, StateVar, _is_identity
from .subgroups import CodeSubgroup, kernel_span


def _dual_edge_map(sv: StateVar) -> Homomorphism | None:
    """Map for the dual edge: head' = -adjoint(iso)^(-1)(tail'), which is
    plain negation on an edge without an iso."""
    psi = (negation_map(sv.alphabet) if sv.iso is None
           else sv.iso.adjoint().inverse().negated())
    return None if _is_identity(psi) else psi


def dualize(r: Realization) -> Realization:
    """The dual realization (or dual fragment): same topology, orthogonal codes."""
    r.require_valid()
    states = {
        j: StateVar(sv.alphabet, _dual_edge_map(sv)) for j, sv in r.states.items()
    }
    constraints = {
        cl: Constraint(con.vars, con.code.orthogonal())
        for cl, con in r.constraints.items()
    }
    return Realization(dict(r.symbols), states, constraints, r.boundary)


@record
class DualityReport:
    code: CodeSubgroup
    dual_code: CodeSubgroup
    orthogonal_code: CodeSubgroup
    check_space_route: CodeSubgroup

    @property
    def passed(self) -> bool:
        return (self.dual_code == self.orthogonal_code
                and self.check_space_route == self.orthogonal_code)

    def summary(self) -> str:
        status = "verified" if self.passed else "FAILED"
        return (f"C° = C⊥ {status}, |C|={self.code.order}, "
                f"|C⊥|={self.orthogonal_code.order}")


def verify_duality(r: Realization) -> DualityReport:
    """Check C° = C⊥ by both routes: dual behavior and check-space cross-section.

    The cross-section is one `kernel_span`: the external parts of the
    closed-form rows of U⊥ and V⊥, where their other parts sum to zero.
    Its edge rows come from the primal isos, not from `dualize`'s edge
    maps, so a wrong dual edge map shows as a disagreement.  Works for
    fragments as well, where the external behavior plays the role of the
    code.
    """
    code = r.external_behavior()
    space, ext = r.universe_space(), code.ambient
    rows, w = list(chain(*r.check_rows())), ext.width
    route = kernel_span(ext, [islice(row, w) for row in rows],
                        ProductSpace(space.factors[len(ext.factors):]),
                        [islice(row, w, None) for row in rows])
    return DualityReport(code, dualize(r).external_behavior(), code.orthogonal(), route)
