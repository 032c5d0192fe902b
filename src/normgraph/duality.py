"""Dual realizations and computational checks of realization duality.

The dual realization keeps the graph topology, replaces every constraint
code by its orthogonal complement, and replaces each edge's validity map by
the negative adjoint.  Sign inverters are folded into the edge maps, so
dualizing twice returns the original realization bit-exactly.

`verify_duality` computes C⊥ by three routes, on realizations and fragments
alike: the orthogonal of the (external) code C, the dual realization's
external behavior C°, and the cross-section of the check space U⊥ + V⊥ on
the external block.  All three are joined without the universe, the peeled
leaves one at a time and then the 2-core in one step (`Realization._join`):
the check space as the constraints' orthogonals C_c⊥ cut where each edge's
check value tau_j = s_j + iso*(h_j) vanishes.
"""

from __future__ import annotations

from ._records import record
from .homs import Homomorphism, negation_map
from .realization import Realization, Constraint, StateVar, _is_identity, edge_values
from .subgroups import CodeSubgroup


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


def check_space(r: Realization, tails: bool = False) -> CodeSubgroup:
    """The check space U⊥ + V⊥ cut to ("a", k), ("x", j), and with `tails`
    each internal edge's tail ("s", j): as V⊥ = {(-iso*(e), e)} on (s_j, h_j),
    the join of the C_c⊥ where tau_j = s_j + iso*(h_j) vanishes.  tau reads
    the primal isos, not `dualize`'s edge maps, so a wrong dual edge map shows."""
    def checks(points, space, edges):
        ends = []
        for j in edges:
            sv = r.states[j]
            psi = negation_map(sv.alphabet) if sv.iso is None else sv.iso.adjoint().negated()
            ends.append((("s", j), ("h", j), None if _is_identity(psi) else psi))
        return edge_values(points, space, ends)
    return r._join({cl: con.code.orthogonal() for cl, con in r.constraints.items()},
                   checks, tails)


def verify_duality(r: Realization) -> DualityReport:
    """Check C° = C⊥ by both routes: dual behavior and check-space
    cross-section (`check_space`).  Works for fragments as well, where the
    external behavior plays the role of the code."""
    code, route = r.external_behavior(), check_space(r)
    route = route.renamed({lab: lab[1] for lab in route.ambient.labels})
    return DualityReport(code, dualize(r).external_behavior(), code.orthogonal(), route)
