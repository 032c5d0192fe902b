"""Dual realizations and computational checks of realization duality.

The dual realization keeps the graph topology, replaces every constraint
code by its orthogonal complement, and replaces each edge's validity map by
the negative adjoint.  Sign inverters are folded into the edge maps, so
dualizing twice returns the original realization bit-exactly.
"""

from __future__ import annotations

from ._records import record
from .alphabets import sort_key
from .homs import Homomorphism, negation_map
from .realization import Realization, Constraint, StateVar, _is_identity
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


def verify_duality(r: Realization) -> DualityReport:
    """Check C° = C⊥ by both routes: dual behavior and check-space cross-section.

    Works for fragments as well, where the external behavior plays the role
    of the code.
    """
    bundle = r.behavior_bundle()
    code = bundle.external
    dual_code = dualize(r).behavior_bundle().external
    orthogonal_code = code.orthogonal()
    # check space = U^perp + V^perp; its cross-section on the external block
    # realizes the dual code
    syms = sorted(r.symbols, key=sort_key)
    bound = list(r.boundary)
    ext_labels = [("a", k) for k in syms] + [("x", j) for j in bound]
    check_space = bundle.universe.orthogonal().sum(r.validity().orthogonal())
    route = check_space.cross_section(ext_labels).renamed(
        {("a", k): k for k in syms} | {("x", j): j for j in bound})
    return DualityReport(code, dual_code, orthogonal_code, route)


@record
class FragmentDualityReport:
    external: CodeSubgroup
    dual_external: CodeSubgroup

    @property
    def passed(self) -> bool:
        return self.dual_external == self.external.orthogonal()


def dual_fragment_check(f: Realization) -> FragmentDualityReport:
    """F° realizes (C^F)^perp."""
    return FragmentDualityReport(
        f.external_behavior(), dualize(f).external_behavior())
