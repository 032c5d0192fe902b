"""Dual realizations and computational checks of realization duality.

The dual realization keeps the graph topology, replaces every constraint
code by its orthogonal complement, and replaces each edge's validity map by
the negative adjoint.  Sign inverters are folded into the edge maps, so
dualizing twice returns the original realization bit-exactly.

`verify_duality` computes C⊥ by three routes: the orthogonal of the code C,
the dual realization's external behavior C°, and the cross-section of the
check space U⊥ + V⊥ on the external block.  C and C° are joined constraint
by constraint on cycle-free input and read from the universe bundle
otherwise; the check space is written down in closed form
(`Realization.check_rows`) and cut in one Howell form.
"""

from __future__ import annotations

from itertools import chain
from operator import mul

from . import zmod
from ._records import record
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

    The cross-section is one cut Howell form of the closed-form rows of U⊥
    and V⊥ with the external columns last.  Its edge rows come from the
    primal isos, not from `dualize`'s edge maps, so a wrong dual edge map
    shows as a disagreement.  Works for fragments as well, where the
    external behavior plays the role of the code.
    """
    code = r.external_behavior()
    space, ext = r.universe_space(), code.ambient
    f, M = ext.width, space.lcm_modulus
    scales = space.scales[f:] + space.scales[:f]
    rows = [list(map(mul, row[f:] + row[:f], scales)) for row in chain(*r.check_rows())]
    route = CodeSubgroup._from_howell(
        ext, zmod.howell_form(rows, M, space.width, space.width - f), M // ext.lcm_modulus)
    return DualityReport(code, dualize(r).external_behavior(), code.orthogonal(), route)


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
