"""Minimization of cycle-free realizations and internal state recovery.

A cycle-free realization is minimal iff it is trim and proper at every
state, and then each state space S_j is fixed by the two sides of its edge:
the projection P and the cross-section X (the states reachable with every
symbol and boundary value zero) of each side's behavior at j.  Both are
computed for every directed edge in one inward and one outward pass of
subgroup messages, and each edge then takes one local quotient.
"""

from __future__ import annotations

from ._records import record
from .alphabets import sort_key
from .errors import (
    Disconnected,
    NotCycleFree,
    NotInExternalBehavior,
    NotInternallyProper,
)
from .graphcore import constraint_trim_proper, cyclomatic_number
from .realization import Configuration, Constraint, Realization, StateVar
from .subgroups import CodeSubgroup, cylinder, ftsp_decompose, restrict_merge


def minimize_cycle_free(r: Realization) -> Realization:
    """The minimal realization of the same code on the same tree.

    The message c -> j along edge j is the pair (P, X): P is the projection
    on S_j of C_c cut down by the P messages into c's other edges, and X
    the same with c's symbol and boundary slots forced to zero and the X
    messages in place of the P's.  With T_j = P-> cap P<- and
    N_j = (X-> cap T_j) + (X<- cap T_j), S_j becomes T_j / N_j and both end
    constraints are restricted to T_j and merged modulo N_j.  Every edge
    isomorphism is folded first, so a reduced result carries none; an
    already minimal input is returned as is.
    """
    r.require_valid()
    if not r.is_connected:
        raise Disconnected("minimization requires a connected realization")
    if cyclomatic_number(r) != 0:
        raise NotCycleFree(
            "realization has cycles; use two_core / iterative decoding instead")
    edges = r.internal_states()
    codes = {cl: con.code for cl, con in r.fold_edge_iso(*edges).constraints.items()}
    # the far end of each edge seen from each of its ends
    far = {}
    for j in edges:
        (c1, _), (c2, _) = r.slots[j]
        far[c1, j], far[c2, j] = c2, c1
    msgs: dict[tuple[str, str], tuple[CodeSubgroup, CodeSubgroup]] = {}

    def send(c: str, j: str) -> None:
        code = codes[c]
        amb = code.ambient
        p_parts, x_parts = {}, {}
        for lab, v in zip(amb.labels, r.constraints[c].vars):
            if v == j:
                out = lab
            elif (c, v) in far:
                p_in, x_in = msgs[far[c, v], v]
                if not p_in.is_full:
                    p_parts[lab] = p_in
                x_parts[lab] = x_in
            else:
                x_parts[lab] = CodeSubgroup(amb.subspace([lab]), [])
        p = code.intersect(cylinder(amb, p_parts)) if p_parts else code
        x = code.intersect(cylinder(amb, x_parts))
        msgs[c, j] = (p.project([out]).renamed({out: j}),
                      x.project([out]).renamed({out: j}))

    # inward along the peel, each leaf along the edge it hung by, then back
    inward = [(c, j) for c, j in r.peel() if j is not None]
    for c, j in inward + [(far[c, j], j) for c, j in reversed(inward)]:
        send(c, j)
    reduced = {}
    for j in edges:
        (p1, x1), (p2, x2) = (msgs[c, j] for c, _ in r.slots[j])
        trimmed = p1.intersect(p2)
        nondyn = x1.intersect(trimmed).sum(x2.intersect(trimmed))
        if not (trimmed.is_full and nondyn.is_trivial):
            reduced[j] = trimmed.quotient_by(nondyn)
    if not reduced:
        return r
    states = dict(r.states)
    merges: dict[str, dict] = {}
    for j in edges:
        states[j] = StateVar(reduced[j].alphabet if j in reduced
                             else r.states[j].alphabet)
    for j, quot in reduced.items():
        for c, slot in r.slots[j]:
            merges.setdefault(c, {})[slot] = quot
    constraints = {cl: Constraint(con.vars, restrict_merge(codes[cl], merges[cl])
                                  if cl in merges else codes[cl])
                   for cl, con in r.constraints.items()}
    return r.replaced(states=states, constraints=constraints)


def state_orders(r: Realization) -> dict[str, int]:
    return {j: r.states[j].alphabet.order
            for j in sorted(r.internal_states(), key=sort_key)}


@record
class StateSpaceTheoremReport:
    edge: str
    state_order: int
    side_orders: tuple[int, int]       # |C_restricted to each side| quotients
    iso_pairs: CodeSubgroup | None     # graph of the induced side-to-side iso

    @property
    def passed(self) -> bool:
        ok = all(o == self.state_order for o in self.side_orders)
        if self.iso_pairs is not None:
            ok = ok and self.iso_pairs.order == self.state_order
        return ok


def verify_state_space_theorem(r_min: Realization, edge: str) -> StateSpaceTheoremReport:
    """Check |S_j| against the code-level quotients on both sides of the cut.

    Both side quotients come from the realized code's interface-node
    decomposition on each side's symbol block, independent of the state
    machinery; the subdirect reconstruction of the code through the
    quotient isomorphism is checked as well.
    """
    if cyclomatic_number(r_min) != 0 or not r_min.is_connected:
        raise NotCycleFree("state space theorem applies to cycle-free realizations")
    sides = r_min.split([edge]).fragments
    if len(sides) != 2:
        raise NotCycleFree(f"edge {edge!r} does not split the realization")
    ftsp = ftsp_decompose(r_min.code(), *(sorted(f.symbols, key=sort_key) for f in sides))
    pairs = ftsp.iso_pairs
    # the pair subgroup is the graph of an isomorphism iff trim+proper both sides
    return StateSpaceTheoremReport(
        edge=edge,
        state_order=r_min.states[edge].alphabet.order,
        side_orders=(ftsp.quot_a.order, ftsp.quot_b.order),
        iso_pairs=pairs if constraint_trim_proper(pairs) == (True, True) else None,
    )


def recover_internal_states(f: Realization, assignment: Configuration) -> Configuration:
    """Unique internal state values of an internally proper cycle-free fragment.

    assignment maps every symbol and boundary variable to its value; the
    returned configuration adds every internal state (tail coordinates),
    read as one `lift_prefix` of the behavior B: its column prefix is C^F,
    and properness leaves one set of tails over each external value.
    """
    f.require_valid()
    if cyclomatic_number(f) != 0 or not f.is_connected:
        raise NotCycleFree("state recovery requires a connected cycle-free fragment")
    internal = set(f.internal_states())
    for cl, con in f.constraints.items():
        # internally proper: proper at every state slot, whichever end peels
        for lab, v in zip(con.code.ambient.labels, con.vars):
            if v in internal and not con.code.cross_section([lab]).is_trivial:
                raise NotInternallyProper(
                    f"constraint {cl!r} is not proper at its state slot {lab!r}")
    b, ext = f.behavior(), f.external_behavior()  # C^F comes with B
    word = []
    for lab in ext.ambient.labels:
        if lab not in assignment:
            raise NotInExternalBehavior(f"missing value for {lab!r}")
        word.extend(assignment[lab])
    if not ext.contains(word):
        raise NotInExternalBehavior("assignment is not a valid external configuration")
    p = len(ext.ambient.labels)
    sol = b.lift_prefix(b.ambient.labels[:p], word)
    known: Configuration = {v: tuple(assignment[v]) for v in assignment}
    known.update((lab[1], sol[slice(*b.ambient.span(lab))]) for lab in b.ambient.labels[p:])
    return known
