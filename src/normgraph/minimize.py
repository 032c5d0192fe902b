"""Minimization of cycle-free realizations and internal state recovery.

A cycle-free realization is minimal iff it is trim and proper at every
state, and then each state space S_j is fixed by the two sides of its edge:
the projection P and the cross-section X (the states reachable with every
symbol and boundary value zero) of each side's behavior at j.  Both are
computed for every directed edge in one inward and one outward pass of
subgroup messages, and each edge then takes one local quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alphabets import ProductSpace, sort_key
from .analysis import _restrict_merge
from .errors import (
    Disconnected,
    NotCycleFree,
    NotInExternalBehavior,
    NotInternallyProper,
)
from .graphcore import cyclomatic_number
from .realization import Configuration, Constraint, Realization, StateVar, _map_slot
from .subgroups import CodeSubgroup, cylinder


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
    codes = {cl: con.code for cl, con in r.constraints.items()}
    for j in edges:
        iso = r.states[j].iso
        if iso is not None:
            head, slot = r.slots[j][1]
            codes[head] = _map_slot(codes[head], slot, iso.inverse())
    # the far end of each edge seen from each of its ends, and a pre-order
    # of the tree with the edge to each constraint's parent
    far = {}
    for j in edges:
        (c1, _), (c2, _) = r.slots[j]
        far[c1, j], far[c2, j] = c2, c1
    root = next(iter(r.constraints))
    order, up, stack = [], {root: None}, [root]
    while stack:
        c = stack.pop()
        order.append(c)
        for v in r.constraints[c].vars:
            d = far.get((c, v))
            if d is not None and d not in up:
                up[d] = v
                stack.append(d)
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

    for c in reversed(order[1:]):
        send(c, up[c])
    for c in order:
        for v in r.constraints[c].vars:
            if (c, v) in far and v != up[c]:
                send(c, v)
    reduced = {}
    for j in edges:
        (p1, x1), (p2, x2) = (msgs[c, j] for c, _ in r.slots[j])
        trimmed = p1.intersect(p2)
        nondyn = x1.intersect(trimmed).sum(x2.intersect(trimmed))
        if not (trimmed.is_full and nondyn.is_trivial):
            reduced[j] = (trimmed, trimmed.quotient_by(nondyn))
    if not reduced:
        return r
    states = dict(r.states)
    merges: dict[str, dict] = {}
    for j in edges:
        states[j] = StateVar(reduced[j][1].alphabet if j in reduced
                             else r.states[j].alphabet)
    for j, pair in reduced.items():
        for c, slot in r.slots[j]:
            merges.setdefault(c, {})[slot] = pair
    constraints = {cl: Constraint(con.vars, _restrict_merge(codes[cl], merges[cl])
                                  if cl in merges else codes[cl])
                   for cl, con in r.constraints.items()}
    return r.replaced(states=states, constraints=constraints)


def state_orders(r: Realization) -> dict[str, int]:
    return {j: r.states[j].alphabet.order
            for j in sorted(r.internal_states(), key=sort_key)}


@dataclass
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

    Both side quotients are computed directly from the realized code (its
    projection and cross-section on each side's symbol block), independent
    of the state machinery; the subdirect reconstruction of the code through
    the quotient isomorphism is checked as well.
    """
    if cyclomatic_number(r_min) != 0 or not r_min.is_connected:
        raise NotCycleFree("state space theorem applies to cycle-free realizations")
    sides = r_min.split([edge]).fragments
    if len(sides) != 2:
        raise NotCycleFree(f"edge {edge!r} does not split the realization")
    code = r_min.code()
    quots = []
    blocks = []
    for frag in sides:
        syms = sorted(frag.symbols, key=sort_key)
        blocks.append(syms)
        proj = code.project(syms)
        cross = code.cross_section(syms)
        quots.append(proj.quotient_by(cross))
    side_orders = tuple(q.order for q in quots)
    # pairs of quotient classes traced out by the code
    pair_amb = ProductSpace([(("q", 0), quots[0].alphabet),
                             (("q", 1), quots[1].alphabet)])
    rows = []
    for row in code.rows:
        parts = []
        for syms, q in zip(blocks, quots):
            cols = code.ambient.columns(syms)
            parts.append(q.project(tuple(row[c] for c in cols)))
        rows.append(parts[0] + parts[1])
    pairs = CodeSubgroup(pair_amb, rows)
    # the pair subgroup is the graph of an isomorphism iff trim+proper both sides
    graph_ok = True
    for lab, alpha in pair_amb.factors:
        if pairs.project([lab]).order != alpha.order:
            graph_ok = False
        if not pairs.cross_section([lab]).is_trivial:
            graph_ok = False
    return StateSpaceTheoremReport(
        edge=edge,
        state_order=r_min.states[edge].alphabet.order,
        side_orders=side_orders,
        iso_pairs=pairs if graph_ok else None,
    )


def recover_internal_states(f: Realization, assignment: Configuration) -> Configuration:
    """Unique internal state values of an internally proper cycle-free fragment.

    assignment maps every symbol and boundary variable to its value; the
    returned configuration adds every internal state (tail coordinates).
    Peels leaf constraints: properness determines each external state of a
    leaf from its other values.
    """
    f.require_valid()
    if cyclomatic_number(f) != 0 or not f.is_connected:
        raise NotCycleFree("state recovery requires a connected cycle-free fragment")
    internal = set(f.internal_states())
    for cl, con in f.constraints.items():
        # properness is needed exactly at the slots being solved for
        for i, v in enumerate(con.vars):
            if v not in internal:
                continue
            lab = con.code.ambient.labels[i]
            if not con.code.cross_section([lab]).is_trivial:
                raise NotInternallyProper(
                    f"constraint {cl!r} is not proper at its state slot {lab!r}")
    ext = f.external_behavior()
    word = []
    for lab in ext.ambient.labels:
        if lab not in assignment:
            raise NotInExternalBehavior(f"missing value for {lab!r}")
        word.extend(assignment[lab])
    if not ext.contains(word):
        raise NotInExternalBehavior("assignment is not a valid external configuration")

    folded = f
    for j in f.internal_states():
        folded = folded.fold_edge_iso(j)
    known: Configuration = {v: tuple(assignment[v]) for v in assignment}
    remaining = dict(folded.constraints)
    while remaining:
        progressed = False
        for cl in sorted(remaining, key=sort_key):
            con = remaining[cl]
            unknown = [v for v in dict.fromkeys(con.vars) if v not in known]
            if len(unknown) > 1:
                continue
            if not unknown:
                w = tuple(x for v in con.vars for x in known[v])
                assert con.code.contains(w), "peeled values violate a constraint"
                del remaining[cl]
                progressed = True
                break
            v = unknown[0]
            amb = con.code.ambient
            fixed_labels = [amb.labels[i] for i, vv in enumerate(con.vars) if vv != v]
            fixed_vals = [x for i, vv in enumerate(con.vars) if vv != v
                          for x in known[vv]]
            sol = con.code.lift_prefix(fixed_labels, fixed_vals)
            assert sol is not None, "peeling failed on a valid configuration"
            i = con.vars.index(v)
            a, b = amb.span(amb.labels[i])
            known[v] = tuple(sol[a:b])
            del remaining[cl]
            progressed = True
            break
        if not progressed:
            raise NotCycleFree("peeling stalled; fragment is not a tree")
    return known
