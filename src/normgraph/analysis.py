"""Systems-theoretic analysis of realizations and fragments.

Covers trimness/properness of external behaviors, local reduction of state
alphabets, the canonical decomposition into trim-and-proper cores plus
interface nodes, the observability/controllability suite, behavioral
controllability/observability of two-fragment splits, and state-trimness
classification at non-cut edges.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import zmod
from ._records import record
from .alphabets import ProductSpace, sort_key
from .errors import (
    EdgeIsCutSet,
    FragmentsOverlap,
    NotAStateEdge,
    UnknownVariable,
)
from .graphcore import cut_edges
from .realization import Constraint, Realization, StateVar, _map_slot, fresh_label
from .subgroups import CodeSubgroup, QuotientMap, product_subgroup, restrict_merge


# -- trimness and properness ---------------------------------------------------


@record
class TrimProperStatus:
    variable: str
    trim: bool
    proper: bool
    trimmed: CodeSubgroup       # projection of C^F on the variable
    nondynamical: CodeSubgroup  # cross-section of C^F at the variable

    @property
    def effective_order(self) -> int:
        return self.trimmed.order // self.nondynamical.order


def trim_proper(f: Realization, variable: str) -> TrimProperStatus:
    """Trim/proper of the external behavior at one symbol or boundary variable."""
    ext = f.external_behavior()
    if variable not in set(ext.ambient.labels):
        raise UnknownVariable(
            f"{variable!r} is not a symbol or boundary variable of the fragment")
    trimmed = ext.project([variable])
    nondyn = ext.cross_section([variable])
    alpha = f.alphabet_of(variable)
    return TrimProperStatus(
        variable,
        trim=trimmed.order == alpha.order,
        proper=nondyn.is_trivial,
        trimmed=trimmed,
        nondynamical=nondyn,
    )


# -- local reduction -------------------------------------------------------------


def far_side_fragment(r: Realization, constraint: str, edge: str
                      ) -> tuple[Realization, Realization, str]:
    """Fragment on the far side of `edge` from `constraint`, after folding isos.

    Returns (folded realization, fragment, fragment's boundary label for the
    edge).  The fragment is the connected piece of the realization minus the
    named constraint that contains the far end of the edge; all edges between
    it and the constraint become its boundary.
    """
    if edge not in r.states or edge in set(r.boundary):
        raise NotAStateEdge(f"{edge!r} is not an internal state edge")
    ends = r.slots[edge]
    end_constraints = [cl for cl, _ in ends]
    if constraint not in end_constraints:
        raise NotAStateEdge(f"edge {edge!r} is not incident on {constraint!r}")
    others = [cl for cl in end_constraints if cl != constraint]
    if not others:
        raise NotAStateEdge(f"edge {edge!r} is a self-loop at {constraint!r}")
    incident = [j for j in r.internal_states()
                if any(cl == constraint for cl, _ in r.slots[j])]
    sp = r.split(incident)
    frag, ends = next((f, e) for f, e in zip(sp.fragments, sp.ends)
                      if others[0] in f.constraints)
    return sp.folded, frag, next(b for b, j in ends.items() if j == edge)


def local_reduce(r: Realization, constraint: str, edge: str) -> Realization:
    """Reduce a state alphabet using the far-side fragment's external behavior.

    Replaces the edge alphabet by the far side's interface quotient at the
    edge and restricts/merges the two incident constraint codes accordingly.
    Returns the input unchanged when the far side is already trim and proper
    at the edge.  The realized code is preserved exactly.
    """
    folded, frag, blabel = far_side_fragment(r, constraint, edge)
    quot = frag.external_behavior().interface([blabel])
    if quot.order == r.states[edge].alphabet.order:
        return r
    new_states = dict(folded.states)
    new_states[edge] = StateVar(quot.alphabet, None)
    new_constraints = dict(folded.constraints)
    for cl, slot in folded.slots[edge]:
        con = new_constraints[cl]
        new_constraints[cl] = Constraint(con.vars, restrict_merge(con.code, {slot: quot}))
    return folded.replaced(states=new_states, constraints=new_constraints)


def reduce_to_fixpoint(r: Realization) -> Realization:
    """Apply local reductions in deterministic order until none applies."""
    current = r
    while True:
        changed = False
        for edge in sorted(current.internal_states(), key=sort_key):
            if len(current.slots[edge]) != 2:
                continue
            ends = {c for c, _ in current.slots[edge]}
            if len(ends) < 2:
                continue  # self-loop: no far side
            for cl in sorted(ends):
                reduced = local_reduce(current, cl, edge)
                if reduced is not current:
                    current = reduced
                    changed = True
        if not changed:
            return current


# -- canonical decomposition -----------------------------------------------------


@record
class CanonicalDecomposition:
    core: Realization
    interfaces: dict[str, QuotientMap]  # C|k / C:k, only where nontrivial

    def compose(self) -> Realization:
        """Reassemble interface nodes with the core; realizes the original code."""
        symbols = dict(self.core.symbols)
        states = dict(self.core.states)
        constraints = dict(self.core.constraints)
        taken, nodes = set(symbols) | set(states), set(constraints)
        for k, quot in self.interfaces.items():
            # the core exposes the effective alphabet as symbol k, which
            # becomes the edge to an interface node on (k, eff_label)
            eff_label = fresh_label(f"{k}~", taken, "~")
            symbols.pop(k)
            states[eff_label] = StateVar(quot.alphabet, None)
            (cl, i), = self.core.slots[k]
            constraints[cl] = constraints[cl].renamed({i: eff_label})
            symbols[k] = quot.group.ambient.alphabet(k)
            constraints[fresh_label(f"iface:{k}", nodes, "+")] = Constraint(
                (k, eff_label), quot.node(1).renamed({k: 0}))
        return Realization(symbols, states, constraints)


def canonical_decomposition(r: Realization) -> CanonicalDecomposition:
    """Local reductions to a fixpoint, then per-symbol interface extraction.

    The core realization has every constraint trim and proper at all its
    variables; each symbol k whose interface quotient C|k / C:k is smaller
    than its alphabet gets an interface node onto that quotient.
    """
    r.require_valid()
    reduced = reduce_to_fixpoint(r)
    code = reduced.code()
    interfaces: dict[str, QuotientMap] = {}
    symbols = dict(reduced.symbols)
    constraints = dict(reduced.constraints)
    for k in sorted(reduced.symbols, key=sort_key):
        quot = code.interface([k])
        if quot.order == reduced.symbols[k].order:
            continue
        (cl, slot), = reduced.slots[k]
        con = constraints[cl]
        constraints[cl] = Constraint(con.vars, restrict_merge(con.code, {slot: quot}))
        symbols[k] = quot.alphabet
        interfaces[k] = quot
    core = reduced.replaced(symbols=symbols, constraints=constraints)
    # restricting symbol slots to globally reachable values can shrink the
    # constraints' state-slot projections, so the state alphabets may admit
    # further reductions; a second sweep cannot break the symbol slots,
    # whose trim/properness now follows from the effective code itself
    core = reduce_to_fixpoint(core)
    return CanonicalDecomposition(core, interfaces)


# -- observability and controllability -------------------------------------------


@record
class ObsCtrlReport:
    ext_unobservable: CodeSubgroup   # (C^F) : S_ext
    int_unobservable: CodeSubgroup   # (B^F) : S_int
    tot_unobservable: CodeSubgroup   # (B^F) : (S_ext x S_int)
    int_controllable: CodeSubgroup   # image of the syndrome map on U^F
    order_universe: int
    order_extended: int
    order_int_states: int
    ext_observable: bool
    int_observable: bool
    tot_observable: bool
    ext_controllable: bool
    int_controllable_flag: bool

    @property
    def tot_controllable(self) -> bool:
        return self.ext_controllable and self.int_controllable_flag


def obs_ctrl(f: Realization) -> ObsCtrlReport:
    """Full internal/external/total observability and controllability report."""
    bundle = f.behavior_bundle()
    bound = list(f.boundary)
    internal = sorted(f.internal_states(), key=sort_key)

    ext_unobs = bundle.external.cross_section(bound)
    int_unobs = bundle.behavior.cross_section([("s", j) for j in internal]).renamed(
        {("s", j): j for j in internal})
    tot_unobs = bundle.behavior.cross_section(
        [("x", j) for j in bound] + [("s", j) for j in internal])

    controllable_sub = CodeSubgroup(bundle.state_space, bundle.syndromes)

    return ObsCtrlReport(
        ext_unobservable=ext_unobs,
        int_unobservable=int_unobs,
        tot_unobservable=tot_unobs,
        int_controllable=controllable_sub,
        order_universe=bundle.universe.order,
        order_extended=bundle.extended.order,
        order_int_states=bundle.state_space.order,
        ext_observable=ext_unobs.is_trivial,
        int_observable=int_unobs.is_trivial,
        tot_observable=tot_unobs.is_trivial,
        ext_controllable=bundle.external.project(bound).is_full,
        int_controllable_flag=controllable_sub.is_full,
    )


def verify_controllability(f: Realization) -> bool:
    """Check obs_ctrl's internal controllability by two independent routes.

    The counting route: |U| / |extended behavior| = |controllable subspace|.
    The independence route: the syndrome map is onto the state space iff
    the checks from `Realization.check_rows` are independent, U⊥ ∩ V⊥ = 0.
    """
    rep = obs_ctrl(f)
    space, (u_perp, v_perp) = f.universe_space(), f.check_rows()
    independent = CodeSubgroup(space, u_perp).intersect(
        CodeSubgroup(space, v_perp)).is_trivial
    return (rep.order_universe == rep.order_extended * rep.int_controllable.order
            and independent == rep.int_controllable_flag)


# -- behavioral controllability / observability ----------------------------------


@record
class BehavioralReport:
    controllable: bool
    observable: bool
    direct_controllable: bool
    direct_observable: bool


def behavioral_ctrl_obs(r: Realization, part_f: Sequence[str],
                        part_f2: Sequence[str]) -> BehavioralReport:
    """Willems-style behavioral controllability/observability for a split.

    part_f and part_f2 are disjoint constraint sets with no direct edges
    between them; the remainder fragment sits in the middle.  The primary
    flags evaluate the product conditions on the middle fragment's boundary;
    the direct flags evaluate the defining projection/cross-section product
    identities on the code itself.
    """
    set_f, set_f2 = set(part_f), set(part_f2)
    if set_f & set_f2:
        raise FragmentsOverlap("fragments share constraints")
    rest = set(r.constraints) - set_f - set_f2
    if not set_f or not set_f2 or not rest:
        raise FragmentsOverlap("split must leave two fragments and a remainder")
    for j in r.internal_states():
        ends = {cl for cl, _ in r.slots[j]}
        if ends & set_f and ends & set_f2:
            raise FragmentsOverlap(
                f"edge {j!r} connects the two fragments directly")

    crossing = [j for j in r.internal_states()
                if len({cl for cl, _ in r.slots[j]}
                       & (set_f | set_f2)) == 1
                and len({cl for cl, _ in r.slots[j]} & rest) >= 1]
    sp = r.split(crossing, parts=[set_f, set_f2, rest])
    frag_f, frag_f2, frag_mid = sp.fragments
    # each cut edge's half-edge label inside each fragment
    lab_f, lab_f2, lab_mid = ({j: b for b, j in ends.items()} for ends in sp.ends)

    def boundary_block(frag: Realization, label_of_edge: dict[str, str],
                       edges: list[str]) -> tuple[CodeSubgroup, CodeSubgroup]:
        ext = frag.external_behavior()
        labels = [label_of_edge[j] for j in edges]
        rename = {label_of_edge[j]: ("e", j) for j in edges}
        order = [("e", j) for j in edges]
        proj = ext.project(labels).renamed(rename).permuted(order)
        cross = ext.cross_section(labels).renamed(rename).permuted(order)
        return proj, cross

    edges_f = sorted([j for j in crossing if lab_f.get(j)], key=sort_key)
    edges_f2 = sorted([j for j in crossing if lab_f2.get(j)], key=sort_key)
    sbar_f, slow_f = boundary_block(frag_f, lab_f, edges_f)
    sbar_f2, slow_f2 = boundary_block(frag_f2, lab_f2, edges_f2)
    mid_proj, mid_cross = boundary_block(frag_mid, lab_mid, edges_f + edges_f2)

    order = [("e", j) for j in edges_f + edges_f2]
    prod_bar = product_subgroup(sbar_f, sbar_f2).permuted(order)
    prod_low = product_subgroup(slow_f, slow_f2).permuted(order)
    controllable = mid_proj.contains_subgroup(prod_bar)
    observable = prod_low.contains_subgroup(mid_cross)

    code = r.code()
    syms_f = sorted((a for a in r.symbols
                     if r.slots[a][0][0] in set_f), key=sort_key)
    syms_f2 = sorted((a for a in r.symbols
                      if r.slots[a][0][0] in set_f2), key=sort_key)
    both = syms_f + syms_f2
    direct_ctrl = (code.project(both).permuted(both)
                   == product_subgroup(code.project(syms_f),
                                       code.project(syms_f2)).permuted(both))
    direct_obs = (code.cross_section(both).permuted(both)
                  == product_subgroup(code.cross_section(syms_f),
                                      code.cross_section(syms_f2)).permuted(both))
    return BehavioralReport(controllable, observable, direct_ctrl, direct_obs)


# -- state-trimness at a non-cut edge ---------------------------------------------


@record
class StateTrimReport:
    """Classification at one non-cut edge, in the collapsed one-constraint view.

    The realization is regarded as the single constraint C^(\\j) (the cut
    fragment's external behavior) closed by an equality edge on S_j, so
    `observable` and `controllable` refer to that view.
    """

    edge: str
    state_trim: bool
    dual_state_trim: bool
    unobservable_transitions: CodeSubgroup  # U^(\j) over (S_j, S_j)
    fragment_ext_observable: bool
    fragment_ext_controllable: bool
    observable: bool
    controllable: bool

    @property
    def theorem_obs_holds(self) -> bool:
        return self.fragment_ext_observable == (
            self.dual_state_trim and self.observable)

    @property
    def theorem_ctrl_holds(self) -> bool:
        return self.fragment_ext_controllable == (
            self.state_trim and self.controllable)


def _cut_pairs(bundle, k: int):
    """Per edge j, proj_(s_j, h_j) of sigma^-1(S_j) on U0 = U with its first
    k factors zero: ker sigma + preimages of Sigma0 cap S_j, Sigma0 = sigma(U0),
    where Sigma0 cap S_j = (proj_j Sigma0-perp)-perp.  One Howell form of the
    lifted rows (u_zero, sigma(u), u_rest), built once: its rows leading in
    the state block reduce (0, y, 0), y in Sigma0, to (0, 0, -u) with
    sigma(u) = y, and those leading after it span ker sigma on U0."""
    uni, states = bundle.universe.ambient, bundle.state_space
    space = ProductSpace(uni.factors[:k] + states.factors + uni.factors[k:])
    M = space.lcm_modulus
    scale = [M // m for m in space.moduli]
    a = sum(alpha.width for _, alpha in uni.factors[:k])
    b = a + states.width
    hf = zmod.howell_form([[v * s for v, s in zip(u[:a] + y + u[a:], scale)]
                           for u, y in zip(bundle.universe.rows, bundle.syndromes)],
                          M, space.width)
    reducers = [row for row in hf if any(row[a:b]) and not any(row[:a])]
    kernel = [row for row in hf if not any(row[:b])]
    perp = CodeSubgroup(states, [[v // s for v, s in zip(row[a:b], scale[a:b])]
                                 for row in reducers]).orthogonal()

    def pairs(edge: str) -> CodeSubgroup:
        ya, yb = (a + c for c in states.span(edge))
        rows = list(kernel)
        for y in perp.project([edge]).orthogonal().rows:
            v = [0] * space.width
            v[ya:yb] = [t * s for t, s in zip(y, scale[ya:yb])]
            rows.append([-x % M for x in zmod.reduce_vector(v, reducers, M)])
        pair = [("s", edge), ("h", edge)]
        cols = space.columns(pair)
        return CodeSubgroup(space.subspace(pair),
                            [[row[c] // scale[c] for c in cols] for row in rows])
    return pairs


def state_trim_status(r: Realization, edge: str) -> StateTrimReport:
    """Classify the unobservable transition space of the fragment cut at `edge`.

    The edge must not be a cut set.  Also verifies both parts of the
    state-trimness theorem on this instance.  The fragment's behavior, from
    the duality route of `_cut_pairs`, is read at (s_j, h_j) with the head
    mapped back through the iso, which cutting folds into the head constraint."""
    if edge not in r.states or edge in set(r.boundary):
        raise NotAStateEdge(f"{edge!r} is not an internal state edge")
    if r._edge_duals is None:
        r._edge_duals = [cut_edges(r), None]
    if edge in r._edge_duals[0]:
        raise EdgeIsCutSet(f"cutting {edge!r} would disconnect the realization")
    if r._edge_duals[1] is None:
        bundle, free = r.behavior_bundle(), len(r.symbols) + len(r.boundary)
        r._edge_duals[1] = (_cut_pairs(bundle, 0), _cut_pairs(bundle, free))
    pair_proj, utrans = (pairs(edge) for pairs in r._edge_duals[1])
    iso = r.states[edge].iso
    if iso is not None:
        inv = iso.inverse()
        pair_proj, utrans = (_map_slot(sub, 1, inv) for sub in (pair_proj, utrans))

    alpha = r.states[edge].alphabet
    diag = CodeSubgroup(utrans.ambient, [e + e for e in alpha.unit_rows()])
    dual_state_trim = diag.contains_subgroup(utrans)
    observable = utrans.intersect(diag).is_trivial
    state_trim = r.behavior_bundle().behavior.project([("s", edge)]).order == alpha.order

    # controllable subspace of the collapsed view: the difference image of
    # the fragment's boundary pairs
    w = alpha.width
    diffs = [alpha.add(row[:w], alpha.neg(row[w:])) for row in pair_proj.rows]
    controllable = CodeSubgroup(ProductSpace([(edge, alpha)]), diffs).is_full

    # utrans is the fragment's unobservable boundary subgroup and pair_proj
    # its reachable boundary pairs, so they give its external flags
    return StateTrimReport(
        edge=edge,
        state_trim=state_trim,
        dual_state_trim=dual_state_trim,
        unobservable_transitions=utrans,
        fragment_ext_observable=utrans.is_trivial,
        fragment_ext_controllable=pair_proj.order == alpha.order ** 2,
        observable=observable,
        controllable=controllable,
    )
