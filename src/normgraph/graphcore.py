"""Graph-structure computations on normal graphs: cycles, cut edges, 2-cores.

Degrees here count internal state edges only; symbol half-edges and
boundary half-edges never contribute, which matches the leaf-stripping
semantics of the 2-core.
"""

from __future__ import annotations

from ._records import record
from .alphabets import sort_key
from .errors import Disconnected, NotTrimProper, UnknownEdge
from .realization import Realization
from .subgroups import CodeSubgroup, QuotientMap


def cyclomatic_number(r: Realization) -> int:
    """|edges| - |constraints| + #components, over internal state edges."""
    edges = [j for j in r.internal_states() if len(r.slots[j]) == 2]
    return len(edges) - len(r.constraints) + len(r.components())


def cut_edges(r: Realization) -> set[str]:
    """The bridges: internal edges whose removal disconnects their component,
    from one depth-first search on an explicit stack.  A self-loop, or one of
    two parallel edges, never is one."""
    adj, disc, low, bridges = r.neighbors(), {}, {}, set()
    for root in r.constraints:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        stack = [(root, None, iter(adj[root]))]
        while stack:
            c, via, todo = stack[-1]
            for j, other in todo:
                if other not in disc:
                    disc[other] = low[other] = len(disc)
                    stack.append((other, j, iter(adj[other])))
                    break
                if j != via:
                    low[c] = min(low[c], disc[other])
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[c])
                    if low[c] > disc[parent]:
                        bridges.add(via)
    return bridges


def is_cut_edge(r: Realization, j: str) -> bool:
    """True iff removing edge j disconnects its component."""
    if j not in r.states or j in set(r.boundary):
        raise UnknownEdge(f"no internal state edge {j!r}")
    return j in cut_edges(r)


def constraint_degrees(r: Realization, alive: set[str]) -> dict[str, int]:
    deg = {c: 0 for c in alive}
    for j in r.internal_states():
        ends = [cl for cl, _ in r.slots[j] if cl in alive]
        if len(r.slots[j]) == 2 and all(cl in alive for cl, _ in r.slots[j]):
            for cl in ends:
                deg[cl] += 1
    return deg


@record
class LeafAttachment:
    fragment: Realization
    edge: str | None          # attachment edge label in the original realization
    boundary_var: str | None  # that edge's half-edge label inside the fragment


@record
class TwoCoreDecomposition:
    core: Realization | None
    core_boundary_of: dict[str, str]  # attachment edge -> core-side half-edge label
    leaves: list[LeafAttachment]


def two_core_constraints(r: Realization, rng: random.Random | None = None) -> set[str]:
    """Constraints surviving repeated leaf deletion (empty iff cycle-free)."""
    alive = set(r.constraints)
    while alive:
        deg = constraint_degrees(r, alive)
        leaves = sorted(c for c in alive if deg[c] <= 1)
        if not leaves:
            break
        if rng is not None:
            rng.shuffle(leaves)
            leaves = leaves[:1]
        alive -= set(leaves)
    return alive


def two_core(r: Realization, rng: random.Random | None = None) -> TwoCoreDecomposition:
    """Strip leaf constraints repeatedly; returns the core and leaf fragments.

    The optional rng shuffles the stripping order (the result is invariant;
    tests rely on that).  The core is None iff the realization is cycle-free,
    in which case the whole realization is reported as one leaf fragment.
    """
    if not r.is_connected:
        raise Disconnected("two_core requires a connected realization")
    alive = two_core_constraints(r, rng)
    if not alive:
        return TwoCoreDecomposition(None, {}, [LeafAttachment(r, None, None)])
    if alive == set(r.constraints):
        return TwoCoreDecomposition(r, {}, [])
    # attachment edges run between the core and the stripped forest
    attachments = []
    for j in r.internal_states():
        ends = r.slots[j]
        if len(ends) != 2:
            continue
        inside = [cl for cl, _ in ends if cl in alive]
        if len(inside) == 1:
            attachments.append(j)
    sp = r.split(attachments)
    edge_of = {lab: j for j, pair in sp.halves.items() for lab in pair}
    core = None
    core_boundary_of: dict[str, str] = {}
    leaves_out = []
    for frag in sp.fragments:
        if set(frag.constraints) & alive:
            core = frag
        else:
            assert len(frag.boundary) == 1
            bvar = frag.boundary[0]
            leaves_out.append(LeafAttachment(frag, edge_of[bvar], bvar))
    assert core is not None
    for b in core.boundary:
        if b in edge_of:
            core_boundary_of[edge_of[b]] = b
    leaves_out.sort(key=lambda la: sort_key(la.edge))
    return TwoCoreDecomposition(core, core_boundary_of, leaves_out)


def constraint_trim_proper(code: CodeSubgroup) -> tuple[bool, bool]:
    """Trim/proper of a single constraint code at every slot."""
    trim = True
    proper = True
    for lab, alpha in code.ambient.factors:
        if code.project([lab]).order != alpha.order:
            trim = False
        if not code.cross_section([lab]).is_trivial:
            proper = False
    return trim, proper


def internally_trim_proper(r: Realization) -> bool:
    """Every constraint trim and proper.  Both depend only on the code's rows
    and each slot's moduli, so each distinct local code is checked once."""
    passed = set()
    for con in r.constraints.values():
        key = (tuple(alpha.moduli for _, alpha in con.code.ambient.factors),
               con.code.rows)
        if key not in passed:
            if constraint_trim_proper(con.code) != (True, True):
                return False
            passed.add(key)
    return True


@record
class LeafSummary:
    fragment: Realization
    edge: str | None
    boundary_var: str | None
    trimmed: CodeSubgroup | None       # symbol-block projection of C^F
    nondynamical: CodeSubgroup | None  # symbol-block cross-section of C^F
    quotient: QuotientMap | None       # effective symbol configuration space
    state_order: int | None

    @property
    def effective_order(self) -> int | None:
        return self.quotient.order if self.quotient else None


@record
class SecondDecomposition:
    core: Realization | None
    leaves: list[LeafSummary]

    @property
    def orders_match(self) -> bool:
        return all(
            ls.state_order is None or ls.state_order == ls.effective_order
            for ls in self.leaves
        )


def second_canonical_decomposition(r: Realization) -> SecondDecomposition:
    """Split an internally trim and proper realization into 2-core + leaf nodes.

    Each cycle-free leaf fragment acts as an interface node: its external
    state space is isomorphic to its effective symbol configuration space,
    whose order is verified here.  A cycle-free input degenerates to the
    two-leaf decomposition at its first edge.
    """
    r.require_valid()
    if not internally_trim_proper(r):
        raise NotTrimProper(
            "realization is not internally trim and proper; "
            "apply canonical_decomposition first")
    dec = two_core(r)
    if dec.core is None:
        edges = sorted((j for j in r.internal_states() if len(r.slots[j]) == 2),
                       key=sort_key)
        if not edges:
            return SecondDecomposition(None, [
                LeafSummary(r, None, None, None, None, None, None)])
        j = edges[0]
        leaves = [_leaf_summary(f, j, r) for f in r.split([j]).fragments]
        return SecondDecomposition(None, leaves)
    leaves = [_leaf_summary(la.fragment, la.edge, r) for la in dec.leaves]
    return SecondDecomposition(dec.core, leaves)


def _leaf_summary(frag: Realization, edge: str, r: Realization) -> LeafSummary:
    bvar = frag.boundary[0]
    ext = frag.external_behavior()
    syms = [lab for lab in ext.ambient.labels if lab != bvar]
    trimmed = ext.project(syms)
    nondyn = ext.cross_section(syms)
    quotient = trimmed.quotient_by(nondyn)
    state_order = r.states[edge].alphabet.order
    return LeafSummary(frag, edge, bvar, trimmed, nondyn, quotient, state_order)
