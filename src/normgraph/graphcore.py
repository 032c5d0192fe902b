"""Graph-structure computations on normal graphs: cycles, cut edges, 2-cores.

Degrees here count internal state edges only; symbol half-edges and
boundary half-edges never contribute.  The 2-core is what
`Realization.peel`, the one leaf stripper, leaves: a worklist of leaves,
each stripped once, in time linear in the graph.
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


@record
class LeafAttachment:
    fragment: Realization
    edge: str | None          # attachment edge label in the original realization
    boundary_var: str | None  # that edge's half-edge label inside the fragment
    # from `second_canonical_decomposition` only: the effective symbol
    # configuration space C^F|A / C^F:A and the attachment edge's state order
    quotient: QuotientMap | None = None
    state_order: int | None = None

    @property
    def effective_order(self) -> int | None:
        return self.quotient.order if self.quotient else None


@record
class TwoCoreDecomposition:
    core: Realization | None
    core_boundary_of: dict[str, str]  # attachment edge -> core-side half-edge label
    leaves: list[LeafAttachment]

    @property
    def orders_match(self) -> bool:
        return all(la.state_order is None or la.state_order == la.effective_order
                   for la in self.leaves)


def two_core_constraints(r: Realization, rng: object | None = None) -> set[str]:
    """Constraints `Realization.peel` never strips (empty iff cycle-free)."""
    return set(r.constraints).difference(c for c, _ in r.peel(rng))


def two_core(r: Realization, rng: object | None = None) -> TwoCoreDecomposition:
    """Strip leaf constraints repeatedly; returns the core and leaf fragments.

    The optional rng (see `Realization.peel`) shuffles the stripping order
    (the result is invariant; tests rely on that).  The core is None iff the
    realization is cycle-free, in which case the whole realization is
    reported as one leaf fragment.
    """
    if not r.is_connected:
        raise Disconnected("two_core requires a connected realization")
    peel = r.peel(rng)
    alive = set(r.constraints).difference(c for c, _ in peel)
    if not alive:
        return TwoCoreDecomposition(None, {}, [LeafAttachment(r, None, None)])
    if not peel:
        return TwoCoreDecomposition(r, {}, [])
    # attachment edges: the stripped constraints hanging by an edge into the core
    sp = r.split([j for _, j in peel
                  if j is not None and any(c in alive for c, _ in r.slots[j])])
    core, core_boundary_of, leaves = None, {}, []
    for frag, ends in zip(sp.fragments, sp.ends):
        if alive.isdisjoint(frag.constraints):
            # a leaf hangs by one half-edge; other boundary variables are the input's
            (bvar, j), = ends.items()
            leaves.append(LeafAttachment(frag, j, bvar))
        else:
            core, core_boundary_of = frag, {j: b for b, j in ends.items()}
    leaves.sort(key=lambda la: sort_key(la.edge))
    return TwoCoreDecomposition(core, core_boundary_of, leaves)


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


def second_canonical_decomposition(r: Realization) -> TwoCoreDecomposition:
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
    leaves = dec.leaves
    if dec.core is None:
        edges = sorted((j for j in r.internal_states() if len(r.slots[j]) == 2),
                       key=sort_key)
        if not edges:
            return dec
        sp = r.split(edges[:1])
        leaves = [LeafAttachment(f, j, b)
                  for f, ends in zip(sp.fragments, sp.ends) for b, j in ends.items()]
    return TwoCoreDecomposition(dec.core, dec.core_boundary_of,
                                [_with_quotient(la, r) for la in leaves])


def _with_quotient(la: LeafAttachment, r: Realization) -> LeafAttachment:
    """The leaf with its interface quotient on every external variable but
    its half-edge of the cut edge: its symbols and the input's boundary."""
    ext = la.fragment.external_behavior()
    quotient = ext.interface([lab for lab in ext.ambient.labels if lab != la.boundary_var])
    return LeafAttachment(la.fragment, la.edge, la.boundary_var, quotient,
                          r.states[la.edge].alphabet.order)
