"""Normal realizations and fragments: data model, behaviors, cutting, connecting.

A normal realization has symbol variables of degree 1, state variables of
degree 2 (edges, optionally labeled with an isomorphism relating their two
ends), and constraint codes at the vertices.  A fragment is the same thing
plus a boundary of degree-1 external state variables.  One class covers
both; an empty boundary means a complete realization.

Edge orientation: the two ends of a state edge are its tail value s and head
value s', with validity s' = iso(s) (identity if no iso).  The tail is the
slot in the first-listed incident constraint.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from collections.abc import Collection, Hashable, Iterable, Mapping, Sequence
from operator import itemgetter, mod, sub

from ._records import record
from .alphabets import Alphabet, Element, ProductSpace, sort_key
from .errors import (
    AlphabetMismatch,
    BadPartition,
    UnknownEdge,
    UnknownLabel,
    ValidationFailed,
)
from .homs import Homomorphism
from .subgroups import CodeSubgroup, full_subgroup, kernel_span

Configuration = dict[str, Element]


@record(frozen=True)
class StateVar:
    """State edge: one alphabet for both ends, head = iso(tail) when labeled."""

    alphabet: Alphabet
    iso: Homomorphism | None = None

    def __post_init__(self):
        if self.iso is not None:
            if (self.iso.source != self.alphabet
                    or self.iso.target != self.alphabet):
                raise AlphabetMismatch("edge isomorphism must act on the edge alphabet")
            if not self.iso.is_isomorphism:
                raise AlphabetMismatch("edge label must be an isomorphism")

    def head_of(self, tail: Sequence[int]) -> Element:
        return self.iso.apply(tail) if self.iso else tuple(tail)


@record(frozen=True)
class Constraint:
    """Constraint code over its incident variables, slots indexed 0..d-1."""

    vars: tuple[str, ...]
    code: CodeSubgroup

    def __post_init__(self):
        if len(self.code.ambient.factors) != len(self.vars):
            raise ValidationFailed("constraint code width differs from slot count")

    def renamed(self, mapping: Mapping[int, str]) -> "Constraint":
        """The same code with slot i's variable replaced by mapping[i]."""
        return Constraint(tuple(mapping.get(i, v) for i, v in enumerate(self.vars)),
                          self.code)


@record
class ValidationReport:
    degree_errors: list[str]
    alphabet_errors: list[str]
    disconnected: bool

    @property
    def is_valid(self) -> bool:
        return not self.degree_errors and not self.alphabet_errors

    def lines(self) -> list[str]:
        out = [f"degree: {msg}" for msg in self.degree_errors]
        out += [f"alphabet: {msg}" for msg in self.alphabet_errors]
        if self.disconnected:
            out.append("note: graph is disconnected")
        return out


@record
class BehaviorBundle:
    """Universe U and its syndromes: `syndromes[i]` is sigma(universe.rows[i])
    in `state_space` (see `Realization.syndromes`)."""

    universe: CodeSubgroup
    state_space: ProductSpace
    syndromes: list[Element]


# Result of `Realization.split`: the folded realization, a list of
# fragments, per cut edge its (tail, head) half-edge labels, and per
# fragment its `ends`: {half-edge label: cut edge} for the halves it holds.
Split = namedtuple("Split", ["folded", "fragments", "halves", "ends"])


def fresh_label(base: str, taken: set[str], mark: str) -> str:
    """`base` with `mark` appended until it is not in `taken`; taken then holds it."""
    lab = base
    while lab in taken:
        lab += mark
    taken.add(lab)
    return lab


class Realization:
    """A normal realization, or a fragment when boundary is nonempty."""

    def __init__(
        self,
        symbols: Mapping[str, Alphabet],
        states: Mapping[str, StateVar],
        constraints: Mapping[str, Constraint],
        boundary: Sequence[str] = (),
    ):
        self.symbols: dict[str, Alphabet] = dict(symbols)
        self.states: dict[str, StateVar] = dict(states)
        self.constraints: dict[str, Constraint] = dict(constraints)
        self.boundary: tuple[str, ...] = tuple(sorted(boundary, key=sort_key))
        clash = set(self.symbols) & set(self.states)
        if clash:
            raise ValidationFailed(f"labels used as both symbol and state: {clash}")
        # occurrence slots per variable, in constraint listing order
        self.slots: dict[str, list[tuple[str, int]]] = {
            v: [] for v in itertools.chain(self.symbols, self.states)
        }
        for cl, con in self.constraints.items():
            for i, v in enumerate(con.vars):
                if v not in self.slots:
                    raise UnknownLabel(f"constraint {cl!r} uses unknown variable {v!r}")
                self.slots[v].append((cl, i))
        self._adjacency: dict[str, list[tuple[str, str]]] | None = None
        self._components: list[set[str]] | None = None
        self._bundle: BehaviorBundle | None = None
        self._behavior: CodeSubgroup | None = None
        self._external: CodeSubgroup | None = None
        self._edge_duals = None  # cut edges and `analysis._cut_pairs`, on first use

    # -- structural helpers ---------------------------------------------------

    @property
    def is_fragment(self) -> bool:
        return bool(self.boundary)

    def internal_states(self) -> list[str]:
        b = set(self.boundary)
        return [s for s in self.states if s not in b]

    def alphabet_of(self, v: str) -> Alphabet:
        if v in self.symbols:
            return self.symbols[v]
        if v in self.states:
            return self.states[v].alphabet
        raise UnknownLabel(f"no variable {v!r}")

    def neighbors(self) -> dict[str, list[tuple[str, str]]]:
        """Adjacency over internal state edges: constraint -> [(edge, other)].
        Built once and shared by every caller, which only reads it."""
        if self._adjacency is None:
            adj: dict[str, list[tuple[str, str]]] = {c: [] for c in self.constraints}
            for j in self.internal_states():
                ends = self.slots[j]
                if len(ends) != 2:
                    continue
                (c1, _), (c2, _) = ends
                adj[c1].append((j, c2))
                adj[c2].append((j, c1))
            self._adjacency = adj
        return self._adjacency

    def components(self, removed_edges: set[str] | None = None) -> list[set[str]]:
        """Connected components of the constraint graph, optionally cutting
        edges.  Without a cut they are found once and shared by every
        caller, which only reads them."""
        if not removed_edges and self._components is not None:
            return self._components
        removed = removed_edges or set()
        adj = self.neighbors()
        seen: set[str] = set()
        comps = []
        for start in self.constraints:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            seen.add(start)
            while stack:
                c = stack.pop()
                for j, other in adj[c]:
                    if j in removed or other in seen:
                        continue
                    seen.add(other)
                    comp.add(other)
                    stack.append(other)
            comps.append(comp)
        if not removed:
            self._components = comps
        return comps

    @property
    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def peel(self, rng: object | None = None) -> list[tuple[str, str | None]]:
        """Leaf constraints stripped one at a time until none is left: each
        with the edge it hung by, None for the last of a tree component.
        What is never stripped is the 2-core.

        Leaves wait on a stack seeded in reverse listing order, so a chain
        listed in order is stripped in listing order; an rng (anything with
        `randrange`, such as a `random.Random`) strips a random waiting leaf
        instead (the 2-core does not depend on the order)."""
        adj = self.neighbors()
        degree = {c: len(nbrs) for c, nbrs in adj.items()}
        stack = [c for c in reversed(self.constraints) if degree[c] <= 1]
        stripped: dict[str, str | None] = {}
        while stack:
            if rng is not None:
                k = rng.randrange(len(stack))
                stack[k], stack[-1] = stack[-1], stack[k]
            c = stack.pop()
            stripped[c] = None
            for j, other in adj[c]:
                if other not in stripped:
                    stripped[c] = j
                    degree[other] -= 1
                    if degree[other] == 1:
                        stack.append(other)
        return list(stripped.items())

    def validate(self) -> ValidationReport:
        degree_errors: list[str] = []
        alphabet_errors: list[str] = []
        for a in self.symbols:
            d = len(self.slots[a])
            if d != 1:
                degree_errors.append(f"symbol {a!r} has degree {d}, expected 1")
        bset = set(self.boundary)
        for s in self.states:
            d = len(self.slots[s])
            want = 1 if s in bset else 2
            kind = "boundary state" if s in bset else "state"
            if d != want:
                degree_errors.append(f"{kind} {s!r} has degree {d}, expected {want}")
        for b in self.boundary:
            if b not in self.states:
                degree_errors.append(f"boundary variable {b!r} is not a state")
        for b, n in Counter(self.boundary).items():
            if n > 1:
                degree_errors.append(f"boundary variable {b!r} is listed {n} times")
        for cl, con in self.constraints.items():
            for i, v in enumerate(con.vars):
                expected = self.alphabet_of(v)
                got = con.code.ambient.factors[i][1]
                if got.moduli != expected.moduli:
                    alphabet_errors.append(
                        f"constraint {cl!r} slot {i} has {got!r}, "
                        f"variable {v!r} has {expected!r}")
        return ValidationReport(degree_errors, alphabet_errors,
                                not self.is_connected)

    def require_valid(self) -> None:
        report = self.validate()
        if not report.is_valid:
            raise ValidationFailed("; ".join(report.lines()))

    # -- behavior -------------------------------------------------------------

    def _blocks(self):
        syms = sorted(self.symbols, key=sort_key)
        bound = list(self.boundary)
        internal = sorted(self.internal_states(), key=sort_key)
        return syms, bound, internal

    def universe_space(self) -> ProductSpace:
        syms, bound, internal = self._blocks()
        return ProductSpace([(("a", k), self.symbols[k]) for k in syms]
                            + [(("x", j), self.states[j].alphabet) for j in bound]
                            + [((kind, j), self.states[j].alphabet)
                               for kind in "sh" for j in internal])

    def behavior_bundle(self) -> BehaviorBundle:
        """Exact U and the syndromes of its rows, in one Howell form."""
        if self._bundle is None:
            self.require_valid()
            space = self.universe_space()
            slots = ProductSpace(self._slot_factors(self.constraints))
            pick = _picker([c for lab in space.labels for c in range(*slots.span(lab))])
            rows = _block_diagonal(self._codes().values())
            universe = CodeSubgroup(space, list(map(pick, rows)))
            states = ProductSpace([(j, self.states[j].alphabet) for j in self._blocks()[2]])
            syndromes = self.syndromes(universe.rows, space, states.labels)
            self._bundle = BehaviorBundle(universe, states, syndromes)
        return self._bundle

    def _slot_factors(self, constraints: Iterable[str]) -> list[tuple[tuple[str, str], Alphabet]]:
        """The universe's factors at the slots of the constraints, in order:
        ("a", k) for a symbol, ("x", j) for a boundary state, and an edge's
        tail ("s", j) at its first-listed slot, its head ("h", j) at the other."""
        bound, out = set(self.boundary), []
        for cl in constraints:
            for i, v in enumerate(self.constraints[cl].vars):
                kind = ("a" if v in self.symbols else "x" if v in bound
                        else "s" if self.slots[v][0] == (cl, i) else "h")
                out.append(((kind, v), self.alphabet_of(v)))
        return out

    def syndromes(self, points: Iterable[Sequence[int]], space: ProductSpace,
                  edges: Sequence[str]) -> list[Element]:
        """The syndrome map sigma_j(u) = h_j - iso(s_j) over the given internal
        edges j, on points of a space holding their ends.

        On U over every edge, ker sigma is the extended behavior and sigma(U)
        the controllable subspace; without block j, ker is the behavior of
        the fragment cut at j."""
        ends = [(("h", j), ("s", j), self.states[j].iso) for j in edges]
        return edge_values(points, space, ends)

    def code(self) -> CodeSubgroup:
        """The code realized: projection of the external behavior on the symbols."""
        return self.external_behavior().project(sorted(self.symbols, key=sort_key))

    def external_behavior(self) -> CodeSubgroup:
        """C^F over symbols then boundary states (plain labels), by `_join`."""
        if self._external is None:
            self.require_valid()
            joined = self._join(self._codes(), self.syndromes)
            self._external = joined.renamed({lab: lab[1] for lab in joined.ambient.labels})
        return self._external

    def behavior(self) -> CodeSubgroup:
        """B over ("a", k), ("x", j), then each internal edge's tail ("s", j),
        joined as C^F is with the tails kept; C^F is its column prefix."""
        if self._behavior is None:
            self.require_valid()
            b = self._behavior = self._join(self._codes(), self.syndromes, tails=True)
            free = b.ambient.labels[:len(self.symbols) + len(self.boundary)]
            self._external = b.project(free).renamed({lab: lab[1] for lab in free})
        return self._behavior

    def _codes(self) -> dict[str, CodeSubgroup]:
        return {cl: con.code for cl, con in self.constraints.items()}

    def _join(self, codes: Mapping[str, CodeSubgroup], values,
              tails: bool = False) -> CodeSubgroup:
        """Over ("a", k), ("x", j), and with `tails` each internal edge's
        ("s", j): `codes` (one per constraint) at their slots, where
        `values(points, space, edges)` vanish on every internal edge; C^F or
        B with the constraint codes and `syndromes`.  Without the universe:
        the leaves `peel` strips joined one at a time, then the 2-core in one
        step.  The partial code lives on its open edge ends, then its kept
        variables in final order.  Each join takes the product with the
        step's codes and closes the edges whose two ends are now present: one
        `kernel_span` of the rows without their heads (and tails, unless
        `tails`), with their values there."""
        syms, bound, internal = self._blocks()
        free = [("a", k) for k in syms] + [("x", j) for j in bound]
        final = {lab: t for t, lab in enumerate(free)}
        tail_at = {j: len(free) + t for t, j in enumerate(internal)}
        part, present = CodeSubgroup(ProductSpace([]), []), set()
        stripped = dict(self.peel())
        core = [c for c in self.constraints if c not in stripped]
        for step in [[cl] for cl in stripped] + ([core] if core else []):
            present.update(step)
            new = self._slot_factors(step)
            amb = ProductSpace(list(part.ambient.factors) + new)
            gens = _block_diagonal([part, *(codes[cl] for cl in step)])
            closed = [j for j in dict.fromkeys(j for (kind, j), _ in new if kind in "sh")
                      if {c for c, _ in self.slots[j]} <= present]
            if tails:
                final.update((("s", j), tail_at[j]) for j in closed)
            shut = {(kind, j) for j in closed for kind in ("h" if tails else "sh")}
            sub = ProductSpace(sorted((f for f in amb.factors if f[0] not in shut),
                                      key=lambda f: final.get(f[0], -1)))
            pick = _picker([c for lab in sub.labels for c in range(*amb.span(lab))])
            part = kernel_span(sub, list(map(pick, gens)),
                               ProductSpace([(j, self.states[j].alphabet) for j in closed]),
                               values(gens, amb, closed))
        return part

    # -- structure editing (persistent: returns new realizations) -------------

    def replaced(self, symbols=None, states=None, constraints=None,
                 boundary=None) -> "Realization":
        return Realization(
            symbols if symbols is not None else self.symbols,
            states if states is not None else self.states,
            constraints if constraints is not None else self.constraints,
            boundary if boundary is not None else self.boundary,
        )

    def fold_edge_iso(self, *edges: str) -> "Realization":
        """Equivalent realization where the listed edges carry the identity.

        Each isomorphism is absorbed into its head constraint by composing
        that slot with the map; behavior is unchanged.  Returns self when no
        listed edge carries one.
        """
        states, constraints, folded = dict(self.states), dict(self.constraints), False
        for j in edges:
            sv = states.get(j)
            if sv is None:
                raise UnknownEdge(f"no state variable {j!r}")
            if sv.iso is None:
                continue
            if len(self.slots[j]) != 2:
                raise UnknownEdge(f"state {j!r} is not an internal edge")
            head_cl, head_slot = self.slots[j][1]
            con = constraints[head_cl]
            constraints[head_cl] = Constraint(
                con.vars, _map_slot(con.code, head_slot, sv.iso.inverse()))
            states[j], folded = StateVar(sv.alphabet, None), True
        return self.replaced(states=states, constraints=constraints) if folded else self

    def split(self, edges: Iterable[str],
              parts: Sequence[Collection[str]] | None = None) -> Split:
        """Cut state edges into boundary half-edges and return the fragments.

        Invariant: both halves of a cut edge carry tail coordinates.  The
        isomorphism of each cut edge is first folded into its head
        constraint (`folded`), so joining each pair back with `connect`
        and no isomorphism realizes the same code.  The tail half keeps the
        edge label and the head half gets a primed label;
        `halves[j] = (tail_label, head_label)`, and `ends[k]` maps each half
        in fragment k to its cut edge (both halves of j when they stay
        together).  `parts` lists disjoint constraint sets covering every
        constraint, one fragment each, and every edge between two parts must
        be cut; by default the parts are the connected pieces left after the
        cut.
        """
        cut = sorted(set(edges), key=sort_key)
        bset = set(self.boundary)
        for j in cut:
            if j not in self.states or j in bset or len(self.slots[j]) != 2:
                raise UnknownEdge(f"no internal state edge {j!r}")
        folded = self.fold_edge_iso(*cut)
        taken = set(self.symbols) | set(self.states)
        halves: dict[str, tuple[str, str]] = {}
        rename: dict[str, dict[int, str]] = {}  # constraint -> {slot: half-edge}
        for j in cut:
            halves[j] = (j, fresh_label(j + "'", taken, "'"))
            for (cl, i), lab in zip(self.slots[j], halves[j]):
                rename.setdefault(cl, {})[i] = lab
        if parts is None:
            parts = sorted(self.components(set(cut)),
                           key=lambda c: min(map(sort_key, c)))
        part_of = {cl: k for k, part in enumerate(parts) for cl in part}
        if (sum(map(len, parts)) != len(part_of)
                or part_of.keys() != self.constraints.keys()):
            raise BadPartition("parts must partition the constraints")
        pieces = [({}, {}, {}, []) for _ in parts]
        ends: list[dict[str, str]] = [{} for _ in parts]
        for cl, con in folded.constraints.items():
            symbols, _, constraints, _ = pieces[part_of[cl]]
            constraints[cl] = con.renamed(rename.get(cl, {}))
            symbols.update((v, self.symbols[v]) for v in con.vars
                           if v in self.symbols)
        for j, sv in folded.states.items():
            slots = self.slots[j]
            if j not in halves and len({part_of[cl] for cl, _ in slots}) > 1:
                raise BadPartition(f"edge {j!r} joins two parts but is not cut")
            for (cl, _), lab in zip(slots, halves.get(j, (j, j))):
                k = part_of[cl]
                _, states, _, boundary = pieces[k]
                states[lab] = sv
                if j in halves:
                    ends[k][lab] = j
                if j in halves or j in bset:
                    boundary.append(lab)
        fragments = [Realization(*piece) for piece in pieces]
        return Split(folded, fragments, halves, ends)

    def connect(self, other: "Realization | None", tail: str, head: str,
                iso: Homomorphism | None = None) -> "Realization":
        """Join boundary variables into one edge; other=None joins within self.

        tail must be a boundary variable of self, head one of other (or
        another one of self when other is None).  The new edge keeps the
        tail label and validity head_value = iso(tail_value).
        """
        src = self if other is None else other
        if tail not in self.boundary or head not in src.boundary or (
                other is None and tail == head):
            raise UnknownEdge(
                f"connect needs two boundary variables, not {tail!r} and {head!r}")
        fragments = [self] if other is None else [self, other]
        if other is not None:
            # the two ends may share their label, which the new edge keeps
            shared = ((set(self.symbols) | set(self.states))
                      & (set(other.symbols) | set(other.states))) - ({tail} & {head})
            if shared:
                raise ValidationFailed(
                    f"variable labels overlap between fragments: {sorted(shared)}")
            if set(self.constraints) & set(other.constraints):
                raise ValidationFailed("constraint labels overlap between fragments")
        ta, ha = self.states[tail].alphabet, src.states[head].alphabet
        if iso is None:
            if ta.moduli != ha.moduli:
                raise AlphabetMismatch(
                    f"cannot identify {ta!r} with {ha!r} without an isomorphism")
        else:
            if iso.source != ta or iso.target != ha or not iso.is_isomorphism:
                raise AlphabetMismatch("pairing isomorphism has wrong alphabets")
        # the head slot takes the tail label
        hc, hi = src.slots[head][0]
        constraints = {cl: con for f in fragments for cl, con in f.constraints.items()}
        constraints[hc] = constraints[hc].renamed({hi: tail})
        merged = Realization(
            {a: alpha for f in fragments for a, alpha in f.symbols.items()},
            {j: sv for f in fragments for j, sv in f.states.items()
             if f is not src or j != head},
            constraints,
            [b for f in fragments for b in f.boundary if b not in (tail, head)])
        # orientation: the stated map sends the tail-label end to the head end;
        # if the head slot is listed first, store the inverse instead
        if iso is not None and merged.slots[tail][0] != self.slots[tail][0]:
            iso = iso.inverse()
        if iso is not None and not _is_identity(iso):
            merged = merged.replaced(states=merged.states | {tail: StateVar(ta, iso)})
        return merged

    # -- equality & enumeration ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Realization):
            return False
        # constraint listing order is semantic (it fixes edge orientation);
        # symbol/state dict order is not
        return (
            self.symbols == other.symbols
            and self.states == other.states
            and list(self.constraints.items()) == list(other.constraints.items())
            and self.boundary == other.boundary
        )

    def __repr__(self) -> str:
        return (f"Realization(symbols={len(self.symbols)}, "
                f"states={len(self.states)}, constraints={len(self.constraints)}, "
                f"boundary={len(self.boundary)})")

    def configuration_space_order(self) -> int:
        n = 1
        for a in self.symbols.values():
            n *= a.order
        for j in self.internal_states():
            n *= self.states[j].alphabet.order
        for b in self.boundary:
            n *= self.states[b].alphabet.order
        return n

def _picker(cols: Sequence[int]):
    """row -> its entries at `cols` (an itemgetter gives a bare entry for one)."""
    return itemgetter(*cols) if len(cols) > 1 else lambda row: [row[c] for c in cols]


def _block_diagonal(codes: Collection[CodeSubgroup]) -> list[list[int]]:
    """The rows of each code, side by side: zero outside its own columns."""
    width, w, rows = sum(code.ambient.width for code in codes), 0, []
    for code in codes:
        rows += [[*[0] * w, *r, *[0] * (width - w - len(r))] for r in code.rows]
        w += code.ambient.width
    return rows


def edge_values(points: Iterable[Sequence[int]], space: ProductSpace,
                ends: Sequence[tuple[Hashable, Hashable, Homomorphism | None]]) -> list[Element]:
    """Per residue row of `space`, x - phi(y) on each edge's ends (x, y,
    phi), concatenated; phi None is the identity, and it is applied only
    where y is nonzero."""
    factor = dict(space.factors)
    vals = ProductSpace([(x, factor[x]) for x, _, _ in ends])
    xs = _picker([c for x, _, _ in ends for c in range(*space.span(x))])
    ys = _picker([c for _, y, _ in ends for c in range(*space.span(y))])
    spans = [(*vals.span(x), phi) for x, _, phi in ends]
    owner = [k for k, (a, b, _) in enumerate(spans) for _ in range(a, b)]
    out = []
    for u in points:
        v, y = list(xs(u)), ys(u)
        for a, b, phi in map(spans.__getitem__, dict.fromkeys(itertools.compress(owner, y))):
            m = y[a:b] if phi is None else phi.apply(y[a:b])
            v[a:b] = map(mod, map(sub, v[a:b], m), vals.moduli[a:b])
        out.append(tuple(v))
    return out


def _is_identity(phi: Homomorphism) -> bool:
    return phi.source == phi.target and phi.matrix == tuple(phi.source.unit_rows())


def _map_slot(code: CodeSubgroup, slot: int, phi: Homomorphism) -> CodeSubgroup:
    """Image of a code under phi applied to one ambient factor."""
    amb = code.ambient
    lab = amb.labels[slot]
    a, b = amb.span(lab)
    rows = []
    for r in code.rows:
        mid = phi.apply(r[a:b])
        rows.append(r[:a] + mid + r[b:])
    factors = list(amb.factors)
    factors[slot] = (lab, phi.target)
    return CodeSubgroup(ProductSpace(factors), rows)


# -- normalization of general (non-normal) systems ----------------------------


@record
class GeneralSystem:
    """A behavioral system with variables of arbitrary degree."""

    variables: dict[str, tuple[Alphabet, str]]  # label -> (alphabet, "symbol"|"state")
    constraints: dict[str, tuple[tuple[str, ...], CodeSubgroup]]


def normalize(system: GeneralSystem) -> Realization:
    """Convert a general system into a normal realization of the same code.

    Variables of degree above the normal limit become equality constraints
    over replica state edges; degree-1 state variables are deleted by
    projecting their constraint.
    """
    occurrences: dict[str, list[tuple[str, int]]] = {v: [] for v in system.variables}
    for cl, (vars_, _) in system.constraints.items():
        for i, v in enumerate(vars_):
            if v not in occurrences:
                raise UnknownLabel(f"constraint {cl!r} uses unknown variable {v!r}")
            occurrences[v].append((cl, i))

    symbols: dict[str, Alphabet] = {}
    states: dict[str, StateVar] = {}
    renames: dict[tuple[str, int], str] = {}
    extra: dict[str, Constraint] = {}
    drop_slots: set[tuple[str, int]] = set()
    taken = set(system.variables)

    def replicate(v: str, alpha: Alphabet, lead: tuple) -> None:
        """One replica edge per occurrence of v, tied by an equality node
        over `lead` and the replicas."""
        replicas = []
        for t, slot in enumerate(occurrences[v]):
            lab = fresh_label(f"{v}:r{t}", taken, "+")
            replicas.append(lab)
            states[lab] = StateVar(alpha)
            renames[slot] = lab
        extra[fresh_label(f"eq:{v}", taken, "+")] = Constraint(
            (*lead, *replicas), equality_code(alpha, len(lead) + len(replicas)))

    for v, (alpha, kind) in system.variables.items():
        occ = occurrences[v]
        d = len(occ)
        if kind == "symbol":
            symbols[v] = alpha
            if d == 0:
                extra[fresh_label(f"free:{v}", taken, "+")] = Constraint(
                    (v,), full_subgroup(ProductSpace([(0, alpha)])))
            elif d >= 2:
                replicate(v, alpha, (v,))
        else:
            if d == 0:
                continue
            if d == 1:
                drop_slots.add(occ[0])
            elif d == 2:
                states[v] = StateVar(alpha)
            else:
                replicate(v, alpha, ())

    constraints: dict[str, Constraint] = {}
    for cl, (vars_, code) in system.constraints.items():
        keep = [i for i in range(len(vars_)) if (cl, i) not in drop_slots]
        if len(keep) < len(vars_):
            code = code.project([code.ambient.labels[i] for i in keep]).renamed(
                {code.ambient.labels[i]: t for t, i in enumerate(keep)})
        new_vars = tuple(
            renames.get((cl, i), vars_[i]) for i in keep
        )
        constraints[cl] = Constraint(new_vars, code)
    for lab in sorted(extra, key=sort_key):
        constraints[lab] = extra[lab]
    return Realization(symbols, states, constraints)


def equality_code(alpha: Alphabet, n: int) -> CodeSubgroup:
    """Repetition code of length n over one alphabet."""
    amb = ProductSpace([(i, alpha) for i in range(n)])
    return CodeSubgroup(amb, [e * n for e in alpha.unit_rows()])
