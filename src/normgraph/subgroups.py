"""Subgroups of finite abelian products in canonical generator-matrix form.

A CodeSubgroup lives in a ProductSpace whose coordinates carry mixed moduli
m_i.  Internally every coordinate is lifted into Z_M (M = lcm of the moduli)
by scaling with M/m_i; the Howell normal form of the lifted generator matrix
is the canonical representation, so two equal subgroups are bit-identical.
Only this module reads or writes lifted rows, and only it calls `zmod` and
`intmat`.  Every set operation is exact and makes at most one elimination:
`kernel_span(space, gens, target, values)`, {sum z_i gens_i : sum z_i
values_i = 0 in target}, a kernel, an intersection and an orthogonal are
the cut Howell form of lifted rows (values_i | gens_i).  By the Howell
property two reads make none: a projection onto a column prefix, and
`lift_prefix` there, use the rows that lead inside the prefix, and a
cross-section on a column suffix is the rows that lead inside it, cut; on
other columns the reordered rows are put in one form first.  A quotient
C/D reads the Hermite bases of the lattices L_C = {x in Z^n : x mod m in C}
and L_D off the two Howell forms, so its one elimination is the Smith form
of L_D in L_C's basis.  A Howell form over Z_(kM) of rows that are
multiples of k is k times the Howell form over Z_M of the rows divided by
k, which is how a result is read in a smaller lcm.

The reduction theory reads one quotient: C|J / C:J, the effective
alphabet at a set J of factors (`interface`).  Its natural map's graph is
the interface node (`QuotientMap.node`), and `restrict_merge` puts it in
place of a slot's alphabet inside a local code.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Iterator, Sequence
from operator import floordiv, mul

from . import zmod
from ._records import record
from .alphabets import (
    ENUMERATION_CAP,
    Alphabet,
    Element,
    ProductSpace,
)
from .errors import (
    AmbientMismatch,
    BadPartition,
    NotASubgroup,
    RowOutOfAmbient,
    TooLargeToEnumerate,
)
from .intmat import hermite_form, smith_form, solve_upper_triangular


class CodeSubgroup:
    """A subgroup of a ProductSpace, held as a canonical generator matrix."""

    __slots__ = ("ambient", "_rows", "_lifted", "_order", "_orthogonal")

    def __init__(self, ambient: ProductSpace, rows: Sequence[Sequence[int]]):
        """Canonicalize the subgroup generated by the given ambient rows."""
        self._read(ambient, zmod.howell_form(
            [list(map(mul, ambient.check_row(r), ambient.scales)) for r in rows],
            ambient.lcm_modulus, ambient.width))

    @classmethod
    def _from_howell(cls, ambient: ProductSpace, hf, k: int = 1) -> "CodeSubgroup":
        """The subgroup whose lifted rows, times k, are the Howell form hf
        over Z_(kM): no elimination."""
        sub = object.__new__(cls)
        sub._read(ambient, hf, k)
        return sub

    def _read(self, ambient: ProductSpace, hf, k: int = 1) -> None:
        self.ambient = ambient
        self._lifted = tuple(map(tuple, [[v // k for v in r] for r in hf] if k > 1 else hf))
        self._order = zmod.span_order(self._lifted, ambient.lcm_modulus)
        self._rows: tuple[Element, ...] | None = None
        self._orthogonal: CodeSubgroup | None = None

    @property
    def rows(self) -> tuple[Element, ...]:
        """The canonical generator matrix in ambient residues, unlifted on
        first use: most intermediate subgroups are read only when lifted."""
        if self._rows is None:
            # where every modulus is the lcm, the lifted rows are the residues
            amb = self.ambient
            self._rows = (self._lifted if amb.scales.count(1) == amb.width
                          else tuple(map(self._unlift, self._lifted)))
        return self._rows

    # -- unlifting from Z_M coordinates to ambient residues ------------------

    def _unlift(self, y: Sequence[int]) -> Element:
        return tuple(map(floordiv, y, self.ambient.scales))

    # -- basic queries --------------------------------------------------------

    @property
    def order(self) -> int:
        return self._order

    @property
    def is_trivial(self) -> bool:
        return self._order == 1

    @property
    def is_full(self) -> bool:
        return self._order == self.ambient.order

    def contains(self, x: Sequence[int]) -> bool:
        if len(x) != self.ambient.width:
            return False
        amb = self.ambient
        return zmod.member(list(map(mul, amb.reduce(x), amb.scales)), self._lifted,
                           amb.lcm_modulus)

    def contains_subgroup(self, other: "CodeSubgroup") -> bool:
        self._check_same_ambient(other)
        return all(self.contains(r) for r in other.rows)

    def columns(self, cap: int = ENUMERATION_CAP) -> Iterator[list[int]]:
        """Each coordinate's column of the `elements()` listing, one at a
        time; the order is checked against `cap` before any is built."""
        if self._order > cap:
            raise TooLargeToEnumerate(
                f"subgroup of order {self._order} exceeds cap {cap}")
        amb = self.ambient
        cols = zmod.span_columns(self._lifted, amb.lcm_modulus, amb.width)
        return (c if s == 1 else [y // s for y in c] for c, s in zip(cols, amb.scales))

    def elements(self, cap: int = ENUMERATION_CAP) -> Iterator[Element]:
        """Yield each element exactly once (chain coset decomposition)."""
        yield from zip(*self.columns(cap)) if self.ambient.width else [()]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CodeSubgroup)
                and self.ambient == other.ambient
                and self._lifted == other._lifted)

    def __hash__(self) -> int:
        return hash((self.ambient, self._lifted))

    def __repr__(self) -> str:
        return (f"CodeSubgroup(order={self._order}, "
                f"ambient_order={self.ambient.order}, rows={len(self.rows)})")

    def _check_same_ambient(self, other: "CodeSubgroup") -> None:
        if self.ambient != other.ambient:
            raise AmbientMismatch("subgroups live in different ambients")

    # -- set operations -------------------------------------------------------

    def sum(self, other: "CodeSubgroup") -> "CodeSubgroup":
        self._check_same_ambient(other)
        return CodeSubgroup(self.ambient, list(self.rows) + list(other.rows))

    def intersect(self, other: "CodeSubgroup") -> "CodeSubgroup":
        """Exact intersection via the relation module of the two generator sets."""
        self._check_same_ambient(other)
        M, n = self.ambient.lcm_modulus, self.ambient.width
        # x = z1*G1 lies in other iff z1*G1 - z2*G2 = 0 for some z2
        relations = list(self._lifted) + [[-v % M for v in r] for r in other._lifted]
        images = list(self._lifted) + [(0,) * n] * len(other._lifted)
        return self._solve(relations, n, M, images)

    def kernel(self, images: Sequence[Sequence[int]],
               target: ProductSpace) -> "CodeSubgroup":
        """Kernel of the homomorphism sending rows[i] to images[i] in target."""
        return kernel_span(self.ambient, self.rows, target, [*map(target.check_row, images)])

    def _solve(self, relations: Sequence[Sequence[int]], width: int, mod: int,
               images: Sequence[Sequence[int]]) -> "CodeSubgroup":
        """The subgroup of lifted elements {sum z_i images_i : sum z_i
        relations_i = 0 in Z_mod^width}; the images are lifted rows times
        mod/M.  One Howell form of the rows (relations_i | images_i)."""
        hf = zmod.kernel(relations.__getitem__, width, len(relations), mod, images)
        return CodeSubgroup._from_howell(self.ambient, hf,
                                         mod // self.ambient.lcm_modulus)

    def orthogonal(self) -> "CodeSubgroup":
        """Orthogonal subgroup under <x,y> = sum x_i y_i / m_i, in the same ambient.

        y is orthogonal iff sum_i g_i y_i = 0 in Z_M for every lifted row g,
        and only y_i mod m_i matters there: the kernel of the pairing map on
        the full group, whose unit rows lift to (M/m_i) e_i.  Made once per
        subgroup, so a realization and its dual share each local code's."""
        if self._orthogonal is None:
            n, lifted = self.ambient.width, self._lifted
            columns = [[row[i] for row in lifted] for i in range(n)]
            self._orthogonal = self._solve(columns, len(lifted), self.ambient.lcm_modulus,
                                           full_subgroup(self.ambient)._lifted)
        return self._orthogonal

    def project(self, labels: Sequence[Hashable]) -> "CodeSubgroup":
        """Projection onto the given factors (result ambient keeps their order).

        On a column prefix the rows leading inside it, truncated, are
        already the Howell form of the projection (the Howell property)."""
        cols = self.ambient.columns(labels)
        sub = self.ambient.subspace(labels)
        p = len(cols)
        if cols == list(range(p)):
            return CodeSubgroup._from_howell(
                sub, [r[:p] for r in self._lifted if any(r[:p])],
                self.ambient.lcm_modulus // sub.lcm_modulus)
        return CodeSubgroup(sub, [tuple(r[c] for c in cols) for r in self.rows])

    def cross_section(self, labels: Sequence[Hashable]) -> "CodeSubgroup":
        """Elements with zeros outside the given factors, restricted to them.

        On a column suffix the rows leading inside it, cut, are already its
        Howell form; elsewhere the rows with the others first are cut once."""
        amb, M = self.ambient, self.ambient.lcm_modulus
        cols = amb.columns(labels)
        cut = amb.width - len(cols)
        if cols == list(range(cut, amb.width)):
            hf = [r[cut:] for r in self._lifted if not any(r[:cut])]
        else:
            taken = set(cols)
            order = [c for c in range(amb.width) if c not in taken] + cols
            hf = zmod.howell_form([[r[c] for c in order] for r in self._lifted],
                                  M, amb.width, cut)
        sub = amb.subspace(labels)
        return CodeSubgroup._from_howell(sub, hf, M // sub.lcm_modulus)

    def lift_prefix(self, labels: Sequence[Hashable], values: Sequence[int]) -> Element | None:
        """Some element (values, x) of the subgroup, or None, for values of
        the leading factors `labels` in ambient order.  Lifted, they reduce
        to (0, -x) against the rows leading inside those columns."""
        amb, M = self.ambient, self.ambient.lcm_modulus
        cols = amb.columns(labels)
        p = len(cols)
        if cols != list(range(p)):
            raise BadPartition("lift_prefix reads values of the leading factors only")
        if len(values) != p or not all(0 <= t < m for t, m in zip(values, amb.moduli)):
            raise RowOutOfAmbient(f"values {tuple(values)} do not fit factors {list(labels)}")
        v = [t * s for t, s in zip(values, amb.scales)] + [0] * (amb.width - p)
        v = zmod.reduce_vector(v, self._lifted, M, p)
        if any(v[:p]):
            return None
        return (*values, *[-x % M // s for x, s in zip(v[p:], amb.scales[p:])])

    def permuted(self, new_labels: Sequence[Hashable]) -> "CodeSubgroup":
        """Same subgroup with ambient factors reordered as given."""
        if set(new_labels) != set(self.ambient.labels) or len(new_labels) != len(
                self.ambient.labels):
            raise BadPartition("permutation must list every factor label once")
        cols: list[int] = []
        factors = []
        for lab in new_labels:
            a, b = self.ambient.span(lab)
            cols.extend(range(a, b))
            factors.append((lab, self.ambient.alphabet(lab)))
        amb = ProductSpace(factors)
        return CodeSubgroup(amb, [tuple(r[c] for c in cols) for r in self.rows])

    def renamed(self, mapping: dict[Hashable, Hashable]) -> "CodeSubgroup":
        """Same subgroup with factor labels renamed through the mapping.

        A Howell form depends on the moduli and the column order, not on
        labels, so the canonical rows are reused as they are.
        """
        factors = [(mapping.get(lab, lab), alpha)
                   for lab, alpha in self.ambient.factors]
        return CodeSubgroup._from_howell(ProductSpace(factors), self._lifted)

    # -- quotients -------------------------------------------------------------

    def quotient_by(self, sub: "CodeSubgroup") -> "QuotientMap":
        """Structure of self/sub as an invariant-factor group with maps."""
        return QuotientMap(self, sub)

    def interface(self, labels: Sequence[Hashable]) -> "QuotientMap":
        """The effective alphabet C|J / C:J at the labeled factors J.  Its
        order is that of the factors' joint alphabet iff C is trim and
        proper at J, and its `node` is the interface node at J."""
        return self.project(labels).quotient_by(self.cross_section(labels))


class QuotientMap:
    """Invariant-factor structure of C/D with natural map and a section.

    C/D is L_C / L_D for the lattices L = {x in Z^n : x mod m in the
    subgroup}, whose Hermite bases are read off the canonical Howell forms.
    With D's basis in C's basis coordinates, Smith form S = U*Q*V gives the
    invariant factors f_i on the diagonal: quotient coordinate i of
    w * basis_C is (w*V)_i mod f_i, and row i of Vinv * basis_C is a coset
    representative of the i-th unit.  The quotient alphabet keeps only the
    nontrivial invariant factors f_i > 1 in divisibility order, which makes
    the alphabet of a quotient a canonical first-class Alphabet.
    """

    def __init__(self, group: CodeSubgroup, sub: CodeSubgroup):
        group._check_same_ambient(sub)
        self.group = group
        self.sub = sub
        amb = group.ambient
        basis_c = hermite_form(group._lifted, amb.moduli, amb.scales)
        basis_d = hermite_form(sub._lifted, amb.moduli, amb.scales)
        try:
            q = [solve_upper_triangular(row, basis_c) for row in basis_d]
        except ArithmeticError:
            raise NotASubgroup(
                "quotient requires sub to be contained in self") from None
        s, v, vinv = smith_form(q)
        kept = [i for i in range(len(s)) if s[i][i] > 1]
        self.alphabet = Alphabet("group", tuple(s[i][i] for i in kept))
        self._basis_c = basis_c
        self._v = [[r[i] % s[i][i] for r in v] for i in kept]
        self._vinv = [vinv[i] for i in kept]

    @property
    def order(self) -> int:
        return self.alphabet.order

    def project(self, x: Sequence[int]) -> Element:
        """Natural map C -> C/D in quotient coordinates."""
        if not self._v:
            return ()
        w = solve_upper_triangular(x, self._basis_c)
        return tuple(sum(map(mul, w, col)) % f
                     for col, f in zip(self._v, self.alphabet.moduli))

    def lift(self, q: Sequence[int]) -> Element:
        """A coset representative for quotient coordinates q (a section)."""
        w = [sum(map(mul, col, q)) for col in zip(*self._vinv)]
        x = [sum(map(mul, w, col)) for col in zip(*self._basis_c)]
        return self.group.ambient.reduce(x)

    def node(self, tag: Hashable) -> CodeSubgroup:
        """The graph {(x, project(x)) : x in C} of the natural map, over C's
        factors and (tag, alphabet)."""
        amb = ProductSpace(list(self.group.ambient.factors) + [(tag, self.alphabet)])
        return CodeSubgroup(amb, [tuple(r) + self.project(r) for r in self.group.rows])


# -- module-level constructors and helpers ------------------------------------


def kernel_span(space: ProductSpace, gens: Sequence[Iterable[int]],
                target: ProductSpace, values: Sequence[Iterable[int]]) -> CodeSubgroup:
    """The subgroup {sum z_i gens_i : sum z_i values_i = 0 in target} of
    space, for residue rows gens_i of space and values_i of target, each
    read once: the rows (values_i | gens_i), lifted into Z_L for L the lcm
    of both lcm moduli (in Z_2 -> Z_4, x -> 2x, 4 does not divide 2), in
    one cut Howell form, whose rows with a zero left block carry the answer."""
    if len(values) != len(gens):
        raise ValueError(f"{len(values)} values for {len(gens)} generators")
    L = math.lcm(space.lcm_modulus, target.lcm_modulus)
    k = L // space.lcm_modulus
    value_scales = [L // d for d in target.moduli]
    gen_scales = [s * k for s in space.scales]
    rows = [[*map(mul, y, value_scales), *map(mul, g, gen_scales)]
            for y, g in zip(values, gens)]
    return CodeSubgroup._from_howell(
        space, zmod.howell_form(rows, L, target.width + space.width, target.width), k)


def zero_subgroup(ambient: ProductSpace) -> CodeSubgroup:
    return CodeSubgroup(ambient, [])


def full_subgroup(ambient: ProductSpace) -> CodeSubgroup:
    # the lifted unit rows (M/m_i) e_i are already in Howell form
    return CodeSubgroup._from_howell(
        ambient, [map(mul, e, ambient.scales) for e in ambient.unit_rows()])


def product_subgroup(a: CodeSubgroup, b: CodeSubgroup) -> CodeSubgroup:
    """External direct product in the concatenated ambient."""
    shared = set(a.ambient.labels) & set(b.ambient.labels)
    if shared:
        raise AmbientMismatch(f"product factors share labels {shared}")
    amb = ProductSpace(list(a.ambient.factors) + list(b.ambient.factors))
    wa, wb = a.ambient.width, b.ambient.width
    rows = [tuple(r) + (0,) * wb for r in a.rows]
    rows += [(0,) * wa + tuple(r) for r in b.rows]
    return CodeSubgroup(amb, rows)


def cylinder(ambient: ProductSpace, parts: dict[Hashable, CodeSubgroup]) -> CodeSubgroup:
    """Product of given per-factor subgroups with full groups elsewhere.

    Each value in parts must be a subgroup whose ambient is the single
    corresponding factor of the big ambient.  The parts' lifted rows, scaled
    into Z_M, and the lifted unit rows elsewhere are block-diagonal in
    column order, so they already are the Howell form: no elimination.
    """
    hf: list[list[int]] = []
    n, M = ambient.width, ambient.lcm_modulus
    for lab, alpha in ambient.factors:
        a, b = ambient.span(lab)
        sub = parts[lab] if lab in parts else full_subgroup(ProductSpace([(lab, alpha)]))
        if sub.ambient.moduli != alpha.moduli:
            raise AmbientMismatch(f"cylinder part at {lab!r} has wrong alphabet")
        k = M // sub.ambient.lcm_modulus
        hf += [[0] * a + [v * k for v in r] + [0] * (n - b) for r in sub._lifted]
    return CodeSubgroup._from_howell(ambient, hf)


def restrict_merge(code: CodeSubgroup, merges: dict[int, QuotientMap]) -> CodeSubgroup:
    """Restrict each slot in `merges` to its quotient's group, in one
    intersection, and merge that slot's values into its quotient classes."""
    amb = code.ambient
    restricted = code.intersect(cylinder(
        amb, {amb.labels[slot]: quot.group for slot, quot in merges.items()}))
    factors = list(amb.factors)
    for slot, quot in merges.items():
        factors[slot] = (amb.labels[slot], quot.alphabet)
    spans = [amb.span(lab) for lab in amb.labels]
    rows = [sum((merges[i].project(row[a:b]) if i in merges else row[a:b]
                 for i, (a, b) in enumerate(spans)), ())
            for row in restricted.rows]
    return CodeSubgroup(ProductSpace(factors), rows)


@record
class FtspDecomposition:
    """Two interface nodes and the quotient isomorphism of a subdirect product."""

    node_a: CodeSubgroup
    iso_pairs: CodeSubgroup
    node_b: CodeSubgroup
    quot_a: QuotientMap
    quot_b: QuotientMap


def ftsp_decompose(code: CodeSubgroup, part_a: Sequence[Hashable],
                   part_b: Sequence[Hashable]) -> FtspDecomposition:
    """Interface-node decomposition of C <= A x B.

    node_a is {(a, a + C:A)} over A x (C|A / C:A), node_b likewise for B,
    and iso_pairs is the graph of the quotient isomorphism
    C|A/C:A <-> C|B/C:B on quotient coordinates.
    """
    labels = list(code.ambient.labels)
    if sorted(map(repr, list(part_a) + list(part_b))) != sorted(map(repr, labels)):
        raise BadPartition("part_a and part_b must partition the ambient factors")
    quot_a, quot_b = code.interface(part_a), code.interface(part_b)
    node_a, node_b = quot_a.node(("quot", "a")), quot_b.node(("quot", "b"))
    pair_amb = ProductSpace([(("quot", "a"), quot_a.alphabet),
                             (("quot", "b"), quot_b.alphabet)])
    pair_rows = []
    cols_a = code.ambient.columns(part_a)
    cols_b = code.ambient.columns(part_b)
    for r in code.rows:
        ra = tuple(r[c] for c in cols_a)
        rb = tuple(r[c] for c in cols_b)
        pair_rows.append(quot_a.project(ra) + quot_b.project(rb))
    iso_pairs = CodeSubgroup(pair_amb, pair_rows)
    return FtspDecomposition(node_a, iso_pairs, node_b, quot_a, quot_b)
