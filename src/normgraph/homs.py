"""Homomorphisms between finite abelian alphabets, with adjoints.

A map acts on row tuples: phi(x) = x @ matrix, reduced modulo the target
moduli.  The adjoint is the unique map with <adj(y), x> = <y, phi(x)> under
the coordinate-wise self-dual pairing; for vector-space alphabets over one
prime it is the transpose.
"""

from __future__ import annotations

from collections.abc import Sequence

from ._records import record
from .alphabets import Alphabet, Element, ProductSpace
from .errors import AlphabetMismatch
from .subgroups import CodeSubgroup, full_subgroup


@record(frozen=True)
class Homomorphism:
    source: Alphabet
    target: Alphabet
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.matrix) != self.source.width:
            raise ValueError("matrix must have one row per source coordinate")
        reduced = tuple(
            tuple(v % m for v, m in zip(row, self.target.moduli))
            for row in self.matrix
        )
        object.__setattr__(self, "matrix", reduced)
        for i, c in enumerate(self.source.moduli):
            for j, d in enumerate(self.target.moduli):
                if (c * self.matrix[i][j]) % d:
                    raise ValueError(
                        f"matrix entry ({i},{j}) does not define a homomorphism")

    def apply(self, x: Sequence[int]) -> Element:
        if len(x) != self.source.width:
            raise AlphabetMismatch("argument has wrong width")
        return tuple(
            sum(xi * row[j] for xi, row in zip(x, self.matrix)) % m
            for j, m in enumerate(self.target.moduli)
        )

    def __call__(self, x: Sequence[int]) -> Element:
        return self.apply(x)

    def compose(self, inner: "Homomorphism") -> "Homomorphism":
        """self after inner."""
        if inner.target != self.source:
            raise AlphabetMismatch("composition alphabets do not chain")
        rows = [self.apply(row) for row in inner.matrix]
        return Homomorphism(inner.source, self.target, tuple(rows))

    def negated(self) -> "Homomorphism":
        rows = tuple(
            tuple(-v % m for v, m in zip(row, self.target.moduli))
            for row in self.matrix
        )
        return Homomorphism(self.source, self.target, rows)

    def adjoint(self) -> "Homomorphism":
        """Adjoint map target -> source under the self-dual identification."""
        rows = []
        for j, d in enumerate(self.target.moduli):
            row = []
            for i, c in enumerate(self.source.moduli):
                row.append(((self.matrix[i][j] * c) // d) % c if c else 0)
            rows.append(tuple(row))
        return Homomorphism(self.target, self.source, tuple(rows))

    def kernel(self) -> CodeSubgroup:
        source = full_subgroup(ProductSpace([(("h", "src"), self.source)]))
        target = ProductSpace([(("h", "tgt"), self.target)])
        return source.kernel([self.apply(r) for r in source.rows], target)

    def image(self) -> CodeSubgroup:
        amb = ProductSpace([(("h", "tgt"), self.target)])
        return CodeSubgroup(amb, [self.apply(e) for e in self.source.unit_rows()])

    @property
    def is_isomorphism(self) -> bool:
        return (self.source.order == self.target.order
                and self.kernel().is_trivial)

    def inverse(self) -> "Homomorphism":
        """The inverse, read off the graph {(phi(x), x)}, target first: each
        preimage of a target unit row is a prefix lift.  All of them lift
        iff phi is onto, which at equal orders means bijective."""
        if self.source.order == self.target.order:
            amb = ProductSpace([(("h", "tgt"), self.target), (("h", "src"), self.source)])
            g = CodeSubgroup(amb, [self.apply(e) + e for e in self.source.unit_rows()])
            w = self.target.width
            lifts = [g.lift_prefix([("h", "tgt")], e) for e in self.target.unit_rows()]
            if None not in lifts:
                return Homomorphism(self.target, self.source, tuple(x[w:] for x in lifts))
        raise ValueError("only isomorphisms can be inverted")


def identity_map(alpha: Alphabet) -> Homomorphism:
    return Homomorphism(alpha, alpha, tuple(alpha.unit_rows()))


def negation_map(alpha: Alphabet) -> Homomorphism:
    # one map: `Homomorphism` reduces each -1 to m - 1
    return Homomorphism(alpha, alpha, tuple(tuple(-v for v in e) for e in alpha.unit_rows()))
