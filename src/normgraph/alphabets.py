"""Finite abelian value domains: vector spaces GF(p)^k and products of cyclic groups.

Every alphabet is described by its tuple of coordinate moduli; a GF(p)^k
alphabet is the special case where all k moduli equal the prime p.  Elements
are plain tuples of canonical residues.  A ProductSpace is an ordered, labeled
concatenation of alphabets and is the ambient for every subgroup in the
library.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Hashable, Iterator, Sequence
from fractions import Fraction
from functools import reduce
from operator import mul

from ._records import record
from .errors import RowOutOfAmbient, TooLargeToEnumerate, UnknownLabel

ENUMERATION_CAP = 2**20

Element = tuple[int, ...]


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first 12 prime bases, which is exact for every
    n < 3.18e23 (Sorenson & Webster 2017), so for every field modulus."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _Moduli:
    """Arithmetic shared by alphabets and product spaces: both are
    products of cyclic groups Z_m, one per entry of `moduli`."""

    moduli: tuple[int, ...]

    @property
    def width(self) -> int:
        return len(self.moduli)

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

    @property
    def zero(self) -> Element:
        return (0,) * self.width

    def unit_rows(self) -> list[Element]:
        """The generators e_0, ..., e_(width-1), one per coordinate."""
        w = self.width
        return [(0,) * i + (1,) + (0,) * (w - 1 - i) for i in range(w)]

    def reduce(self, x: Sequence[int]) -> Element:
        """Reduce an integer tuple to canonical residues."""
        if len(x) != self.width:
            raise ValueError(f"expected {self.width} coordinates, got {len(x)}")
        return tuple(v % m for v, m in zip(x, self.moduli))

    def add(self, x: Sequence[int], y: Sequence[int]) -> Element:
        return tuple((a + b) % m for a, b, m in zip(x, y, self.moduli))

    def neg(self, x: Sequence[int]) -> Element:
        return tuple((-a) % m for a, m in zip(x, self.moduli))

    def elements(self) -> Iterator[Element]:
        """All elements in lexicographic coordinate order."""
        if self.order > ENUMERATION_CAP:
            raise TooLargeToEnumerate(f"{self._noun} of order {self.order}")
        return itertools.product(*(range(m) for m in self.moduli))


@record(frozen=True)
class Alphabet(_Moduli):
    """A finite abelian alphabet, either GF(p)^k or Z_{m1} x ... x Z_{mr}.

    kind is "field" or "group"; moduli is the per-coordinate modulus tuple
    ([p]*k for the field kind).  Equality is by (kind, moduli), so GF(2)^1
    and Z_2 are distinct alphabets of the same underlying group.
    """

    kind: str
    moduli: tuple[int, ...]
    _noun = "alphabet"

    def __post_init__(self) -> None:
        if self.kind not in ("field", "group"):
            raise ValueError(f"unknown alphabet kind {self.kind!r}")
        if self.kind == "field":
            if len(set(self.moduli)) > 1:
                raise ValueError("field alphabet must have a single prime modulus")
            if self.moduli and self.moduli[0] >= 2**64:
                raise ValueError(f"field modulus {self.moduli[0]} is not below 2^64")
            if self.moduli and not _is_prime(self.moduli[0]):
                raise ValueError(f"{self.moduli[0]} is not prime")
        else:
            for m in self.moduli:
                if m < 2:
                    raise ValueError(f"cyclic modulus {m} < 2")

    def index(self, x: Sequence[int]) -> int:
        """Rank of x in the lexicographic enumeration (mixed-radix value)."""
        idx = 0
        for v, m in zip(x, self.moduli):
            idx = idx * m + v
        return idx

    def element_at(self, idx: int) -> Element:
        coords = []
        for m in reversed(self.moduli):
            coords.append(idx % m)
            idx //= m
        return tuple(reversed(coords))

    def __repr__(self) -> str:
        if self.kind == "field":
            p = self.moduli[0] if self.moduli else 0
            return f"GF({p})^{self.width}"
        return "Z" + "x".join(f"_{m}" for m in self.moduli) if self.moduli else "Z(trivial)"


def vector_space(p: int, k: int) -> Alphabet:
    return Alphabet("field", (p,) * k)


def cyclic_group(*moduli: int) -> Alphabet:
    return Alphabet("group", tuple(moduli))


class ProductSpace(_Moduli):
    """Ordered labeled direct product of alphabets; the ambient of a subgroup.

    Labels are arbitrary hashable values (strings at the API surface, small
    tuples internally); they must be unique.  Coordinates of the product are
    the concatenated coordinates of the factors, in order.
    """

    _noun = "ambient"

    def __init__(self, factors: Sequence[tuple[Hashable, Alphabet]]):
        self.labels: tuple[Hashable, ...] = tuple(lab for lab, _ in factors)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate factor labels in product space")
        self.factors: tuple[tuple[Hashable, Alphabet], ...] = tuple(factors)
        self.moduli: tuple[int, ...] = tuple(
            m for _, alpha in factors for m in alpha.moduli
        )
        self.lcm_modulus: int = reduce(math.lcm, self.moduli, 1)
        # M // m_i: the factor that lifts coordinate i into Z_M
        self.scales: tuple[int, ...] = tuple(self.lcm_modulus // m for m in self.moduli)
        self._ranges: dict[Hashable, tuple[int, int]] = {}
        pos = 0
        for lab, alpha in factors:
            self._ranges[lab] = (pos, pos + alpha.width)
            pos += alpha.width

    def alphabet(self, label: Hashable) -> Alphabet:
        for lab, alpha in self.factors:
            if lab == label:
                return alpha
        raise UnknownLabel(f"no factor labeled {label!r}")

    def span(self, label: Hashable) -> tuple[int, int]:
        """Coordinate range [start, stop) of one factor."""
        try:
            return self._ranges[label]
        except KeyError:
            raise UnknownLabel(f"no factor labeled {label!r}") from None

    def columns(self, labels: Sequence[Hashable]) -> list[int]:
        """Flat coordinate indices of the given factors, in ambient order."""
        labels = tuple(labels)
        if labels == self.labels[:len(labels)]:  # the leading factors, in order
            return list(range(self.span(labels[-1])[1] if labels else 0))
        return [c for a, b in sorted(map(self.span, dict.fromkeys(labels)))
                for c in range(a, b)]

    def subspace(self, labels: Sequence[Hashable]) -> "ProductSpace":
        """Sub-product of the given factors, keeping ambient order."""
        wanted = set(labels)
        for lab in labels:
            if lab not in self._ranges:
                raise UnknownLabel(f"no factor labeled {lab!r}")
        return ProductSpace([(l, a) for l, a in self.factors if l in wanted])

    def check_row(self, x: Sequence[int]) -> Element:
        if len(x) != self.width:
            raise RowOutOfAmbient(
                f"row has {len(x)} coordinates, ambient has {self.width}"
            )
        for v, m in zip(x, self.moduli):
            if not 0 <= v < m:
                raise RowOutOfAmbient(f"coordinate {v} out of range [0, {m})")
        return tuple(x)

    def get(self, x: Sequence[int], label: Hashable) -> Element:
        a, b = self.span(label)
        return tuple(x[a:b])

    def pair(self, x: Sequence[int], y: Sequence[int]) -> Fraction:
        """Duality pairing <x, y> = sum x_i y_i / m_i as a residue in R/Z."""
        return Fraction(self.pair_nums(x, y), self.lcm_modulus)

    def pair_nums(self, x: Sequence[int], y: Sequence[int]) -> int:
        """Numerator of the pairing over the common denominator lcm(moduli)."""
        return sum(map(mul, map(mul, x, y), self.scales)) % self.lcm_modulus

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProductSpace) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        inner = ", ".join(f"{lab!r}: {alpha!r}" for lab, alpha in self.factors)
        return f"ProductSpace({inner})"


def sort_key(label: Hashable):
    """Deterministic ordering key for mixed-type factor labels."""
    if isinstance(label, str):
        return (0, label)
    if isinstance(label, bool) or isinstance(label, int):
        return (1, int(label))
    if isinstance(label, tuple):
        return (2, tuple(sort_key(x) for x in label))
    return (3, repr(label))
