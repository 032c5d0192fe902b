"""Alphabets, product spaces, and the duality pairing."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from normgraph.alphabets import (
    ProductSpace,
    cyclic_group,
    vector_space,
)
from normgraph.errors import RowOutOfAmbient, UnknownLabel


def test_alphabet_orders_and_enumeration():
    v = vector_space(3, 2)
    assert v.order == 9
    assert list(v.elements())[:4] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    g = cyclic_group(2, 4)
    assert g.order == 8
    for i, x in enumerate(g.elements()):
        assert g.index(x) == i
        assert g.element_at(i) == x


def test_alphabet_validation():
    with pytest.raises(ValueError):
        vector_space(4, 1)  # not prime
    with pytest.raises(ValueError):
        cyclic_group(1)
    assert vector_space(2, 0).order == 1


def test_product_space_layout():
    ps = ProductSpace([("a", vector_space(2, 2)), ("b", cyclic_group(3))])
    assert ps.moduli == (2, 2, 3)
    assert ps.span("b") == (2, 3)
    assert ps.columns(["b", "a"]) == [0, 1, 2]
    assert ps.get((1, 0, 2), "b") == (2,)
    with pytest.raises(UnknownLabel):
        ps.span("c")
    with pytest.raises(RowOutOfAmbient):
        ps.check_row((0, 0, 3))


def test_check_row_rejects_as_the_coordinate_loop_does():
    """In-range rows pass as they are; every rejection, NaN included, names
    the first bad coordinate, and a non-number raises TypeError."""
    ps = ProductSpace([("a", vector_space(2, 2)), ("b", cyclic_group(3))])
    assert ps.check_row([1, 0, 2]) == (1, 0, 2)
    assert ps.check_row((True, 0, 2.0)) == (True, 0, 2.0)
    for row, msg in [((0, 0, 3), "coordinate 3 out of range [0, 3)"),
                     ((0, -1, 0), "coordinate -1 out of range [0, 2)"),
                     ((math.nan, 0, 0), "coordinate nan out of range [0, 2)"),
                     ((0, 2, math.nan), "coordinate 2 out of range [0, 2)"),
                     ((0, 0, math.inf), "coordinate inf out of range [0, 3)"),
                     ((5, "x", 0), "coordinate 5 out of range [0, 2)"),
                     ((0, 0), "row has 2 coordinates, ambient has 3")]:
        with pytest.raises(RowOutOfAmbient) as err:
            ps.check_row(row)
        assert str(err.value) == msg
    with pytest.raises(TypeError):
        ps.check_row((0, "x", 0))


def test_pairing_bihomomorphic_exhaustive():
    rng = random.Random(163)
    for _ in range(10):
        ps = ProductSpace([
            (0, rng.choice([vector_space(2, 1), cyclic_group(4), cyclic_group(6)])),
            (1, rng.choice([vector_space(3, 1), cyclic_group(2)])),
        ])
        elems = list(ps.elements())
        zero = ps.zero
        for x in elems[:12]:
            assert ps.pair(zero, x) == 0
            assert ps.pair(x, zero) == 0
        for _ in range(40):
            x = rng.choice(elems)
            y = rng.choice(elems)
            z = rng.choice(elems)
            lhs = ps.pair(ps.add(x, y), z)
            rhs = (ps.pair(x, z) + ps.pair(y, z)) % 1
            assert lhs == rhs


def test_pairing_matches_field_dot_product():
    ps = ProductSpace([(0, vector_space(3, 2))])
    for x in ps.elements():
        for y in ps.elements():
            dot = sum(a * b for a, b in zip(x, y)) % 3
            assert ps.pair(x, y) == Fraction(dot, 3)
