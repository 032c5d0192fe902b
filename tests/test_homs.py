"""Homomorphism and adjoint checks, exhaustive on small alphabets."""

from __future__ import annotations

import random

import pytest

from normgraph.alphabets import ProductSpace, cyclic_group, vector_space
from normgraph.homs import Homomorphism, identity_map, negation_map
from tests.test_one_elimination import count_howell

Z4 = cyclic_group(4)


def pairing_holds(phi):
    """<adj(y), x> == <y, phi(x)> for all x, y (exhaustive)."""
    adj = phi.adjoint()
    src_space = ProductSpace([("s", phi.source)])
    tgt_space = ProductSpace([("t", phi.target)])
    for x in phi.source.elements():
        for y in phi.target.elements():
            lhs = src_space.pair(adj(y), x)
            rhs = tgt_space.pair(y, phi(x))
            if lhs != rhs:
                return False
    return True


def test_adjoint_identity_is_identity():
    phi = identity_map(vector_space(2, 2))
    assert phi.adjoint() == phi
    assert pairing_holds(phi)


def test_adjoint_negation_on_z4():
    phi = negation_map(Z4)
    assert phi.adjoint() == phi
    assert pairing_holds(phi)


def test_adjoint_doubling_on_z4():
    phi = Homomorphism(Z4, Z4, ((2,),))
    adj = phi.adjoint()
    assert adj.matrix == ((2,),)
    assert pairing_holds(phi)


def test_adjoint_is_transpose_for_fields():
    rng = random.Random(61)
    for p in (2, 3, 5):
        src = vector_space(p, 2)
        tgt = vector_space(p, 3)
        mat = tuple(tuple(rng.randrange(p) for _ in range(3)) for _ in range(2))
        phi = Homomorphism(src, tgt, mat)
        adj = phi.adjoint()
        assert adj.matrix == tuple(zip(*mat))
        assert pairing_holds(phi)


def test_adjoint_mixed_moduli():
    rng = random.Random(67)
    src = cyclic_group(2, 4)
    tgt = cyclic_group(4, 2)
    for _ in range(10):
        mat = []
        for c in src.moduli:
            row = []
            for d in tgt.moduli:
                # pick an entry defining a homomorphism: c*a = 0 mod d
                step = d // __import__("math").gcd(c, d)
                row.append(step * rng.randrange(d // step))
            mat.append(tuple(row))
        phi = Homomorphism(src, tgt, tuple(mat))
        assert pairing_holds(phi)
        assert phi.adjoint().adjoint().matrix == phi.matrix


def test_ill_defined_map_rejected():
    with pytest.raises(ValueError):
        Homomorphism(cyclic_group(2), Z4, ((1,),))


def test_kernel_image_iso_inverse():
    phi = Homomorphism(Z4, Z4, ((2,),))
    assert sorted(phi.kernel().elements()) == [(0,), (2,)]
    assert sorted(phi.image().elements()) == [(0,), (2,)]
    assert not phi.is_isomorphism

    tri = Homomorphism(Z4, Z4, ((3,),))
    assert tri.is_isomorphism
    inv = tri.inverse()
    for x in Z4.elements():
        assert inv(tri(x)) == x

    rng = random.Random(71)
    v = vector_space(3, 2)
    while True:
        mat = tuple(tuple(rng.randrange(3) for _ in range(2)) for _ in range(2))
        cand = Homomorphism(v, v, mat)
        if cand.is_isomorphism:
            break
    inv = cand.inverse()
    for x in v.elements():
        assert inv(cand(x)) == x


def test_inverse_makes_two_howell_forms(monkeypatch):
    """The kernel that `is_isomorphism` takes and the graph, target first,
    whose prefix reads give the preimages: 2 forms at any width, not one
    more per unit row of the target."""
    z12 = cyclic_group(12)
    mixed = cyclic_group(2, 4)
    for phi in (Homomorphism(z12, z12, ((5,),)),
                Homomorphism(mixed, mixed, ((1, 2), (1, 3)))):
        assert phi.is_isomorphism
        inverses = []
        assert count_howell(monkeypatch, lambda: inverses.append(phi.inverse())) == 2
        for x in phi.source.elements():
            assert inverses[0](phi(x)) == x


def test_compose():
    a = Homomorphism(Z4, Z4, ((3,),))
    b = Homomorphism(Z4, Z4, ((2,),))
    ab = b.compose(a)  # b after a
    for x in Z4.elements():
        assert ab(x) == b(a(x))
