"""Subgroup calculus vs exhaustive enumeration oracles."""

from __future__ import annotations

import math
import random

import pytest

from normgraph import subgroups, zmod
from normgraph.alphabets import ProductSpace, cyclic_group, vector_space
from normgraph.errors import AmbientMismatch, NotASubgroup, RowOutOfAmbient
from normgraph.subgroups import (
    CodeSubgroup,
    QuotientMap,
    cylinder,
    ftsp_decompose,
    full_subgroup,
    product_subgroup,
    zero_subgroup,
)

GF2 = vector_space(2, 1)
GF3 = vector_space(3, 1)
Z4 = cyclic_group(4)


def space(*alphas):
    return ProductSpace([(i, a) for i, a in enumerate(alphas)])


def close(ambient, rows):
    """Brute-force subgroup closure (independent of the Howell engine)."""
    seen = {ambient.zero}
    frontier = [ambient.zero]
    while frontier:
        x = frontier.pop()
        for r in rows:
            y = ambient.add(x, r)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def random_subgroup(rng, ambient, max_gens=3):
    rows = [
        tuple(rng.randrange(m) for m in ambient.moduli)
        for _ in range(rng.randrange(0, max_gens + 1))
    ]
    return CodeSubgroup(ambient, rows), close(ambient, rows)


def random_ambient(rng, max_width=3):
    pool = [GF2, GF3, Z4, cyclic_group(2), cyclic_group(6), vector_space(2, 2)]
    return space(*(rng.choice(pool) for _ in range(rng.randrange(1, max_width + 1))))


def test_canonicalize_worked_examples():
    amb = space(vector_space(2, 3))
    c = CodeSubgroup(amb, [(1, 1, 0), (0, 1, 1)])
    assert c.order == 4
    assert set(c.elements()) == close(amb, [(1, 1, 0), (0, 1, 1)])
    dup = CodeSubgroup(amb, [(1, 1, 1), (1, 1, 1)])
    assert dup.rows == ((1, 1, 1),)
    z4 = CodeSubgroup(space(Z4), [(2,)])
    assert set(z4.elements()) == {(0,), (2,)}
    assert z4.order == 2


def test_row_out_of_ambient():
    with pytest.raises(RowOutOfAmbient):
        CodeSubgroup(space(vector_space(2, 3)), [(2, 0, 0)])


def test_orthogonal_worked_examples():
    amb = space(vector_space(2, 3))
    rep = CodeSubgroup(amb, [(1, 1, 1)])
    assert set(rep.orthogonal().elements()) == {
        (0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert full_subgroup(amb).orthogonal().is_trivial
    two = CodeSubgroup(space(Z4), [(2,)])
    assert set(two.orthogonal().elements()) == {(0,), (2,)}


def test_orthogonal_against_pairing_oracle():
    rng = random.Random(23)
    for _ in range(40):
        amb = random_ambient(rng)
        sub, elems = random_subgroup(rng, amb)
        perp = sub.orthogonal()
        brute = {
            y for y in amb.elements()
            if all(amb.pair_nums(x, y) == 0 for x in elems)
        }
        assert set(perp.elements()) == brute
        assert perp.order * sub.order == amb.order
        assert perp.orthogonal() == sub


def test_project_cross_section_oracle():
    rng = random.Random(29)
    for _ in range(40):
        amb = random_ambient(rng, max_width=3)
        if len(amb.factors) < 2:
            continue
        sub, elems = random_subgroup(rng, amb)
        k = rng.randrange(1, len(amb.factors))
        part = list(amb.labels[:k])
        cols = amb.columns(part)
        proj = sub.project(part)
        cross = sub.cross_section(part)
        proj_brute = {tuple(x[c] for c in cols) for x in elems}
        other = [c for c in range(amb.width) if c not in cols]
        cross_brute = {
            tuple(x[c] for c in cols)
            for x in elems if all(x[c] == 0 for c in other)
        }
        assert set(proj.elements()) == proj_brute
        assert set(cross.elements()) == cross_brute
        assert cross.contains_subgroup(cross) and proj.contains_subgroup(cross)


def test_projection_cross_section_duality():
    rng = random.Random(31)
    for _ in range(40):
        amb = random_ambient(rng)
        if len(amb.factors) < 2:
            continue
        sub, _ = random_subgroup(rng, amb)
        part = list(amb.labels[:1])
        lhs = sub.cross_section(part).orthogonal()
        rhs = sub.orthogonal().project(part)
        assert lhs == rhs


def test_sum_intersect_oracle_and_duality():
    rng = random.Random(37)
    for _ in range(40):
        amb = random_ambient(rng)
        c1, e1 = random_subgroup(rng, amb)
        c2, e2 = random_subgroup(rng, amb)
        s = c1.sum(c2)
        i = c1.intersect(c2)
        assert set(s.elements()) == close(amb, list(e1) + list(e2))
        assert set(i.elements()) == (e1 & e2)
        assert s.orthogonal() == c1.orthogonal().intersect(c2.orthogonal())
        assert c1.intersect(c1) == c1


def test_sum_intersect_worked_examples():
    amb = space(vector_space(2, 3))
    a = CodeSubgroup(amb, [(1, 1, 1)])
    b = CodeSubgroup(amb, [(1, 1, 0)])
    assert set(a.sum(b).elements()) == {
        (0, 0, 0), (1, 1, 1), (1, 1, 0), (0, 0, 1)}
    even = CodeSubgroup(amb, [(1, 1, 0), (0, 1, 1)])
    assert a.intersect(even).is_trivial


def test_kernel_against_enumeration():
    """kernel(images, target) is {x in C : phi(x) = 0} for a map phi of the
    ambient, also when a target modulus does not divide the source lcm."""
    z2, z4 = cyclic_group(2), cyclic_group(4)
    # Z_2 -> Z_4, x -> 2x is injective; over Z_2 alone it would look zero
    c = CodeSubgroup(space(z2), [(1,)])
    assert c.kernel([(2,)], space(z4)).is_trivial
    assert c.kernel([(0,)], space(z4)) == c
    rng = random.Random(7)
    for _ in range(40):
        amb = random_ambient(rng)
        target = random_ambient(rng)
        c, ce = random_subgroup(rng, amb)
        # phi(x) = x @ matrix, entry (i, j) a multiple of d / gcd(m_i, d)
        matrix = [[rng.randrange(math.gcd(m, d)) * (d // math.gcd(m, d))
                   for d in target.moduli] for m in amb.moduli]

        def phi(x):
            return tuple(sum(v * row[j] for v, row in zip(x, matrix)) % d
                         for j, d in enumerate(target.moduli))

        ker = c.kernel([phi(r) for r in c.rows], target)
        assert set(ker.elements()) == {x for x in ce if not any(phi(x))}
    with pytest.raises(ValueError):
        CodeSubgroup(space(z2), [(1,)]).kernel([], space(z4))


def test_renamed_reuses_the_howell_form(monkeypatch):
    rng = random.Random(3)
    amb = random_ambient(rng)
    c, _ = random_subgroup(rng, amb)
    mapping = {lab: ("new", lab) for lab in amb.labels}
    calls = []
    original = zmod.howell_form
    monkeypatch.setattr(zmod, "howell_form",
                        lambda *a: calls.append(a) or original(*a))
    got = c.renamed(mapping)
    assert calls == []
    fresh = CodeSubgroup(got.ambient, c.rows)
    assert got == fresh and got._lifted == fresh._lifted
    assert got.order == fresh.order


def test_quotient_map_structure():
    amb = space(vector_space(2, 2))
    with pytest.raises(NotASubgroup):
        CodeSubgroup(amb, [(1, 0)]).quotient_by(CodeSubgroup(amb, [(1, 1)]))
    rng = random.Random(41)
    for _ in range(30):
        amb = random_ambient(rng)
        c, ce = random_subgroup(rng, amb)
        # random subgroup of c: generated by a few random elements of c
        delems = rng.sample(sorted(ce), k=min(len(ce), rng.randrange(1, 3)))
        d = CodeSubgroup(amb, delems)
        q = c.quotient_by(d)
        assert q.order == c.order // d.order
        # natural map is a homomorphism with kernel d
        for _ in range(15):
            x = rng.choice(sorted(ce))
            y = rng.choice(sorted(ce))
            assert q.project(amb.add(x, y)) == q.alphabet.add(
                q.project(x), q.project(y))
            assert (q.project(x) == q.alphabet.zero) == d.contains(x)
        # section really is a section
        for qq in q.alphabet.elements():
            rep = q.lift(qq)
            assert c.contains(rep)
            assert q.project(rep) == qq


def test_quotient_map_guards_its_precondition():
    amb = space(vector_space(2, 2))
    c, d = CodeSubgroup(amb, [(1, 0)]), CodeSubgroup(amb, [(1, 1)])
    with pytest.raises(NotASubgroup):
        QuotientMap(c, d)
    other = space(vector_space(2, 3))
    with pytest.raises(AmbientMismatch):
        QuotientMap(CodeSubgroup(other, [(1, 0, 1)]), d)
    with pytest.raises(AmbientMismatch):
        c.quotient_by(zero_subgroup(space(Z4, Z4)))
    z4 = space(Z4)
    with pytest.raises(NotASubgroup):
        QuotientMap(CodeSubgroup(z4, [(2,)]), CodeSubgroup(z4, [(1,)]))
    assert QuotientMap(CodeSubgroup(z4, [(1,)]), CodeSubgroup(z4, [(2,)])).order == 2


def test_quotient_reads_the_howell_forms(monkeypatch):
    rng = random.Random(5)
    amb = space(Z4, cyclic_group(6), vector_space(2, 2))
    c = CodeSubgroup(amb, [(1, 2, 1, 0), (2, 3, 1, 1)])
    d = CodeSubgroup(amb, [(2, 4, 0, 0)])
    calls = {"howell": 0, "hermite": 0, "smith": 0}

    def counted(name, fn):
        def wrapper(*a):
            calls[name] += 1
            return fn(*a)
        return wrapper

    monkeypatch.setattr(zmod, "howell_form", counted("howell", zmod.howell_form))
    monkeypatch.setattr(subgroups, "hermite_form",
                        counted("hermite", subgroups.hermite_form))
    monkeypatch.setattr(subgroups, "smith_form", counted("smith", subgroups.smith_form))
    q = c.quotient_by(d)
    assert calls == {"howell": 0, "hermite": 2, "smith": 1}
    assert q.order == c.order // d.order
    x = rng.choice(list(c.elements()))
    assert d.contains(amb.add(x, amb.neg(q.lift(q.project(x)))))


def test_lift_prefix():
    rng = random.Random(43)
    for _ in range(30):
        amb = random_ambient(rng, max_width=3)
        if len(amb.factors) < 2:
            continue
        sub, elems = random_subgroup(rng, amb)
        part = [amb.labels[0]]
        cols = amb.columns(part)
        for x in list(elems)[:10]:
            t = tuple(x[c] for c in cols)
            got = sub.lift_prefix(part, t)
            assert got is not None
            assert sub.contains(got)
            assert tuple(got[c] for c in cols) == t
        # a value outside the projection has no lift
        proj = {tuple(x[c] for c in cols) for x in elems}
        sub_space = amb.subspace(part)
        for v in sub_space.elements():
            if v not in proj:
                assert sub.lift_prefix(part, v) is None
                break


def test_ftsp_decompose_identity_graph():
    amb = space(GF2, GF2)
    c = CodeSubgroup(amb, [(1, 1)])
    dec = ftsp_decompose(c, [0], [1])
    assert dec.quot_a.order == 2 and dec.quot_b.order == 2
    pairs = set(dec.iso_pairs.elements())
    assert pairs == {(0, 0), (1, 1)}


def test_ftsp_order_identities():
    rng = random.Random(47)
    for _ in range(40):
        amb = random_ambient(rng, max_width=3)
        if len(amb.factors) < 2:
            continue
        sub, _ = random_subgroup(rng, amb)
        k = rng.randrange(1, len(amb.factors))
        pa = list(amb.labels[:k])
        pb = list(amb.labels[k:])
        qa = sub.project(pa).order // sub.cross_section(pa).order
        qb = sub.project(pb).order // sub.cross_section(pb).order
        qc = sub.order // (sub.cross_section(pa).order * sub.cross_section(pb).order)
        q4 = (sub.project(pa).order * sub.project(pb).order) // sub.order
        assert qa == qb == qc == q4
        dec = ftsp_decompose(sub, pa, pb)
        assert dec.iso_pairs.order == qa
        # the pair set is the graph of a bijection
        seen_a, seen_b = {}, {}
        wa = dec.quot_a.alphabet.width
        for pair in dec.iso_pairs.elements():
            a, b = pair[:wa], pair[wa:]
            assert seen_a.setdefault(a, b) == b
            assert seen_b.setdefault(b, a) == a
        assert len(seen_a) == qa


def test_product_and_cylinder():
    a = CodeSubgroup(space(GF2), [(1,)])
    b = CodeSubgroup(ProductSpace([("z", Z4)]), [(2,)])
    p = product_subgroup(a.renamed({0: "x"}), b)
    assert p.order == 4
    amb = space(GF2, GF2, GF2)
    cyl = cylinder(amb, {1: zero_subgroup(space(GF2).subspace([0]))})
    assert cyl.order == 4
    assert all(x[1] == 0 for x in cyl.elements())


def test_enumerate_worked_examples():
    assert list(zero_subgroup(space(GF2)).elements()) == [(0,)]
    assert sorted(full_subgroup(space(GF3)).elements()) == [(0,), (1,), (2,)]
    z8 = ProductSpace([("s", cyclic_group(8))])
    sub = CodeSubgroup(z8, [(2,)])
    assert sorted(sub.elements()) == [(0,), (2,), (4,), (6,)]


def test_from_elements_matches_canonicalize():
    rng = random.Random(53)
    for _ in range(20):
        amb = random_ambient(rng)
        sub, elems = random_subgroup(rng, amb)
        assert CodeSubgroup(amb, sorted(elems)) == sub


def test_project_cross_section_worked_examples():
    amb = space(GF2, GF2)
    diag = CodeSubgroup(amb, [(1, 1)])
    assert set(diag.project([0]).elements()) == {(0,), (1,)}
    assert diag.cross_section([0]).is_trivial
    assert set(full_subgroup(amb).cross_section([0]).elements()) == {(0,), (1,)}

    amb3 = space(GF2, GF2, GF2)
    even3 = CodeSubgroup(amb3, [(1, 1, 0), (0, 1, 1)])
    assert even3.project([1, 2]).is_full

    amb4 = space(GF2, GF2, GF2, GF2)
    even4 = CodeSubgroup(amb4, [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)])
    assert set(even4.cross_section([0, 1]).elements()) == {(0, 0), (1, 1)}
    zero = CodeSubgroup(amb, [])
    assert zero.project([1]).is_trivial


def test_ftsp_full_product_trivial_quotients():
    amb = space(GF2, Z4)
    dec = ftsp_decompose(full_subgroup(amb), [0], [1])
    assert dec.quot_a.order == 1 and dec.quot_b.order == 1
    # even-weight length-4 code split 2+2: quotients of order 2
    amb4 = space(GF2, GF2, GF2, GF2)
    even4 = CodeSubgroup(amb4, [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)])
    dec4 = ftsp_decompose(even4, [0, 1], [2, 3])
    assert dec4.quot_a.order == 2 and dec4.quot_b.order == 2
    assert dec4.iso_pairs.order == 2
