"""Normal realization duality, exercised on fixtures and random realizations."""

from __future__ import annotations

import random
from pathlib import Path

from normgraph.alphabets import ProductSpace, cyclic_group, vector_space
from normgraph.duality import _dual_edge_map, dualize, verify_duality
from normgraph.homs import Homomorphism, identity_map, negation_map
from normgraph.corpus import equality_code
from normgraph.realization import Constraint, Realization, StateVar, _is_identity
from normgraph.serialize import load_realization
from normgraph.subgroups import CodeSubgroup

from tests.oracles import instances as pool_instances, random_small_realization
from .test_realization import (
    _rep_code_trellis,
    code_over,
    rep3_trellis,
    zero_sum,
)

GF2 = vector_space(2, 1)
GF3 = vector_space(3, 1)
Z4 = cyclic_group(4)


def equality_node(alpha, n, syms):
    return Realization({s: alpha for s in syms}, {},
                       {"c": Constraint(tuple(syms), equality_code(alpha, n))})


def test_equality_dualizes_to_zero_sum():
    r = equality_node(GF2, 3, ["a1", "a2", "a3"])
    rd = dualize(r)
    want = {(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert set(rd.code().elements()) == want
    rep = verify_duality(r)
    assert rep.passed


def test_identity_edge_dualizes_to_sign_inverter():
    ident = code_over([GF3, GF3], [(1, 1)])
    r = Realization(
        symbols={"a1": GF3, "a2": GF3},
        states={"s": StateVar(GF3)},
        constraints={
            "c1": Constraint(("a1", "s"), ident),
            "c2": Constraint(("s", "a2"), ident),
        },
    )
    rd = dualize(r)
    # the dual edge carries the negation map over GF(3)
    assert rd.states["s"].iso is not None
    assert rd.states["s"].iso.matrix == negation_map(GF3).matrix
    assert verify_duality(r).passed
    # over GF(2) no sign inverter is observable
    r2 = rep3_trellis()
    assert dualize(r2).states["s"].iso is None


def test_an_edge_without_an_iso_dualizes_by_negation():
    """The dual map of an edge without an iso is read as negation; the
    general formula, -adjoint(identity)^(-1), gives the same map."""
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    realizations = [load_realization(p) for p in sorted(corpus.glob("*.json"))
                    if not p.stem.endswith("_priors")]
    alphabets = {sv.alphabet for r in [*realizations, *pool_instances()]
                 for sv in r.states.values()}
    negations = 0
    for alpha in alphabets:
        general = identity_map(alpha).adjoint().inverse().negated()
        want = None if _is_identity(general) else general
        assert _dual_edge_map(StateVar(alpha)) == want, alpha
        negations += want is not None
    assert len(alphabets) >= 6 and negations >= 3


def test_dualize_involutive():
    rng = random.Random(109)
    for _ in range(20):
        r = random_small_realization(rng)
        if not r.validate().is_valid:
            continue
        assert dualize(dualize(r)) == r


def test_self_dual_code_fixture():
    # C = {0000, 1100, 0011, 1111} realized by two parity checks
    amb = [GF2] * 4
    c = code_over(amb, [(1, 1, 0, 0), (0, 0, 1, 1)])
    r = Realization(
        symbols={f"a{i}": GF2 for i in range(4)},
        states={},
        constraints={"c": Constraint(("a0", "a1", "a2", "a3"), c)},
    )
    rep = verify_duality(r)
    assert rep.passed
    assert rep.orthogonal_code == r.code().renamed({})  # self-dual


def test_duality_random_corpus():
    rng = random.Random(113)
    count = 0
    for _ in range(40):
        r = random_small_realization(rng)
        if not r.validate().is_valid:
            continue
        rep = verify_duality(r)
        assert rep.passed, rep.summary()
        count += 1
    assert count >= 30


def test_duality_with_edge_isomorphisms():
    ident = code_over([Z4, Z4], [(1, 1)])
    phi = Homomorphism(Z4, Z4, ((3,),))
    r = Realization(
        symbols={"a1": Z4, "a2": Z4},
        states={"s": StateVar(Z4, phi)},
        constraints={
            "c1": Constraint(("a1", "s"), ident),
            "c2": Constraint(("s", "a2"), ident),
        },
    )
    assert verify_duality(r).passed
    assert dualize(dualize(r)) == r


def test_dual_fragment_checks():
    # leaf fragment: one constraint
    zsum = zero_sum(GF2, 3)
    leaf = Realization(
        symbols={"a1": GF2, "a2": GF2},
        states={"s": StateVar(GF2)},
        constraints={"c": Constraint(("a1", "a2", "s"), zsum)},
        boundary=["s"],
    )
    assert verify_duality(leaf).passed

    # trellis fragment of the rep-3 code
    r = _rep_code_trellis(3)
    for frag in r.split(["s2"]).fragments:
        assert verify_duality(frag).passed

    # cubic fragment: cut all three edges around one vertex of a theta-ish graph
    tri = code_over([GF2, GF2, GF2], [(1, 1, 1)])
    ring = Realization(
        symbols={f"a{i}": GF2 for i in range(4)},
        states={f"s{i}": StateVar(GF2) for i in range(4)},
        constraints={
            f"c{i}": Constraint((f"s{(i-1) % 4}", f"a{i}", f"s{i}"), tri)
            for i in range(4)
        },
    )
    frags = ring.split(["s0", "s2"]).fragments
    assert len(frags) == 2
    for frag in frags:
        assert len(frag.boundary) == 2
        assert verify_duality(frag).passed


def test_sign_inverter_simplifications():
    # negating every slot of an abelian constraint code leaves it unchanged
    rng = random.Random(127)
    for _ in range(10):
        amb = ProductSpace([(0, GF3), (1, Z4)])
        rows = [tuple(rng.randrange(m) for m in amb.moduli) for _ in range(2)]
        c = CodeSubgroup(amb, rows)
        negated = CodeSubgroup(amb, [amb.neg(r) for r in c.rows])
        assert negated == c
    # two cascaded sign inversions compose to the identity
    neg = negation_map(Z4)
    assert neg.compose(neg).matrix == ((1,),)
