"""Realization model: validation, behaviors, normalize, cut/connect."""

from __future__ import annotations

import functools
import random

from normgraph.alphabets import ProductSpace, cyclic_group, vector_space
from normgraph.corpus import trellis_realization, zero_sum_code as zero_sum
from normgraph.homs import Homomorphism
from normgraph.realization import (
    Constraint,
    GeneralSystem,
    Realization,
    StateVar,
    normalize,
)
from normgraph.subgroups import CodeSubgroup
from tests.oracles import (
    OracleHarness,
    instances,
    random_small_realization,
    universe_behaviors,
)

GF2 = vector_space(2, 1)
GF3 = vector_space(3, 1)
Z4 = cyclic_group(4)


def code_over(alphas, rows):
    return CodeSubgroup(ProductSpace(list(enumerate(alphas))), rows)


def rep3_trellis():
    """Two-section trellis of the repetition code {000?} -> {00,11}... rep-2."""
    c1 = code_over([GF2, GF2], [(1, 1)])  # (a1, s)
    c2 = code_over([GF2, GF2], [(1, 1)])  # (s, a2)
    return Realization(
        symbols={"a1": GF2, "a2": GF2},
        states={"s": StateVar(GF2)},
        constraints={
            "c1": Constraint(("a1", "s"), c1),
            "c2": Constraint(("s", "a2"), c2),
        },
    )


def test_validate_good_and_bad():
    r = rep3_trellis()
    assert r.validate().is_valid
    bad = Realization(
        symbols={"a": GF2},
        states={"s": StateVar(GF2)},
        constraints={
            "c1": Constraint(("a", "s"), code_over([GF2, GF2], [(1, 1)])),
            "c2": Constraint(("s",), code_over([GF2], [(1,)])),
            "c3": Constraint(("s",), code_over([GF2], [(1,)])),
        },
    )
    rep = bad.validate()
    assert not rep.is_valid
    assert any("degree 3" in m for m in rep.degree_errors)

    two_sym = Realization(
        symbols={"a": GF2},
        states={},
        constraints={
            "c1": Constraint(("a",), code_over([GF2], [(1,)])),
            "c2": Constraint(("a",), code_over([GF2], [(1,)])),
        },
    )
    assert not two_sym.validate().is_valid


def test_single_zero_sum_code():
    r = Realization(
        symbols={"a1": GF2, "a2": GF2, "a3": GF2},
        states={},
        constraints={"c": Constraint(("a1", "a2", "a3"), zero_sum(GF2, 3))},
    )
    c = r.code()
    assert set(c.elements()) == {(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}


def test_two_section_trellis_code():
    r = rep3_trellis()
    assert set(r.code().elements()) == {(0, 0), (1, 1)}
    b = universe_behaviors(r)
    assert b.extended.order == b.behavior.order == r.behavior().order


def test_edge_isomorphism_behavior():
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
    got = set(r.code().elements())
    want = {(a, (3 * a) % 4) for a in range(4)}
    assert got == want


def test_behavior_matches_exhaustive_oracle():
    rng = random.Random(97)
    for trial in range(25):
        r = random_small_realization(rng)
        b = universe_behaviors(r)
        oracle = OracleHarness.build(r)
        assert set(r.code().elements()) == oracle.projection(oracle.syms)
        assert set(r.behavior().elements()) == {sum(word, ()) for word in oracle.behavior}
        assert b.extended.order == b.behavior.order == r.behavior().order


def test_disconnected_code_is_product():
    r1 = rep3_trellis()
    ident = code_over([GF3, GF3], [(1, 1)])
    extra = Realization(
        symbols={"b1": GF3, "b2": GF3},
        states={"t": StateVar(GF3)},
        constraints={
            "d1": Constraint(("b1", "t"), ident),
            "d2": Constraint(("t", "b2"), ident),
        },
    )
    both = Realization(
        symbols=dict(r1.symbols) | dict(extra.symbols),
        states=dict(r1.states) | dict(extra.states),
        constraints=dict(r1.constraints) | dict(extra.constraints),
    )
    assert not both.is_connected
    c = both.code()
    # symbols sort a1, a2, b1, b2
    want = {(a, a, b, b) for a in range(2) for b in range(3)}
    assert set(c.elements()) == want


def test_external_behavior_single_constraint():
    r = Realization(
        symbols={"a1": GF2, "a2": GF2, "a3": GF2},
        states={},
        constraints={"c": Constraint(("a1", "a2", "a3"), zero_sum(GF2, 3))},
    )
    assert r.external_behavior() == r.code()


def test_trellis_fragment_external_behavior():
    r = _rep_code_trellis(3)
    frags = r.split(["s2"]).fragments
    assert len(frags) == 2
    f0 = [f for f in frags if "a0" in f.symbols][0]
    assert sorted(f0.symbols) == ["a0", "a1"]
    ext = f0.external_behavior()  # over (a0, a1, s2)
    assert set(ext.elements()) == {(0, 0, 0), (1, 1, 1)}


def _rep_code_trellis(n):
    """Conventional trellis of the length-n repetition code over GF(2)."""
    ident = code_over([GF2, GF2], [(1, 1)])
    tri = code_over([GF2, GF2, GF2], [(1, 1, 1)])
    symbols = {f"a{i}": GF2 for i in range(n)}
    states = {f"s{i}": StateVar(GF2) for i in range(1, n)}
    constraints = {}
    for i in range(n):
        if i == 0:
            constraints[f"c{i}"] = Constraint((f"a{i}", f"s{i+1}"), ident)
        elif i == n - 1:
            constraints[f"c{i}"] = Constraint((f"s{i}", f"a{i}"), ident)
        else:
            constraints[f"c{i}"] = Constraint((f"s{i}", f"a{i}", f"s{i+1}"), tri)
    return Realization(symbols, states, constraints)


def test_cut_and_connect_roundtrip_cycle():
    # ring of 3 identity sections realizing the repetition code
    tri = code_over([GF2, GF2, GF2], [(1, 1, 1)])
    symbols = {f"a{i}": GF2 for i in range(3)}
    states = {f"s{i}": StateVar(GF2) for i in range(3)}
    constraints = {
        f"c{i}": Constraint((f"s{(i - 1) % 3}", f"a{i}", f"s{i}"), tri)
        for i in range(3)
    }
    r = Realization(symbols, states, constraints)
    assert r.validate().is_valid
    frags = r.split(["s2"]).fragments
    assert len(frags) == 1
    frag = frags[0]
    assert sorted(frag.boundary) == ["s2", "s2'"]
    restored = frag.connect(None, "s2", "s2'")
    assert restored == r

    # cutting a bridge gives two fragments; reconnecting restores the code
    t = _rep_code_trellis(3)
    f1, f2 = t.split(["s1"]).fragments
    if "s1" not in set(f1.boundary):
        f1, f2 = f2, f1
    joined = f1.connect(f2, "s1", "s1'")
    assert joined.code() == t.code()


def test_connect_with_isomorphism():
    ident3 = code_over([GF3, GF3], [(1, 1)])
    leaf = lambda sym, st, cl: Realization(
        symbols={sym: GF3},
        states={st: StateVar(GF3)},
        constraints={cl: Constraint((sym, st), ident3)},
        boundary=[st],
    )
    f1 = leaf("a1", "u", "c1")
    f2 = leaf("a2", "v", "c2")
    neg = Homomorphism(GF3, GF3, ((2,),))
    joined = f1.connect(f2, "u", "v", iso=neg)
    got = set(joined.code().elements())
    assert got == {(a, (-a) % 3) for a in range(3)}


def test_connect_two_leaf_identity_graphs():
    ident = code_over([GF2, GF2], [(1, 1)])
    f1 = Realization({"a1": GF2}, {"u": StateVar(GF2)},
                     {"c1": Constraint(("a1", "u"), ident)}, boundary=["u"])
    f2 = Realization({"a2": GF2}, {"v": StateVar(GF2)},
                     {"c2": Constraint(("v", "a2"), ident)}, boundary=["v"])
    joined = f1.connect(f2, "u", "v")
    assert set(joined.code().elements()) == {(0, 0), (1, 1)}


def _trellis_halves_at_s3(head: str):
    """The two halves of a GF(2) trellis cut at s3, the head half's end
    renamed from s3' to `head`: (trellis, tail half, head half)."""
    t = trellis_realization([[1, 1, 0, 1, 0], [0, 1, 1, 1, 1]], [GF2] * 5)
    f1, f2 = t.split(["s3"]).fragments
    if "s3" not in f1.boundary:
        f1, f2 = f2, f1
    name = lambda v: head if v == "s3'" else v
    f2 = Realization(dict(f2.symbols),
                     {name(j): sv for j, sv in f2.states.items()},
                     {cl: Constraint(tuple(map(name, con.vars)), con.code)
                      for cl, con in f2.constraints.items()},
                     [name(b) for b in f2.boundary])
    return t, f1, f2


def test_connect_fragments_whose_ends_share_their_label():
    t, f1, f2 = _trellis_halves_at_s3("s3")
    joined = f1.connect(f2, "s3", "s3")
    assert joined.validate().is_valid
    assert sorted(joined.states) == sorted(t.states)
    assert joined.code() == t.code()


def test_connect_refuses_any_other_shared_label():
    import pytest
    from normgraph.errors import ValidationFailed

    _, f1, f2 = _trellis_halves_at_s3("s1")     # s1 is an internal edge of f1
    with pytest.raises(ValidationFailed, match="'s1'"):
        f1.connect(f2, "s3", "s1")


def test_connect_refuses_a_boundary_variable_joined_to_itself():
    import pytest
    from normgraph.errors import UnknownEdge

    t, f1, f2 = _trellis_halves_at_s3("s3")
    for f in (f1, f2):
        with pytest.raises(UnknownEdge, match="'s3'"):
            f.connect(None, "s3", "s3")
    with pytest.raises(UnknownEdge, match="'s1'"):
        f1.connect(None, "s3", "s1")             # s1 is internal to f1
    with pytest.raises(UnknownEdge, match="'s1'"):
        f1.connect(f2, "s1", "s3")
    with pytest.raises(UnknownEdge, match="'s3'"):
        t.connect(None, "s3", "s3")               # t has no boundary


def test_normalize_already_normal_is_fixed_point():
    r = rep3_trellis()
    sys = GeneralSystem(
        variables={"a1": (GF2, "symbol"), "a2": (GF2, "symbol"),
                   "s": (GF2, "state")},
        constraints={cl: (con.vars, con.code) for cl, con in r.constraints.items()},
    )
    out = normalize(sys)
    assert out.validate().is_valid
    assert out == r


def test_normalize_degree3_state():
    sys = GeneralSystem(
        variables={"v": (GF2, "state"),
                   "a1": (GF2, "symbol"), "a2": (GF2, "symbol"),
                   "a3": (GF2, "symbol")},
        constraints={
            "c1": (("a1", "v"), code_over([GF2, GF2], [(1, 1)])),
            "c2": (("a2", "v"), code_over([GF2, GF2], [(1, 1)])),
            "c3": (("a3", "v"), code_over([GF2, GF2], [(1, 1)])),
        },
    )
    out = normalize(sys)
    assert out.validate().is_valid
    eq_cons = [c for c in out.constraints.values() if len(c.vars) == 3]
    assert len(eq_cons) == 1
    assert set(out.code().elements()) == {(0, 0, 0), (1, 1, 1)}


def test_normalize_tanner_single_check():
    sys = GeneralSystem(
        variables={"a1": (GF2, "symbol"), "a2": (GF2, "symbol"),
                   "a3": (GF2, "symbol")},
        constraints={"h0": (("a1", "a2", "a3"), zero_sum(GF2, 3))},
    )
    out = normalize(sys)
    assert out.validate().is_valid
    assert len(out.constraints) == 1
    want = {(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert set(out.code().elements()) == want


def test_normalize_preserves_behavior_randomized():
    rng = random.Random(101)
    for _ in range(15):
        # random bipartite system: 3 symbols, 1-2 states of random degree
        alphas = [GF2, GF3]
        vars_: dict = {}
        for i in range(3):
            vars_[f"a{i}"] = (rng.choice(alphas), "symbol")
        vars_["v"] = (rng.choice(alphas), "state")
        cons = {}
        for ci in range(rng.randrange(2, 4)):
            members = [f"a{i}" for i in range(3) if rng.random() < 0.6]
            if rng.random() < 0.8:
                members.append("v")
            if not members:
                members = ["a0"]
            slot_alphas = [vars_[m][0] for m in members]
            amb = ProductSpace(list(enumerate(slot_alphas)))
            rows = [tuple(rng.randrange(m) for m in amb.moduli)
                    for _ in range(rng.randrange(1, 3))]
            cons[f"k{ci}"] = (tuple(members), CodeSubgroup(amb, rows))
        sys = GeneralSystem(vars_, cons)
        out = normalize(sys)
        assert out.validate().is_valid
        # oracle: brute force the general system
        labels = sorted(vars_)
        sym_labels = sorted(l for l in labels if vars_[l][1] == "symbol")
        import itertools as it
        words = set()
        spaces = [list(vars_[l][0].elements()) for l in labels]
        cons_sets = {cl: set(code.elements()) for cl, (_, code) in cons.items()}
        for combo in it.product(*spaces):
            env = dict(zip(labels, combo))
            ok = True
            for cl, (mem, _) in cons.items():
                word = tuple(x for m in mem for x in env[m])
                if word not in cons_sets[cl]:
                    ok = False
                    break
            if ok:
                words.add(tuple(x for l in sym_labels for x in env[l]))
        assert set(out.code().elements()) == words


def test_fold_edge_iso():
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
    folded = r.fold_edge_iso("s")
    assert folded.states["s"].iso is None
    assert folded.code() == r.code()


def test_fold_edge_iso_folds_every_listed_edge_in_one_call():
    folds = 0
    for r in instances():
        edges = [j for j in r.internal_states() if len(r.slots[j]) == 2]
        one_by_one = functools.reduce(Realization.fold_edge_iso, edges, r)
        assert r.fold_edge_iso(*edges) == one_by_one
        assert one_by_one.fold_edge_iso(*edges) is one_by_one
        folds += one_by_one is not r
    assert folds >= 20


def test_error_surfaces():
    import pytest
    from normgraph.errors import (AlphabetMismatch, BadPartition,
                                  UnknownVariable)
    from normgraph.analysis import trim_proper
    from normgraph.subgroups import ftsp_decompose

    r = rep3_trellis()
    with pytest.raises(UnknownVariable):
        trim_proper(r, "nope")
    f1 = Realization({"a1": GF2}, {"u": StateVar(GF2)},
                     {"c1": Constraint(("a1", "u"),
                                       code_over([GF2, GF2], [(1, 1)]))},
                     boundary=["u"])
    f2 = Realization({"a2": GF3}, {"v": StateVar(GF3)},
                     {"c2": Constraint(("v", "a2"),
                                       code_over([GF3, GF3], [(1, 1)]))},
                     boundary=["v"])
    with pytest.raises(AlphabetMismatch):
        f1.connect(f2, "u", "v")
    c = code_over([GF2, GF2], [(1, 1)])
    with pytest.raises(BadPartition):
        ftsp_decompose(c, [0], [0, 1])
