"""Graph structure: cyclomatic numbers, cut edges, 2-cores, second decomposition."""

from __future__ import annotations

import itertools
import random

import pytest

from normgraph import graphcore
from normgraph.alphabets import cyclic_group, vector_space
from normgraph.corpus import (
    GF2,
    GF3,
    TOPOLOGIES,
    Z4,
    equality_code,
    random_realization,
    ring_realization,
    tail_biting_rep2,
    tanner_realization,
    trellis_realization,
)
from normgraph.errors import NotTrimProper
from normgraph.graphcore import (
    constraint_trim_proper,
    cut_edges,
    cyclomatic_number,
    internally_trim_proper,
    is_cut_edge,
    second_canonical_decomposition,
    two_core,
)
from normgraph.realization import Constraint, Realization, StateVar
from normgraph.subgroups import CodeSubgroup
from normgraph.alphabets import ProductSpace


def path3():
    return random_realization(3, topology="path", n_constraints=3)


def test_cyclomatic_numbers():
    assert cyclomatic_number(path3()) == 0
    ring = random_realization(5, topology="cycle", n_constraints=4)
    assert cyclomatic_number(ring) == 1
    theta = random_realization(7, topology="theta")
    assert cyclomatic_number(theta) == 2


def test_cyclomatic_matches_brute_force_min_cuts():
    rng = random.Random(131)
    for seed in range(12):
        topo = rng.choice(["path", "cycle", "cycle_pendant", "theta"])
        r = random_realization(1000 + seed, topology=topo)
        edges = [j for j in r.internal_states() if len(r.slots[j]) == 2]
        want = cyclomatic_number(r)
        # minimum number of edge removals that makes the graph cycle-free
        best = None
        for k in range(len(edges) + 1):
            for subset in itertools.combinations(edges, k):
                removed = set(subset)
                remaining = [j for j in edges if j not in removed]
                n_comp = len(r.components(removed))
                if len(remaining) - len(r.constraints) + n_comp == 0:
                    best = k
                    break
            if best is not None:
                break
        assert best == want
        # and the maximum number of cuts that keeps the graph connected
        if len(r.components()) == 1:
            most = 0
            for k in range(len(edges) + 1):
                for subset in itertools.combinations(edges, k):
                    if len(r.components(set(subset))) == 1:
                        most = max(most, k)
            assert most == want


def test_cut_edges():
    r = path3()
    for j in r.internal_states():
        assert is_cut_edge(r, j)
    ring = random_realization(11, topology="cycle", n_constraints=4)
    for j in ring.internal_states():
        assert not is_cut_edge(ring, j)
    pend = random_realization(13, topology="cycle_pendant", n_constraints=5)
    bridges = [j for j in pend.internal_states() if is_cut_edge(pend, j)]
    assert len(bridges) == 1


def cut_edges_by_definition(r: Realization) -> set[str]:
    base = len(r.components())
    return {j for j in r.internal_states()
            if len(r.slots[j]) == 2 and len(r.components({j})) > base}


def test_cut_edges_match_the_component_definition():
    cases = [random_realization(seed, topology=topology, n_constraints=3 + seed % 4)
             for seed in range(10) for topology in TOPOLOGIES]
    # (3,6)-regular: check i covers symbols 2i, ..., 2i+5 (mod 12)
    h = [[int((j - 2 * i) % 12 < 6) for j in range(12)] for i in range(6)]
    cases += [tanner_realization(h, GF2), tanner_realization(h[:2], GF2),
              trellis_realization([(1, 1, 0, 1, 1), (0, 1, 1, 1, 0)], [GF2] * 5)]
    # a self-loop at c0, two parallel edges c0-c1 and a bridge c1-c2
    space = ProductSpace([(i, GF2) for i in range(5)])
    self_loop = Realization(
        {}, {j: StateVar(GF2) for j in "stuv"},
        {"c0": Constraint(("s", "s", "t", "u", "v"), CodeSubgroup(space, [])),
         "c1": Constraint(("t", "u"), equality_code(GF2, 2)),
         "c2": Constraint(("v",), CodeSubgroup(ProductSpace([(0, GF2)]), []))})
    assert cut_edges(self_loop) == {"v"}
    bridges = 0
    for r in cases + [self_loop]:
        want = cut_edges_by_definition(r)
        assert cut_edges(r) == want
        bridges += len(want)
        for j in r.internal_states():
            assert is_cut_edge(r, j) == (j in want)
    assert bridges >= 40 and not cut_edges(cases[-3])


def test_two_core_cycle_free():
    r = path3()
    dec = two_core(r)
    assert dec.core is None
    assert len(dec.leaves) == 1
    assert dec.leaves[0].fragment == r


def test_two_core_pure_cycle():
    ring = random_realization(17, topology="cycle", n_constraints=4)
    dec = two_core(ring)
    assert dec.core == ring
    assert dec.leaves == []


def test_two_core_cycle_with_pendant():
    r = random_realization(19, topology="cycle_pendant", n_constraints=5)
    dec = two_core(r)
    assert dec.core is not None
    assert len(dec.leaves) == 1
    frag = dec.leaves[0].fragment
    assert len(frag.constraints) == 1
    assert len(frag.boundary) == 1
    assert cyclomatic_number(dec.core) == cyclomatic_number(r)


def test_two_core_order_independent():
    for seed in (23, 29, 31):
        r = random_realization(seed, topology="cycle_pendant", n_constraints=6)
        baseline = two_core(r)
        base_core = set(baseline.core.constraints) if baseline.core else set()
        for strip_seed in range(5):
            rng = random.Random(strip_seed)
            dec = two_core(r, rng)
            got = set(dec.core.constraints) if dec.core else set()
            assert got == base_core


def test_second_decomposition_requires_trim_proper():
    # constraint {00, 01} is not trim at its first slot
    amb = ProductSpace([(0, GF2), (1, GF2)])
    bad = Realization(
        symbols={"a0": GF2, "a1": GF2},
        states={},
        constraints={"c": Constraint(("a0", "a1"), CodeSubgroup(amb, [(0, 1)]))},
    )
    with pytest.raises(NotTrimProper):
        second_canonical_decomposition(bad)


def test_second_decomposition_pure_cycle_identity():
    ring = tail_biting_rep2()
    dec = second_canonical_decomposition(ring)
    assert dec.core == ring
    assert dec.leaves == []


def test_second_decomposition_cycle_free_two_leaves():
    r = trellis_realization([(1, 1, 1)], [GF2, GF2, GF2])
    dec = second_canonical_decomposition(r)
    assert dec.core is None
    assert len(dec.leaves) == 2
    assert dec.orders_match


def parallel_transition_ring():
    """Tail-biting ring plus a zero-sum leaf whose symbol pair is only
    determined modulo {00, 11}: the classic parallel-transition shape."""
    from normgraph.corpus import zero_sum_code

    sec = equality_code(GF2, 3)
    ring = ring_realization([sec, sec])
    symbols = dict(ring.symbols) | {"b0": GF2, "b1": GF2}
    states = dict(ring.states) | {"t": StateVar(GF2)}
    con = ring.constraints["c0"]
    amb = ProductSpace(list(con.code.ambient.factors) + [(3, GF2)])
    rows = [row + (row[0],) for row in con.code.rows]
    constraints = dict(ring.constraints)
    constraints["c0"] = Constraint(con.vars + ("t",), CodeSubgroup(amb, rows))
    constraints["leaf"] = Constraint(("b0", "b1", "t"), zero_sum_code(GF2, 3))
    return Realization(symbols, states, constraints)


def test_second_decomposition_parallel_transitions():
    r = parallel_transition_ring()
    assert r.validate().is_valid
    dec = second_canonical_decomposition(r)
    assert dec.core is not None
    assert len(dec.leaves) == 1
    ls = dec.leaves[0]
    assert ls.edge == "t"
    assert ls.state_order == 2
    assert ls.trimmed.order == 4       # symbol pairs are unrestricted
    assert ls.nondynamical.order == 2  # {00, 11} collapses
    assert ls.effective_order == 2
    assert dec.orders_match
    # reassembling the two-core cut reproduces the code
    tc = two_core(r)
    core, leaf = tc.core, tc.leaves[0]
    if tc.core_boundary_of[leaf.edge] == leaf.edge:
        joined = core.connect(leaf.fragment, leaf.edge, leaf.boundary_var)
    else:
        joined = leaf.fragment.connect(core, leaf.edge, tc.core_boundary_of[leaf.edge])
    assert joined.code() == r.code()


def trim_proper_per_constraint(r: Realization) -> bool:
    """Reference: every constraint checked on its own, nothing shared."""
    return all(constraint_trim_proper(con.code) == (True, True)
               for con in r.constraints.values())


def test_internally_trim_proper_checks_each_distinct_code_once(monkeypatch):
    # (3,6)-regular: check i covers symbols 2i, ..., 2i+5 (mod 12)
    h = [[int((j - 2 * i) % 12 < 6) for j in range(12)] for i in range(6)]
    assert all(sum(col) == 3 for col in zip(*h))
    r = tanner_realization(h, GF2)
    assert len(r.constraints) == 18
    calls = []

    def counting(code):
        calls.append(code)
        return constraint_trim_proper(code)

    monkeypatch.setattr(graphcore, "constraint_trim_proper", counting)
    assert internally_trim_proper(r)
    assert len(calls) == 2


def test_internally_trim_proper_matches_per_constraint_loop():
    pool = (GF2, GF3, Z4, cyclic_group(2), cyclic_group(6), vector_space(2, 2))
    subs = 0
    for seed in range(30):
        for topology in TOPOLOGIES:
            r = random_realization(seed, topology=topology, pool=pool,
                                   iso_prob=0.5)
            assert internally_trim_proper(r) == trim_proper_per_constraint(r)
            # the constraints that pass, alone and then with one that fails
            good = {cl: con for cl, con in r.constraints.items()
                    if constraint_trim_proper(con.code) == (True, True)}
            bad = [cl for cl in r.constraints if cl not in good]
            for extra in ([], bad[:1]):
                cons = dict(good, **{cl: r.constraints[cl] for cl in extra})
                sub = Realization(r.symbols, r.states, cons)
                assert internally_trim_proper(sub) \
                    == trim_proper_per_constraint(sub) == (not extra)
                subs += bool(good)
    assert subs >= 10


def test_internally_trim_proper_keys_on_slot_moduli():
    # the same rows over Z_4 x Z_4 (trim and proper) and over GF(2)^2 (not
    # trim): a key on the rows alone would reuse the first verdict
    z4_pair = ProductSpace([(0, Z4), (1, Z4)])
    gf4 = ProductSpace([(0, vector_space(2, 2))])
    r = Realization(
        symbols={"x": Z4, "y": Z4, "u": vector_space(2, 2)},
        states={},
        constraints={
            "c1": Constraint(("x", "y"), CodeSubgroup(z4_pair, [(1, 1)])),
            "c2": Constraint(("u",), CodeSubgroup(gf4, [(1, 1)])),
        })
    assert r.constraints["c1"].code.rows == r.constraints["c2"].code.rows
    assert constraint_trim_proper(r.constraints["c1"].code) == (True, True)
    assert constraint_trim_proper(r.constraints["c2"].code) == (False, False)
    assert not internally_trim_proper(r)
    assert not trim_proper_per_constraint(r)
