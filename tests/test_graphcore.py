"""Graph structure: cyclomatic numbers, cut edges, 2-cores, second decomposition."""

from __future__ import annotations

import itertools
import random

import pytest

from normgraph import graphcore
from normgraph.analysis import canonical_decomposition
from normgraph.alphabets import cyclic_group, vector_space
from normgraph.corpus import (
    GF2,
    GF3,
    Z4,
    equality_code,
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
from normgraph.cli import main
from normgraph.serialize import dump_realization, realization_from_json
from normgraph.subgroups import CodeSubgroup
from normgraph.alphabets import ProductSpace
from tests.oracles import (
    TOPOLOGIES,
    bench_like_ring,
    random_realization,
    two_core_by_rounds,
    with_isos,
)
from tests.test_acceptance import _planted_ring, _relabeled, corpus_realizations
from tests.test_bench_guard import bench_module


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


def self_loop_graph() -> Realization:
    """A self-loop at c0, two parallel edges c0-c1 and a bridge c1-c2."""
    space = ProductSpace([(i, GF2) for i in range(5)])
    return Realization(
        {}, {j: StateVar(GF2) for j in "stuv"},
        {"c0": Constraint(("s", "s", "t", "u", "v"), CodeSubgroup(space, [])),
         "c1": Constraint(("t", "u"), equality_code(GF2, 2)),
         "c2": Constraint(("v",), CodeSubgroup(ProductSpace([(0, GF2)]), []))})


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
    self_loop = self_loop_graph()
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


def peel_suite():
    """This module's graphs and the acceptance graph suite, rings with
    pendant trees, and a path beside a cyclic graph."""
    h = [[int((j - 2 * i) % 12 < 6) for j in range(12)] for i in range(6)]
    a, b = _relabeled(path3(), "x"), _relabeled(parallel_transition_ring(), "y")
    yield from [tanner_realization(h, GF2), tanner_realization(h[:2], GF2),
                self_loop_graph(), parallel_transition_ring(), path3(),
                _planted_ring(GF3, 4, False, 2),
                Realization(a.symbols | b.symbols, a.states | b.states,
                            a.constraints | b.constraints)]
    yield from (random_realization(seed, topology=topology, n_constraints=3 + seed % 4)
                for seed in range(10) for topology in TOPOLOGIES)
    yield from corpus_realizations(40, TOPOLOGIES, max_coords=14, start_seed=101_000)


def test_peel_leaves_the_round_based_two_core():
    """`peel`, with or without an rng, strips each constraint outside the
    reference 2-core once.  Each edge of a stripped constraint leads to one
    stripped earlier, except the edge it hung by; each tree component has
    one None, and a component with a core none."""
    for k, r in enumerate(peel_suite()):
        core, adj = two_core_by_rounds(r), r.neighbors()
        assert two_core_by_rounds(r, random.Random(k)) == core
        for peel in (r.peel(), r.peel(random.Random(k)), r.peel(random.Random(-k))):
            place = {c: t for t, (c, _) in enumerate(peel)}
            assert len(place) == len(peel) and place.keys() == r.constraints.keys() - core
            for t, (c, j) in enumerate(peel):
                assert all((e == j) == (place.get(d, t + 1) > t) for e, d in adj[c])
            for comp in r.components():
                assert sum(j is None for c, j in peel if c in comp) == (not comp & core)
    assert k == 86


def test_a_trellis_peels_in_listing_order():
    """So the cycle-free join closes the bench `trellis` section by section."""
    workload = bench_module("workloads").trellis_workload(0)
    for r in (realization_from_json(workload.realization), path3(),
              trellis_realization([(1, 1, 0, 1, 1), (0, 1, 1, 1, 0)], [GF2] * 5)):
        cons, peel = list(r.constraints), r.peel()
        assert [c for c, _ in peel] == cons and peel[-1][1] is None
        assert [tuple(c for c, _ in r.slots[j]) for _, j in peel[:-1]] \
            == list(zip(cons, cons[1:]))


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
    assert ls.quotient.group.order == 4  # symbol pairs are unrestricted
    assert ls.quotient.sub.order == 2    # {00, 11} collapses
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


def with_pendant_leaves(r: Realization, count: int) -> Realization:
    """r with each of its first `count` symbols moved onto a pendant
    equality node, hung by a new edge from the symbol's old slot."""
    symbols, states, constraints = dict(r.symbols), dict(r.states), dict(r.constraints)
    for a in sorted(r.symbols)[:count]:
        (cl, i), = r.slots[a]
        states[f"p.{a}"] = StateVar(symbols[a])
        constraints[cl] = constraints[cl].renamed({i: f"p.{a}"})
        constraints[f"leaf.{a}"] = Constraint((f"p.{a}", a), equality_code(symbols[a], 2))
    return Realization(symbols, states, constraints)


def test_second_decomposition_leaves_are_the_two_core_leaves():
    """`second_canonical_decomposition` keeps the 2-core, its boundary map
    and each leaf's fragment, edge and half-edge from `two_core`, and only
    adds each leaf's quotient and state order."""
    cases = [parallel_transition_ring(), _planted_ring(GF3, 4, False, 2),
             _planted_ring(Z4, 3, True, 1)]
    cases += [with_isos(with_pendant_leaves(canonical_decomposition(
                  bench_like_ring(n, seed)).core, k), random.Random(n), 0.7)
              for n, seed, k in ((4, 0, 2), (6, 1, 3), (5, 2, 5))]
    cases += [canonical_decomposition(r).core
              for r in corpus_realizations(8, ("cycle_pendant",), start_seed=102_000)]
    leaves = 0
    for r in cases:
        dec, tc = second_canonical_decomposition(r), two_core(r)
        assert dec.core is not None and dec.core == tc.core
        assert dec.core_boundary_of == tc.core_boundary_of
        assert [(la.fragment, la.edge, la.boundary_var) for la in dec.leaves] \
            == [(la.fragment, la.edge, la.boundary_var) for la in tc.leaves]
        assert all(la.quotient is None and la.state_order is None for la in tc.leaves)
        assert all(la.state_order == r.states[la.edge].alphabet.order for la in dec.leaves)
        assert dec.orders_match
        leaves += len(dec.leaves)
    assert leaves >= 25


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


def test_two_core_and_decode_build_the_adjacency_once(monkeypatch, tmp_path, capsys):
    """`neighbors` and the uncut `components` are kept on the realization:
    validation, `is_connected`, the cyclomatic number, `peel` and the cut
    edges all read one adjacency, where `two-core` built it 4 times and
    `decode` 3.  Counted as the distinct adjacencies `neighbors` returns."""
    # (3,6)-regular: check i covers symbols 2i, ..., 2i+5 (mod 12)
    h = [[int((j - 2 * i) % 12 < 6) for j in range(12)] for i in range(6)]
    path = str(tmp_path / "tanner.json")
    dump_realization(tanner_realization(h, GF2), path)
    built, neighbors = [], Realization.neighbors

    def counting(self):
        adj = neighbors(self)
        if all(adj is not seen for seen in built):
            built.append(adj)
        return adj

    monkeypatch.setattr(Realization, "neighbors", counting)
    for argv in (["two-core", path], ["decode", path, "--iters", "3"]):
        built.clear()
        assert main(argv) == 0
        assert len(built) == 1, argv
    capsys.readouterr()
