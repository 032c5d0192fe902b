"""Acceptance criteria: one test per criterion, printing a PASS line each.

Every tolerance is exact (bit-identical canonical forms, exact rational
arithmetic); the only floating point appears in iterative-decoding deltas,
which no criterion depends on.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from normgraph.alphabets import Alphabet, ProductSpace, cyclic_group, sort_key, vector_space
from normgraph.analysis import (
    canonical_decomposition,
    obs_ctrl,
    state_trim_status,
    trim_proper,
)
from normgraph.corpus import (
    GF2,
    GF3,
    Z4,
    equality_code,
    ring_realization,
    tanner_realization,
    trellis_realization,
    zero_sum_code,
)
from normgraph.decode import (
    Message,
    decode_exact,
    decode_iterative,
    message_expand,
    message_reduce,
    sp_update,
)
from normgraph.duality import dualize, verify_duality
from normgraph.graphcore import (
    cyclomatic_number,
    second_canonical_decomposition,
    two_core,
    two_core_constraints,
)
from normgraph.homs import Homomorphism
from normgraph.minimize import minimize_cycle_free, state_orders
from normgraph.realization import Constraint, Realization, StateVar
from normgraph.subgroups import CodeSubgroup, ftsp_decompose
from tests.oracles import (
    OracleHarness,
    brute_force_app,
    close_rows,
    random_fragment,
    random_realization,
)

MIXED_POOL = (GF2, GF3, Z4, cyclic_group(2), cyclic_group(6), vector_space(2, 2))


def total_coordinates(r: Realization) -> int:
    return (sum(a.width for a in r.symbols.values())
            + sum(sv.alphabet.width for sv in r.states.values()))


def corpus_realizations(count: int, topologies, max_coords: int = 12,
                        iso_prob: float = 0.15, start_seed: int = 0):
    """Seeded stream of valid corpus realizations."""
    rs = (random_realization(seed, topology=topologies[seed % len(topologies)],
                             pool=MIXED_POOL, iso_prob=iso_prob)
          for seed in itertools.count(start_seed))
    return list(itertools.islice((r for r in rs if r.validate().is_valid
                                  and total_coordinates(r) <= max_coords), count))


def test_criterion_1_duality_suite():
    """C° = C⊥ bit-exactly via both computation routes on 200 realizations."""
    corpus = corpus_realizations(
        200, ("path", "cycle", "cycle_pendant", "theta"))
    for r in corpus:
        rep = verify_duality(r)
        assert rep.dual_code == rep.orthogonal_code, rep.summary()
        assert rep.check_space_route == rep.orthogonal_code, rep.summary()
    print("\nACCEPTANCE 1: duality suite on "
          f"{len(corpus)} realizations, both routes bit-exact: PASS")


def _random_ambient(rng, max_order=4096):
    pool = [vector_space(2, 1), vector_space(2, 2), vector_space(3, 1),
            vector_space(5, 1), cyclic_group(4), cyclic_group(6),
            cyclic_group(8), cyclic_group(2, 2), cyclic_group(12)]
    while True:
        k = rng.randrange(1, 4)
        factors = [(i, rng.choice(pool)) for i in range(k)]
        ps = ProductSpace(factors)
        if ps.order <= max_order:
            return ps


def test_criterion_2_algebra_dualities():
    """Projection/cross-section and sum/intersection dualities, double
    orthogonal, and the order product, each against exhaustive enumeration,
    on 1000 random subgroups."""
    rng = random.Random(2024)
    for trial in range(1000):
        amb = _random_ambient(rng)
        rows = [tuple(rng.randrange(m) for m in amb.moduli)
                for _ in range(rng.randrange(0, 4))]
        sub = CodeSubgroup(amb, rows)
        elems = close_rows(amb, rows)
        assert set(sub.elements()) == elems
        perp = sub.orthogonal()
        assert sub.order * perp.order == amb.order
        assert perp.orthogonal() == sub
        for y in perp.rows:
            for x in rows:
                assert amb.pair_nums(x, y) == 0
        # enumeration oracle for the orthogonal on ambients that stay small
        if amb.order <= 512:
            brute = {y for y in amb.elements()
                     if all(amb.pair_nums(x, y) == 0 for x in rows)}
            assert set(perp.elements()) == brute
        # projection / cross-section duality on a random split
        if len(amb.factors) >= 2:
            k = rng.randrange(1, len(amb.factors))
            part = list(amb.labels[:k])
            assert (sub.cross_section(part).orthogonal()
                    == perp.project(part))
            cols = amb.columns(part)
            proj_oracle = {tuple(x[c] for c in cols) for x in elems}
            others = [c for c in range(amb.width) if c not in cols]
            cross_oracle = {tuple(x[c] for c in cols) for x in elems
                            if all(x[c] == 0 for c in others)}
            assert set(sub.project(part).elements()) == proj_oracle
            assert set(sub.cross_section(part).elements()) == cross_oracle
        # sum / intersection duality against a second subgroup
        rows2 = [tuple(rng.randrange(m) for m in amb.moduli)
                 for _ in range(rng.randrange(0, 3))]
        sub2 = CodeSubgroup(amb, rows2)
        elems2 = close_rows(amb, rows2)
        assert sub.sum(sub2).orthogonal() == perp.intersect(sub2.orthogonal())
        assert set(sub.intersect(sub2).elements()) == (elems & elems2)
        assert set(sub.sum(sub2).elements()) == close_rows(
            amb, list(rows) + list(rows2))
    print("\nACCEPTANCE 2: algebra dualities on 1000 subgroups "
          "(order <= 4096), exact: PASS")


def _reassemble_ftsp(code: CodeSubgroup, part_a, part_b):
    """Build the two-interface-node realization and return its code."""
    dec = ftsp_decompose(code, part_a, part_b)
    qa, qb = dec.quot_a, dec.quot_b
    # the quotient isomorphism as an explicit map
    mat = []
    for i in range(qa.alphabet.width):
        e = [0] * qa.alphabet.width
        e[i] = 1
        pair = dec.iso_pairs.lift_prefix([("quot", "a")], tuple(e))
        assert pair is not None
        mat.append(pair[qa.alphabet.width:])
    iso = (Homomorphism(qa.alphabet, qb.alphabet, tuple(mat))
           if qa.alphabet.width else Homomorphism(qa.alphabet, qb.alphabet, ()))

    def sym_name(lab):
        return f"v{lab}"

    symbols = {sym_name(lab): code.ambient.alphabet(lab)
               for lab in list(part_a) + list(part_b)}
    states = {"q": StateVar(qa.alphabet,
                            None if iso.matrix == tuple(
                                tuple(1 if i == j else 0
                                      for j in range(qa.alphabet.width))
                                for i in range(qa.alphabet.width)) else iso)}
    node_a = dec.node_a.renamed(
        {lab: sym_name(lab) for lab in part_a} | {("quot", "a"): "q"})
    node_b = dec.node_b.renamed(
        {lab: sym_name(lab) for lab in part_b} | {("quot", "b"): "q"})
    constraints = {
        "na": Constraint(tuple(node_a.ambient.labels), node_a),
        "nb": Constraint(tuple(node_b.ambient.labels), node_b),
    }
    r = Realization(symbols, states, constraints)
    got = r.code()
    order = [sym_name(lab) for lab in code.ambient.labels]
    return got.permuted(order).renamed(
        {sym_name(lab): lab for lab in code.ambient.labels})


def test_criterion_3_ftsp_suite():
    """All four factor orders coincide and the interface-node realization
    reproduces C exactly, on 500 random subdirect products."""
    rng = random.Random(31337)
    done = 0
    while done < 500:
        amb = _random_ambient(rng, max_order=1024)
        if len(amb.factors) < 2:
            continue
        rows = [tuple(rng.randrange(m) for m in amb.moduli)
                for _ in range(rng.randrange(1, 4))]
        sub = CodeSubgroup(amb, rows)
        k = rng.randrange(1, len(amb.factors))
        pa, pb = list(amb.labels[:k]), list(amb.labels[k:])
        qa = sub.project(pa).order // sub.cross_section(pa).order
        qb = sub.project(pb).order // sub.cross_section(pb).order
        qc = sub.order // (sub.cross_section(pa).order
                           * sub.cross_section(pb).order)
        q4 = (sub.project(pa).order * sub.project(pb).order) // sub.order
        assert qa == qb == qc == q4
        assert _reassemble_ftsp(sub, pa, pb) == sub
        done += 1
    print("\nACCEPTANCE 3: FTSP orders and reassembly on 500 subdirect "
          "products, exact: PASS")


def test_criterion_4_controllability_test():
    """|U|/|B| = |S^c| <= |S| on the corpus; the redundant-check fixture is
    uncontrollable with dims (10, 3, 8, 7); the independent variant is
    controllable."""
    corpus = corpus_realizations(60, ("cycle", "cycle_pendant", "theta"),
                                 start_seed=40_000)
    for r in corpus:
        rep = obs_ctrl(r)
        assert rep.order_universe % rep.order_extended == 0
        assert rep.order_universe // rep.order_extended == rep.int_controllable.order
        assert rep.order_int_states % rep.int_controllable.order == 0
        assert rep.int_controllable_flag == (
            rep.int_controllable.order == rep.order_int_states)
    bad = tanner_realization([[1, 1, 1, 1], [1, 1, 1, 1]], GF2)
    rep = obs_ctrl(bad)
    assert (rep.order_universe, rep.order_extended, rep.order_int_states,
            rep.int_controllable.order) == (2**10, 2**3, 2**8, 2**7)
    assert not rep.int_controllable_flag
    good = tanner_realization([[1, 1, 1, 0], [0, 1, 1, 1]], GF2)
    assert obs_ctrl(good).int_controllable_flag
    print("\nACCEPTANCE 4: controllability test identity on "
          f"{len(corpus)} realizations + fixtures (10,3,8,7): PASS")


def test_criterion_5_obs_ctrl_duality():
    """S^c(R) = (S^u(R°))⊥ exactly, and |S^u| = |S|/|S^c(R°)|."""
    corpus = corpus_realizations(60, ("cycle", "cycle_pendant", "theta"),
                                 start_seed=50_000)
    for r in corpus:
        rep = obs_ctrl(r)
        dual_rep = obs_ctrl(dualize(r))
        assert rep.int_controllable == dual_rep.int_unobservable.orthogonal()
        assert dual_rep.int_controllable == rep.int_unobservable.orthogonal()
        assert rep.int_unobservable.order * dual_rep.int_controllable.order \
            == rep.order_int_states
    print("\nACCEPTANCE 5: observability/controllability duality on "
          f"{len(corpus)} realizations, exact: PASS")


def _side_orders_by_enumeration(r: Realization, edge: str) -> tuple[int, int]:
    """State-order bounds from the code itself, by exhaustive enumeration."""
    sides = r.split([edge]).fragments
    code_elems = list(r.code().elements())
    amb = r.code().ambient
    orders = []
    for frag in sides:
        cols = amb.columns(sorted(frag.symbols, key=sort_key))
        proj = {tuple(c[i] for i in cols) for c in code_elems}
        others = [i for i in range(amb.width) if i not in cols]
        cross = {tuple(c[i] for i in cols) for c in code_elems
                 if all(c[i] == 0 for i in others)}
        orders.append(len(proj) // len(cross))
    return tuple(orders)


HAMMING_G = [
    (1, 0, 0, 0, 1, 1, 0),
    (0, 1, 0, 0, 0, 1, 1),
    (0, 0, 1, 0, 1, 1, 1),
    (0, 0, 0, 1, 1, 0, 1),
]


def test_criterion_6_cycle_free_minimization():
    """Fixpoint of local reductions is trim+proper; every state order equals
    the enumeration-oracle quotient on both sides; specific profiles."""
    checked = 0
    seed = 60_000
    while checked < 100:
        r = random_realization(seed, topology="path", pool=MIXED_POOL)
        seed += 1
        if not r.validate().is_valid or total_coordinates(r) > 12:
            continue
        m = minimize_cycle_free(r)
        assert m.code() == r.code()
        assert minimize_cycle_free(m) == m  # fixpoint
        for j in m.internal_states():
            for cl, _ in m.slots[j]:
                st_frag_trim_proper = True
                # both sides are trim and proper at the edge
                from normgraph.analysis import far_side_fragment
                _, frag, blabel = far_side_fragment(m, cl, j)
                st = trim_proper(frag, blabel)
                assert st.trim and st.proper
            want = _side_orders_by_enumeration(m, j)
            have = m.states[j].alphabet.order
            assert want == (have, have)
        checked += 1

    rep3 = minimize_cycle_free(trellis_realization([(1, 1, 1)], [GF2] * 3))
    assert list(state_orders(rep3).values()) == [2, 2]
    prod = minimize_cycle_free(
        trellis_realization([(1, 1, 0, 0), (0, 0, 1, 1)], [GF2] * 4))
    assert list(state_orders(prod).values()) == [2, 1, 2]
    ham = minimize_cycle_free(trellis_realization(HAMMING_G, [GF2] * 7))
    for j in ham.internal_states():
        want = _side_orders_by_enumeration(ham, j)
        assert want == (ham.states[j].alphabet.order,) * 2
    print("\nACCEPTANCE 6: cycle-free minimization on "
          f"{checked} realizations + rep-3 [2,2], product [2,1,2], "
          "Hamming(7,4) vs oracle: PASS")


# -- criterion 7: connected fragments lemma ---------------------------------------


def _fragment_profile(f: Realization) -> dict[str, bool]:
    ext = f.external_behavior()
    trim = all(trim_proper(f, v).trim for v in ext.ambient.labels)
    proper = all(trim_proper(f, v).proper for v in ext.ambient.labels)
    rep = obs_ctrl(f)
    return {
        "trim": trim,
        "proper": proper,
        "ext_obs": rep.ext_observable,
        "ext_ctrl": rep.ext_controllable,
        "int_obs": rep.int_observable,
        "int_ctrl": rep.int_controllable_flag,
        "tot_obs": rep.tot_observable,
        "tot_ctrl": rep.tot_controllable,
    }


LEMMA_PARTS = {
    "a": (lambda p: p["trim"], "trim"),
    "b": (lambda p: p["proper"], "proper"),
    "c": (lambda p: p["ext_obs"], "ext_obs"),
    "d": (lambda p: p["ext_ctrl"], "ext_ctrl"),
    "e": (lambda p: p["proper"] and p["int_obs"], "int_obs"),
    "f": (lambda p: p["trim"] and p["int_ctrl"], "int_ctrl"),
    "g": (lambda p: p["proper"] and p["tot_obs"], "tot_obs"),
    "h": (lambda p: p["trim"] and p["tot_ctrl"], "tot_ctrl"),
}


def _nice_fragment(seed: int, alpha: Alphabet) -> Realization:
    """Structured fragments that are trim, proper, and fully observable."""
    rng = random.Random(seed)
    kind = rng.randrange(3)
    if kind == 0:
        code = equality_code(alpha, 3)
    elif kind == 1:
        code = zero_sum_code(alpha, 3)
    else:
        # graph of a random unit-diagonal automorphism padded by a symbol
        from tests.oracles import random_automorphism
        phi = random_automorphism(rng, alpha)
        rows = []
        for i in range(alpha.width):
            e = [0] * alpha.width
            e[i] = 1
            img = phi.apply(e) if phi else tuple(e)
            rows.append(tuple(e) + img + tuple(e))
        code = CodeSubgroup(
            ProductSpace([(0, alpha), (1, alpha), (2, alpha)]), rows)
    return Realization(
        symbols={"a0": alpha, "a1": alpha},
        states={"b0": StateVar(alpha)},
        constraints={"c0": Constraint(("a0", "a1", "b0"), code)},
        boundary=["b0"],
    )


def test_criterion_7_connected_fragments_and_two_core_localization():
    """All eight parts of the connected-fragments lemma on >= 200
    hypothesis-satisfying pairs each, plus 2-core localization fixtures."""
    alphas = [GF2, GF3, Z4]
    pool: list[tuple[Realization, dict, Alphabet]] = []
    for seed in range(120):
        alpha = alphas[seed % len(alphas)]
        if seed % 3 == 0:
            f = _nice_fragment(seed, alpha)
        else:
            f = random_fragment(seed, alpha, n_constraints=2)
        if not f.validate().is_valid or len(f.boundary) != 1:
            continue
        pool.append((f, _fragment_profile(f), alpha))

    counts = {part: 0 for part in LEMMA_PARTS}
    rng = random.Random(777)
    pairs = [(i, j) for i in range(len(pool)) for j in range(len(pool))
             if pool[i][2].moduli == pool[j][2].moduli]
    rng.shuffle(pairs)
    joined_cache: dict[tuple[int, int], dict] = {}
    for i, j in pairs:
        if all(c >= 200 for c in counts.values()):
            break
        f1, p1, _ = pool[i]
        f2, p2, _ = pool[j]
        needed = [part for part, (hyp, _) in LEMMA_PARTS.items()
                  if counts[part] < 200 and hyp(p1) and hyp(p2)]
        if not needed:
            continue
        if (i, j) not in joined_cache:
            g2 = _relabeled(f2, "y")
            combined = _relabeled(f1, "x").connect(
                g2, "x.b0", "y.b0")
            joined_cache[(i, j)] = _fragment_profile(combined)
        p12 = joined_cache[(i, j)]
        for part in needed:
            _, conclusion = LEMMA_PARTS[part]
            assert p12[conclusion], (
                f"part ({part}) failed for pair seeds {i},{j}")
            counts[part] += 1
    assert all(c >= 200 for c in counts.values()), counts

    _two_core_localization_fixtures()
    print("\nACCEPTANCE 7: connected-fragments lemma parts (a)-(h) on "
          f">=200 pairs each {dict(counts)}; 2-core localization: PASS")


def _relabeled(f: Realization, prefix: str) -> Realization:
    sym = {f"{prefix}.{k}": a for k, a in f.symbols.items()}
    states = {f"{prefix}.{j}": sv for j, sv in f.states.items()}
    cons = {}
    for cl, con in f.constraints.items():
        cons[f"{prefix}.{cl}"] = Constraint(
            tuple(f"{prefix}.{v}" for v in con.vars), con.code)
    return Realization(sym, states, cons,
                       [f"{prefix}.{b}" for b in f.boundary])


def _planted_ring(alpha: Alphabet, n: int, observable: bool,
                  tree_depth: int) -> Realization:
    """Cyclic core with pendant equality trees hanging off each ring node.

    The zero-sum variant supports the alternating non-zero state cycle with
    all pendant slots zero (internally unobservable); the equality variant
    pins every state to the symbols (observable).  Both are internally trim
    and proper.
    """
    kind = equality_code if observable else zero_sum_code
    symbols = {}
    states = {f"s{t}": StateVar(alpha) for t in range(n)}
    constraints = {}
    for t in range(n):
        symbols[f"a{t}"] = alpha
        states[f"p{t}0"] = StateVar(alpha)
        constraints[f"c{t}"] = Constraint(
            (f"s{t}", f"a{t}", f"s{(t + 1) % n}", f"p{t}0"),
            kind(alpha, 4))
        for d in range(tree_depth):
            last = d == tree_depth - 1
            if last:
                symbols[f"b{t}{d}"] = alpha
                constraints[f"l{t}{d}"] = Constraint(
                    (f"p{t}{d}", f"b{t}{d}"), equality_code(alpha, 2))
            else:
                states[f"p{t}{d+1}"] = StateVar(alpha)
                symbols[f"b{t}{d}"] = alpha
                constraints[f"l{t}{d}"] = Constraint(
                    (f"p{t}{d}", f"b{t}{d}", f"p{t}{d+1}"),
                    equality_code(alpha, 3))
    r = Realization(symbols, states, constraints)
    assert r.validate().is_valid
    return r


def _two_core_localization_fixtures():
    # the alternating state cycle needs an even ring over odd-characteristic
    # alphabets; over GF(2) any length works
    for n, alpha in ((3, GF2), (4, GF2), (4, GF3)):
        for depth in (1, 2):
            grown_u = _planted_ring(alpha, n, observable=False,
                                    tree_depth=depth)
            grown_o = _planted_ring(alpha, n, observable=True,
                                    tree_depth=depth)
            core_u = {f"c{t}" for t in range(n)}
            assert two_core_constraints(grown_u) == core_u
            # theorem: an internally proper cyclic realization is internally
            # observable iff its 2-core is
            bare_u = ring_realization([zero_sum_code(alpha, 3)] * n)
            bare_o = ring_realization([equality_code(alpha, 3)] * n)
            assert not obs_ctrl(bare_u).int_observable
            assert obs_ctrl(bare_o).int_observable
            assert not obs_ctrl(grown_u).int_observable
            assert obs_ctrl(grown_o).int_observable
            # dual statement: internal trimness and controllability
            assert obs_ctrl(dualize(grown_u)).int_controllable_flag is False
            assert obs_ctrl(dualize(grown_o)).int_controllable_flag is True


def test_criterion_8_state_trimness():
    """State-trimness theorem on >= 100 cyclic instances with a non-cut
    edge, against exhaustive transition-space classification."""
    checked = 0
    seed = 80_000
    while checked < 100:
        r = random_realization(seed, topology=("cycle", "theta")[seed % 2],
                               pool=(GF2, GF3, Z4))
        seed += 1
        if not r.validate().is_valid or total_coordinates(r) > 10:
            continue
        edges = [j for j in sorted(r.internal_states())
                 if len(r.slots[j]) == 2]
        from normgraph.graphcore import is_cut_edge
        edges = [j for j in edges if not is_cut_edge(r, j)]
        if not edges:
            continue
        j = edges[seed % len(edges)]
        rep = state_trim_status(r, j)
        assert rep.theorem_obs_holds
        assert rep.theorem_ctrl_holds
        # the dual statement, on the dual realization
        dual_rep = state_trim_status(dualize(r), j)
        assert dual_rep.theorem_obs_holds and dual_rep.theorem_ctrl_holds
        assert rep.state_trim == dual_rep.dual_state_trim
        assert rep.dual_state_trim == dual_rep.state_trim
        # exhaustive classification of U^(\j)
        sp = r.split([j])
        frag = sp.fragments[0]
        if frag.configuration_space_order() <= 2**14:
            oracle = OracleHarness.build(frag)
            got = oracle.cross_section(list(sp.halves[j]))
            assert set(rep.unobservable_transitions.elements()) == got
        checked += 1
    print(f"\nACCEPTANCE 8: state-trimness theorem on {checked} cyclic "
          "instances, both directions, vs exhaustive classification: PASS")


def test_criterion_9_decoding():
    """decode_exact == brute force exactly; rep-3 gives 729/730;
    message_reduce is downstream-invariant; iterative == exact on trees."""
    rng = random.Random(90_001)
    count = 0
    seed = 90_000
    while count < 40:
        r = random_realization(seed, topology="path", pool=(GF2, GF3, Z4))
        seed += 1
        if not r.validate().is_valid or r.configuration_space_order() > 2**12:
            continue
        priors = {
            k: Message(a, tuple(Fraction(rng.randrange(1, 6), 7)
                                for _ in range(a.order)))
            for k, a in r.symbols.items()
        }
        exact = decode_exact(r, priors)
        bf = brute_force_app(r, priors)
        assert exact.symbol_marginals == bf.symbol_marginals
        assert exact.state_marginals == bf.state_marginals
        it_res, it_rep = decode_iterative(r, priors, exact=True)
        assert it_rep.converged and it_rep.iterations == 1
        assert it_res.symbol_marginals == exact.symbol_marginals
        count += 1

    rep3 = trellis_realization([(1, 1, 1)], [GF2] * 3)
    prior = Message(GF2, (Fraction(9, 10), Fraction(1, 10)))
    res = decode_exact(rep3, {k: prior for k in rep3.symbols})
    for k in rep3.symbols:
        assert res.symbol_marginals[k].weights == (
            Fraction(729, 730), Fraction(1, 730))

    # message reduction leaves downstream marginals unchanged (exact zero
    # difference)
    for trial in range(30):
        amb = _random_ambient(rng, max_order=512)
        if len(amb.factors) < 2:
            continue
        rows = [tuple(rng.randrange(m) for m in amb.moduli)
                for _ in range(rng.randrange(1, 3))]
        code = CodeSubgroup(amb, rows)
        labels = list(amb.labels)
        msgs = {
            lab: Message(amb.alphabet(lab),
                         tuple(Fraction(rng.randrange(0, 5))
                               for _ in range(amb.alphabet(lab).order)))
            for lab in labels
        }
        target = labels[-1]
        reduce_at = labels[0]
        incoming = {lab: msgs[lab] for lab in labels if lab != target}
        base = sp_update(code, incoming, target)
        red = message_reduce(code, reduce_at, msgs[reduce_at])
        incoming[reduce_at] = message_expand(red, amb.alphabet(reduce_at))
        assert sp_update(code, incoming, target).weights == base.weights
    print(f"\nACCEPTANCE 9: exact decoding == brute force on {count} trees, "
          "rep-3 marginal 729/730, reduction-invariance exact: PASS")


def test_criterion_10_graph_suite():
    """Cyclomatic number vs brute force; order-independent 2-cores; second
    canonical decomposition round-trips the code exactly."""
    rng = random.Random(100_100)
    graphs = corpus_realizations(
        40, ("path", "cycle", "cycle_pendant", "theta"), max_coords=14,
        start_seed=101_000)
    for r in graphs:
        edges = [j for j in r.internal_states() if len(r.slots[j]) == 2]
        assert len(edges) <= 12
        want = cyclomatic_number(r)
        best = None
        for k in range(len(edges) + 1):
            for subset in itertools.combinations(edges, k):
                remaining = len(edges) - k
                if remaining - len(r.constraints) \
                        + len(r.components(set(subset))) == 0:
                    best = k
                    break
            if best is not None:
                break
        assert best == want
        # two-core invariance under stripping order
        if r.is_connected:
            base = two_core_constraints(r)
            for s in range(4):
                assert two_core_constraints(r, random.Random(s)) == base
            dec = two_core(r)
            if dec.core is not None:
                assert cyclomatic_number(dec.core) == cyclomatic_number(r)
                again = two_core(dec.core)
                assert again.core == dec.core and not again.leaves

    # second canonical decomposition round-trips C on trim+proper cores
    count = 0
    seed = 102_000
    while count < 15:
        r = random_realization(seed, topology="cycle_pendant",
                               pool=(GF2, GF3, Z4))
        seed += 1
        if not r.validate().is_valid or total_coordinates(r) > 12:
            continue
        core_in = canonical_decomposition(r).core
        if cyclomatic_number(core_in) == 0:
            continue
        dec = second_canonical_decomposition(core_in)
        assert dec.orders_match
        rebuilt = _reassemble_two_core(core_in)
        assert rebuilt.code() == core_in.code()
        count += 1
    print(f"\nACCEPTANCE 10: graph suite on {len(graphs)} graphs; second "
          f"decomposition round-trips on {count} cores: PASS")


def _reassemble_two_core(r: Realization) -> Realization:
    dec = two_core(r)
    if dec.core is None:
        return r
    current = dec.core
    for leaf in dec.leaves:
        core_b = dec.core_boundary_of[leaf.edge]
        iso = r.states[leaf.edge].iso
        if core_b == leaf.edge:  # core holds the tail end
            current = current.connect(leaf.fragment, core_b,
                                      leaf.boundary_var, iso=iso)
        else:
            current = leaf.fragment.connect(current, leaf.edge, core_b,
                                            iso=iso)
    return current
