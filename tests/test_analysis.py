"""Trim/proper analysis, local reduction, obs/ctrl suite, state-trimness."""

from __future__ import annotations

import random

import pytest

from normgraph.alphabets import ProductSpace, vector_space
from normgraph.analysis import (
    behavioral_ctrl_obs,
    canonical_decomposition,
    local_reduce,
    obs_ctrl,
    state_trim_status,
    trim_proper,
    verify_controllability,
)
from normgraph.corpus import (
    GF2,
    GF3,
    Z4,
    OracleHarness,
    equality_node,
    random_realization,
    ring_realization,
    single_node,
    tail_biting_rep2,
    tanner_realization,
    trellis_realization,
    zero_sum_code,
)
from normgraph.duality import dualize
from normgraph.errors import EdgeIsCutSet, FragmentsOverlap, NotAStateEdge
from normgraph.realization import Constraint, Realization, StateVar
from normgraph.subgroups import CodeSubgroup


def test_trim_proper_worked_examples():
    eq = equality_node(GF2, 3)
    for v in eq.symbols:
        st = trim_proper(eq, v)
        assert st.trim and st.proper

    amb = ProductSpace([(0, GF2), (1, GF2)])
    low = single_node(CodeSubgroup(amb, [(0, 1)]))
    st = trim_proper(low, "a0")
    assert not st.trim and st.proper
    assert st.trimmed.is_trivial

    high = single_node(CodeSubgroup(amb, [(1, 0)]))
    st = trim_proper(high, "a0")
    assert st.trim and not st.proper
    assert st.nondynamical.order == 2


def test_trim_proper_duality():
    rng = random.Random(137)
    checked = 0
    for seed in range(30):
        r = random_realization(seed, topology=rng.choice(["path", "cycle"]))
        if not r.validate().is_valid:
            continue
        rd = dualize(r)
        for v in sorted(r.symbols):
            st = trim_proper(r, v)
            dual_st = trim_proper(rd, v)
            assert st.trim == dual_st.proper
            assert st.proper == dual_st.trim
            checked += 1
    assert checked >= 20


def oversized_rep_trellis():
    """Repetition code trellis with a wastefully padded GF(2)^2 state."""
    big = vector_space(2, 2)
    c1 = CodeSubgroup(ProductSpace([(0, GF2), (1, big)]), [(1, 1, 0)])
    c2 = CodeSubgroup(ProductSpace([(0, big), (1, GF2)]), [(1, 0, 1)])
    return Realization(
        symbols={"a0": GF2, "a1": GF2},
        states={"s": StateVar(big)},
        constraints={"c0": Constraint(("a0", "s"), c1),
                     "c1": Constraint(("s", "a1"), c2)},
    )


def test_local_reduce_shrinks_padded_state():
    r = oversized_rep_trellis()
    code_before = r.code()
    reduced = local_reduce(r, "c1", "s")
    assert reduced.states["s"].alphabet.order == 2
    assert reduced.code() == code_before
    # no-op when already trim and proper
    again = local_reduce(reduced, "c1", "s")
    assert again is reduced


def test_local_reduce_deletes_fully_unobservable_state():
    # far side lets the state float freely regardless of its symbol
    amb = ProductSpace([(0, GF2), (1, GF2)])
    free = CodeSubgroup(amb, [(1, 0), (0, 1)])
    ident = CodeSubgroup(amb, [(1, 1)])
    r = Realization(
        symbols={"a0": GF2, "a1": GF2},
        states={"s": StateVar(GF2)},
        constraints={"c0": Constraint(("a0", "s"), free),
                     "c1": Constraint(("s", "a1"), ident)},
    )
    reduced = local_reduce(r, "c1", "s")
    assert reduced.states["s"].alphabet.order == 1
    assert reduced.code() == r.code()


def test_local_reduce_errors():
    r = oversized_rep_trellis()
    with pytest.raises(NotAStateEdge):
        local_reduce(r, "c0", "a0")
    with pytest.raises(NotAStateEdge):
        local_reduce(r, "nope", "s")


def test_local_reduce_preserves_code_randomized():
    count = 0
    for seed in range(40):
        r = random_realization(seed, topology="path", n_constraints=3)
        if not r.validate().is_valid:
            continue
        want = r.code()
        for j in sorted(r.internal_states()):
            for cl, _ in r.slots[j]:
                reduced = local_reduce(r, cl, j)
                assert reduced.code() == want
                assert reduced.states[j].alphabet.order <= \
                    r.states[j].alphabet.order
                count += 1
    assert count >= 40


def test_canonical_decomposition_identity_case():
    r = equality_node(GF3, 3)
    dec = canonical_decomposition(r)
    assert dec.interfaces == {}
    assert dec.core.code() == r.code()


def test_canonical_decomposition_weight_one_symbol():
    # C = {00, 01}: second symbol is nondynamical
    amb = ProductSpace([(0, GF2), (1, GF2)])
    r = single_node(CodeSubgroup(amb, [(0, 1)]))
    dec = canonical_decomposition(r)
    assert "a1" in dec.interfaces
    node = dec.interfaces["a1"]
    assert node.nondynamical.order == 2
    assert node.quotient.order == 1
    assert dec.compose().code() == r.code()


def test_canonical_decomposition_untrimmed_symbol():
    # symbol never takes the value 1: interface trims it
    amb = ProductSpace([(0, Z4), (1, Z4)])
    r = single_node(CodeSubgroup(amb, [(2, 1)]))
    dec = canonical_decomposition(r)
    assert "a0" in dec.interfaces
    assert dec.interfaces["a0"].trimmed.order == 2
    assert dec.compose().code() == r.code()


def test_canonical_decomposition_randomized_composition():
    done = 0
    for seed in range(30):
        r = random_realization(seed, topology="cycle", n_constraints=3)
        if not r.validate().is_valid:
            continue
        dec = canonical_decomposition(r)
        # every core constraint is trim and proper at every slot
        from normgraph.graphcore import internally_trim_proper
        assert internally_trim_proper(dec.core)
        assert dec.compose().code() == r.code()
        done += 1
    assert done >= 20


def redundant_checks():
    """Tanner realization of two identical parity checks on four symbols."""
    return tanner_realization([[1, 1, 1, 1], [1, 1, 1, 1]], GF2)


def independent_checks():
    return tanner_realization([[1, 1, 1, 0], [0, 1, 1, 1]], GF2)


def test_controllability_fixture_dimensions():
    r = redundant_checks()
    rep = obs_ctrl(r)
    assert (rep.order_universe, rep.order_extended, rep.order_int_states,
            rep.int_controllable.order) == (2**10, 2**3, 2**8, 2**7)
    assert rep.int_observable and not rep.int_controllable_flag
    assert verify_controllability(r)

    good = independent_checks()
    assert obs_ctrl(good).int_controllable_flag
    assert obs_ctrl(good).int_observable


def test_controllability_oracle_randomized():
    done = 0
    for seed in range(25):
        r = random_realization(seed, topology="cycle", n_constraints=3)
        if not r.validate().is_valid:
            continue
        if r.configuration_space_order() > 2**14:
            continue
        rep = obs_ctrl(r)
        oracle = OracleHarness.build(r)
        assert set(rep.int_unobservable.elements()) == oracle.unobservable_states()
        try:
            syndromes = oracle.controllable_syndromes(cap=2**16)
        except Exception:
            continue
        assert set(rep.int_controllable.elements()) == syndromes
        assert verify_controllability(r)
        assert rep.order_universe // rep.order_extended == rep.int_controllable.order
        done += 1
    assert done >= 12


def test_single_constraint_trivially_internal():
    r = equality_node(GF2, 3)
    rep = obs_ctrl(r)
    assert rep.int_observable and rep.int_controllable_flag
    assert rep.tot_observable == (rep.ext_observable and rep.int_observable)


def test_tail_biting_rep2_test_identity():
    # the classic tail-biting repetition realization: observable but not
    # controllable; the test identity dim U - dim B = dim S^c still holds
    r = tail_biting_rep2()
    rep = obs_ctrl(r)
    assert (rep.order_universe, rep.order_extended, rep.order_int_states,
            rep.int_controllable.order) == (2**2, 2**1, 2**2, 2**1)
    assert rep.order_universe // rep.order_extended == rep.int_controllable.order
    assert not rep.int_controllable_flag
    assert rep.int_observable


def test_unobs_ctrl_duality_and_size_identity():
    done = 0
    for seed in range(25):
        r = random_realization(seed, topology="cycle", n_constraints=3)
        if not r.validate().is_valid:
            continue
        rep = obs_ctrl(r)
        dual_rep = obs_ctrl(dualize(r))
        assert rep.int_controllable == dual_rep.int_unobservable.orthogonal()
        assert dual_rep.int_controllable == rep.int_unobservable.orthogonal()
        # |S^u| = |S| / |dual S^c|
        assert rep.int_unobservable.order == (
            rep.order_int_states // dual_rep.int_controllable.order)
        done += 1
    assert done >= 15


def test_behavioral_full_product_and_rep_split():
    # three equality constraints in a path realizing the repetition code:
    # the two outer fragments are fully correlated through the middle
    r = trellis_realization([(1, 1, 1, 1)], [GF2] * 4)
    rep = behavioral_ctrl_obs(r, ["c0"], ["c3"])
    assert not rep.controllable
    assert not rep.direct_controllable
    # a direct product code aligned with the split is behaviorally both
    r2 = trellis_realization([(1, 1, 0, 0), (0, 0, 1, 1)], [GF2] * 4)
    rep2 = behavioral_ctrl_obs(r2, ["c0"], ["c3"])
    assert rep2.controllable and rep2.direct_controllable
    assert rep2.observable and rep2.direct_observable
    # full product space: behaviorally controllable for any split
    r3 = trellis_realization(
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], [GF2] * 4)
    rep3 = behavioral_ctrl_obs(r3, ["c0"], ["c3"])
    assert rep3.controllable and rep3.direct_controllable


def test_behavioral_guards():
    r = trellis_realization([(1, 1, 1)], [GF2] * 3)
    with pytest.raises(FragmentsOverlap):
        behavioral_ctrl_obs(r, ["c0"], ["c0"])
    with pytest.raises(FragmentsOverlap):
        behavioral_ctrl_obs(r, ["c0", "c1"], ["c2"])  # no remainder


def test_behavioral_theorem_implies_direct():
    done = 0
    for seed in range(40):
        r = random_realization(seed, topology="path", n_constraints=4)
        if not r.validate().is_valid:
            continue
        labels = sorted(r.constraints)
        rep = behavioral_ctrl_obs(r, [labels[0]], [labels[-1]])
        if rep.controllable:
            assert rep.direct_controllable
        if rep.observable:
            assert rep.direct_observable
        done += 1
    assert done >= 25


def test_state_trim_status_minimal_ring():
    r = tail_biting_rep2()
    rep = state_trim_status(r, "s0")
    assert rep.state_trim
    assert rep.dual_state_trim
    assert rep.theorem_obs_holds and rep.theorem_ctrl_holds


def test_state_trim_status_padded_state():
    # pad the ring state alphabet: unreachable state values break trimness
    big = vector_space(2, 2)
    sec = CodeSubgroup(
        ProductSpace([(0, big), (1, GF2), (2, big)]), [(1, 0, 1, 1, 0)])
    r = ring_realization([sec, sec])
    rep = state_trim_status(r, "s0")
    assert not rep.state_trim
    assert rep.theorem_obs_holds and rep.theorem_ctrl_holds


def test_state_trim_cut_edge_guard():
    r = trellis_realization([(1, 1, 1)], [GF2] * 3)
    with pytest.raises(EdgeIsCutSet):
        state_trim_status(r, "s1")


def test_state_trim_randomized_theorems():
    done = 0
    for seed in range(30):
        r = random_realization(seed, topology="cycle", n_constraints=3)
        if not r.validate().is_valid:
            continue
        for j in sorted(r.internal_states()):
            rep = state_trim_status(r, j)
            assert rep.theorem_obs_holds
            assert rep.theorem_ctrl_holds
            # exhaustive classification of the transition space
            sp = r.split([j])
            oracle = OracleHarness.build(sp.fragments[0])
            got = oracle.external_cross_section(list(sp.halves[j]))
            assert set(rep.unobservable_transitions.elements()) == got
            done += 1
            break
    assert done >= 15


def proper_tree_fragment(seed):
    """Random tree of equality/zero-sum nodes: trim and proper at all slots."""
    from normgraph.corpus import equality_code, zero_sum_code

    rng = random.Random(seed)
    alpha = rng.choice([GF2, GF3, Z4])
    n = rng.randrange(2, 5)
    symbols, states, constraints = {}, {}, {}
    for i in range(n):
        vars_ = []
        if i > 0:
            parent = rng.randrange(i)
            states[f"s{i}"] = StateVar(alpha)
            vars_.append(f"s{i}")
            pv = constraints[f"c{parent}"].vars + (f"s{i}",)
            kind = equality_code if rng.random() < 0.5 else zero_sum_code
            constraints[f"c{parent}"] = Constraint(
                pv, kind(alpha, len(pv)))
        symbols[f"a{i}"] = alpha
        vars_.append(f"a{i}")
        kind = equality_code if rng.random() < 0.5 else zero_sum_code
        constraints[f"c{i}"] = Constraint(tuple(vars_), kind(alpha, len(vars_)))
    states["b"] = StateVar(alpha)
    root = constraints["c0"]
    new_vars = root.vars + ("b",)
    kind = equality_code if rng.random() < 0.5 else zero_sum_code
    constraints["c0"] = Constraint(new_vars, kind(alpha, len(new_vars)))
    return Realization(symbols, states, constraints, boundary=["b"])


def test_cycle_free_fragment_theorem():
    """Internally proper cycle-free fragments are proper and internally
    observable; internally trim ones are trim and internally controllable."""
    from normgraph.graphcore import constraint_trim_proper, cyclomatic_number
    from normgraph.corpus import random_fragment

    proper_done = trim_done = 0
    pool = [proper_tree_fragment(s) for s in range(40)]
    pool += [random_fragment(s, (GF2, GF3, Z4)[s % 3], n_constraints=3)
             for s in range(200, 280)]
    for f in pool:
        if not f.validate().is_valid or cyclomatic_number(f) != 0:
            continue
        tp = [constraint_trim_proper(c.code) for c in f.constraints.values()]
        ext = f.external_behavior()
        if all(p for _, p in tp):
            assert all(trim_proper(f, v).proper for v in ext.ambient.labels)
            assert obs_ctrl(f).int_observable
            proper_done += 1
        if all(t for t, _ in tp):
            assert all(trim_proper(f, v).trim for v in ext.ambient.labels)
            assert obs_ctrl(f).int_controllable_flag
            trim_done += 1
    assert proper_done >= 30 and trim_done >= 30


def test_minimal_trellis_fragment_obs_ctrl():
    from normgraph.minimize import minimize_cycle_free
    from normgraph.corpus import trellis_realization

    m = minimize_cycle_free(
        trellis_realization([(1, 1, 0, 0), (0, 1, 1, 1)], [GF2] * 4))
    frag = m.split(["s1", "s3"]).fragments
    mid = next(f for f in frag if len(f.boundary) == 2)
    rep = obs_ctrl(mid)
    assert rep.int_observable and rep.int_controllable_flag
    # externally controllable iff every boundary state pair is reachable
    pairs = mid.external_behavior().project(list(mid.boundary))
    assert rep.ext_controllable == pairs.is_full
