"""Condensed differential stress sweep over exotic alphabets.

Pushes the machinery where the fixed fixtures do not: moduli 8 and 12
(lifted modulus 24), multi-coordinate alphabets, and isomorphism labels on
half of all edges.  Everything is compared against enumeration oracles or
exact identities.
"""

from __future__ import annotations

import random
from fractions import Fraction

from normgraph.alphabets import cyclic_group, vector_space
from normgraph.analysis import canonical_decomposition, obs_ctrl, state_trim_status
from normgraph.decode import Message, decode_exact
from normgraph.duality import dualize, verify_duality
from normgraph.graphcore import (
    cyclomatic_number,
    internally_trim_proper,
    is_cut_edge,
    second_canonical_decomposition,
)
from normgraph.minimize import minimize_cycle_free, verify_state_space_theorem
from tests.oracles import OracleHarness, brute_force_app, random_realization

POOL = (vector_space(2, 1), vector_space(3, 1), vector_space(5, 1),
        cyclic_group(4), cyclic_group(8), cyclic_group(12),
        cyclic_group(2, 4), vector_space(2, 3))

TOPOS = ("cycle", "theta", "cycle_pendant", "path")


def stream(count, base_seed, cap=None):
    seed = base_seed
    produced = 0
    while produced < count:
        r = random_realization(seed, topology=TOPOS[seed % 4], pool=POOL,
                               iso_prob=0.5)
        seed += 1
        if not r.validate().is_valid:
            continue
        if cap is not None and r.configuration_space_order() > cap:
            continue
        produced += 1
        yield r


def test_stress_duality_and_behavior_oracle():
    for r in stream(60, 1_000_000):
        rep = verify_duality(r)
        assert rep.passed, rep.summary()
        assert dualize(dualize(r)) == r
    for r in stream(25, 1_100_000, cap=2**12):
        oracle = OracleHarness.build(r)
        assert oracle.projection(oracle.syms) == set(r.code().elements())
        assert oracle.unobservable_states() == set(
            obs_ctrl(r).int_unobservable.elements())


def test_stress_reduction_and_decomposition():
    mins = decs = 0
    for r in stream(50, 2_000_000):
        if cyclomatic_number(r) == 0 and r.is_connected:
            m = minimize_cycle_free(r)
            assert m.code() == r.code()
            for j in m.internal_states():
                assert verify_state_space_theorem(m, j).passed
            mins += 1
        else:
            dec = canonical_decomposition(r)
            assert internally_trim_proper(dec.core)
            assert dec.compose().code() == r.code()
            if r.is_connected and cyclomatic_number(dec.core) > 0:
                assert second_canonical_decomposition(dec.core).orders_match
            for j in sorted(r.internal_states()):
                if len(r.slots[j]) == 2 and not is_cut_edge(r, j):
                    srep = state_trim_status(r, j)
                    assert srep.theorem_obs_holds and srep.theorem_ctrl_holds
                    break
            decs += 1
    assert mins >= 8 and decs >= 25


def test_stress_exact_decode_with_isos():
    rng = random.Random(99)
    done = 0
    for r in stream(60, 3_000_000, cap=2**12):
        if cyclomatic_number(r) != 0 or not r.is_connected:
            continue
        priors = {k: Message(a, tuple(Fraction(rng.randrange(1, 7), 11)
                                      for _ in range(a.order)))
                  for k, a in r.symbols.items()}
        res = decode_exact(r, priors)
        bf = brute_force_app(r, priors)
        assert res.symbol_marginals == bf.symbol_marginals
        assert res.state_marginals == bf.state_marginals
        done += 1
    assert done >= 10
