"""Sum-product decoding: exact vs brute force, schedules, message reduction."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from normgraph.alphabets import ProductSpace, cyclic_group
from normgraph.corpus import (
    GF2,
    GF3,
    equality_code,
    tail_biting_rep2,
    trellis_realization,
    zero_sum_code,
)
from normgraph.decode import (
    Message,
    decode_exact,
    decode_iterative,
    indicator_message,
    message_expand,
    message_reduce,
    sp_update,
    uniform_message,
)
from normgraph.errors import MissingIncoming, NotCycleFree, WeightOverflow
from normgraph.serialize import realization_from_json
from normgraph.subgroups import CodeSubgroup
from tests.oracles import brute_force_app, random_realization


def fr(*nums):
    return tuple(Fraction(n) if not isinstance(n, Fraction) else n for n in nums)


def test_sp_update_equality_consensus():
    code = equality_code(GF2, 3)
    m = Message(GF2, fr(1, 0))
    out = sp_update(code, {0: m, 1: m}, 2)
    assert out.weights == fr(1, 0)


def test_sp_update_zero_sum_example():
    code = zero_sum_code(GF2, 3)
    m = Message(GF2, (Fraction(9, 10), Fraction(1, 10)))
    out = sp_update(code, {0: m, 1: m}, 2)
    assert out.weights == (Fraction(82, 100), Fraction(18, 100))


def test_sp_update_counting_case():
    code = zero_sum_code(GF3, 3)
    u = uniform_message(GF3)
    out = sp_update(code, {0: u, 1: u}, 2)
    # |C(v)| is constant = 3 for each v
    assert out.weights == fr(3, 3, 3)
    with pytest.raises(MissingIncoming):
        sp_update(code, {0: u}, 2)


def test_rep3_exact_marginals():
    r = trellis_realization([(1, 1, 1)], [GF2] * 3)
    prior = Message(GF2, (Fraction(9, 10), Fraction(1, 10)))
    res = decode_exact(r, {k: prior for k in r.symbols})
    for k in r.symbols:
        assert res.symbol_marginals[k].weights == (
            Fraction(729, 730), Fraction(1, 730))
    # brute force agrees exactly
    bf = brute_force_app(r, {k: prior for k in r.symbols})
    assert bf.symbol_marginals == res.symbol_marginals
    assert bf.state_marginals == res.state_marginals


def test_exact_mode_with_float_priors_returns_fractions():
    """A float weight is read as the exact binary fraction it holds, so
    exact mode never mixes floats into its marginals."""
    r = trellis_realization([(1, 1, 1)], [GF2] * 3)
    res = decode_exact(r, {"a0": Message(GF2, (0.9, 0.1))})
    bf = brute_force_app(r, {"a0": Message(GF2, fr(0.9, 0.1))})
    assert res.symbol_marginals == bf.symbol_marginals
    assert res.state_marginals == bf.state_marginals
    for m in (*res.symbol_marginals.values(), *res.state_marginals.values()):
        assert all(type(w) is Fraction for w in m.weights)
    # 0.9 + 0.1 is not 1 in binary, so the marginal is the normalized prior
    assert res.symbol_marginals["a1"] == Message(GF2, fr(0.9, 0.1)).normalized()


def test_uniform_priors_count_codewords():
    r = trellis_realization([(1, 1, 0), (0, 1, 1)], [GF2] * 3)
    res = decode_exact(r)
    bf = brute_force_app(r)
    assert res.symbol_marginals == bf.symbol_marginals


def test_indicator_prior_pins_codeword():
    r = trellis_realization([(1, 1, 1)], [GF2] * 3)
    priors = {k: indicator_message(GF2, (1,)) for k in r.symbols}
    res = decode_exact(r, priors)
    for k in r.symbols:
        assert res.symbol_marginals[k].weights == fr(0, 1)
    assert not res.contradiction


def test_exact_equals_brute_force_randomized():
    done = 0
    rng = random.Random(139)
    for seed in range(30):
        r = random_realization(seed, topology="path", n_constraints=3)
        if not r.validate().is_valid:
            continue
        priors = {}
        for k, alpha in r.symbols.items():
            w = tuple(Fraction(rng.randrange(1, 6), 7) for _ in range(alpha.order))
            priors[k] = Message(alpha, w)
        res = decode_exact(r, priors)
        bf = brute_force_app(r, priors)
        assert res.symbol_marginals == bf.symbol_marginals
        assert res.state_marginals == bf.state_marginals
        done += 1
    assert done >= 20


def test_exact_with_edge_isomorphism():
    Z4 = cyclic_group(4)
    from tests.oracles import z4_sample_realizations
    r = z4_sample_realizations()[2]  # identity graphs joined by x -> 3x
    rng = random.Random(141)
    priors = {k: Message(Z4, tuple(Fraction(rng.randrange(1, 5), 5)
                                   for _ in range(4)))
              for k in r.symbols}
    res = decode_exact(r, priors)
    bf = brute_force_app(r, priors)
    assert res.symbol_marginals == bf.symbol_marginals
    assert res.state_marginals == bf.state_marginals


def test_contradictory_priors_flagged():
    r = trellis_realization([(1, 1, 1)], [GF2] * 3)
    priors = {
        "a0": indicator_message(GF2, (1,)),
        "a1": indicator_message(GF2, (0,)),
        "a2": uniform_message(GF2),
    }
    res = decode_exact(r, priors)
    assert res.contradiction
    assert all(m.is_zero for m in res.symbol_marginals.values())


def test_iterative_on_cycle_free_equals_exact():
    r = trellis_realization([(1, 1, 0), (0, 1, 1)], [GF2] * 3)
    prior = Message(GF2, (Fraction(3, 4), Fraction(1, 4)))
    priors = {k: prior for k in r.symbols}
    res, report = decode_iterative(r, priors, exact=True)
    assert report.converged and report.iterations == 1
    assert res.symbol_marginals == decode_exact(r, priors).symbol_marginals


def test_iterative_tail_biting_converges_to_dominant():
    r = tail_biting_rep2()
    prior = Message(GF2, (0.9, 0.1))
    res, report = decode_iterative(r, {k: prior for k in r.symbols},
                                   max_iters=50)
    assert report.converged
    bf = brute_force_app(r, {k: Message(GF2, (Fraction(9, 10), Fraction(1, 10)))
                             for k in r.symbols})
    for k in r.symbols:
        got = res.symbol_marginals[k].weights
        want = bf.symbol_marginals[k].weights
        assert got[0] > got[1]
        assert abs(got[0] - float(want[0])) < 0.2


def test_iterative_presolves_leaf_fragments():
    """Cyclic core with a pendant tree: tree messages are computed once and
    final marginals still match brute force on the dominant weights."""
    from tests.test_graphcore import parallel_transition_ring

    r = parallel_transition_ring()
    # clean evidence for the codeword a0=a1=1, b0=1, b1=0
    strong = Message(GF2, (Fraction(1, 10), Fraction(9, 10)))
    weak = Message(GF2, (Fraction(9, 10), Fraction(1, 10)))
    priors = {"a0": strong, "a1": strong, "b0": strong, "b1": weak}
    res, report = decode_iterative(r, priors, exact=True, max_iters=60)
    assert report.converged
    bf = brute_force_app(r, priors)
    # iterative decoding on a cyclic graph is not exact, but with clean
    # priors the favored value agrees with the true APP at every symbol
    for k in r.symbols:
        got = res.symbol_marginals[k].weights
        want = bf.symbol_marginals[k].weights
        assert got.index(max(got)) == want.index(max(want))


def test_iterative_serial_and_damping_run():
    r = tail_biting_rep2()
    prior = Message(GF2, (0.8, 0.2))
    res1, rep1 = decode_iterative(r, {k: prior for k in r.symbols},
                                  schedule="serial")
    res2, rep2 = decode_iterative(r, {k: prior for k in r.symbols},
                                  damping=0.3)
    assert rep1.converged and rep2.converged
    for k in r.symbols:
        assert abs(res1.symbol_marginals[k].weights[0]
                   - res2.symbol_marginals[k].weights[0]) < 1e-5


def test_message_reduce_trim_and_merge():
    # C = {00, 11, 22, 33} over Z4 x Z4 restricted: use a code untrimmed at
    # slot 1 and improper at slot 0
    Z4 = cyclic_group(4)
    amb = ProductSpace([(0, Z4), (1, Z4)])
    code = CodeSubgroup(amb, [(1, 2)])  # {(c, 2c)}: slot1 values {0,2}
    msg = Message(Z4, fr(1, 2, 3, 4))
    red = message_reduce(code, 1, msg)
    # C|1 = {0,2}, C:1 = {0}: trim drops weights at 1 and 3
    assert red.quotient.group.order == 2
    assert red.quotient.order == 2
    expanded = message_expand(red, Z4)
    assert expanded.weights[1] == 0 and expanded.weights[3] == 0
    assert expanded.weights[0] == 1 and expanded.weights[2] == 3

    red0 = message_reduce(code, 0, msg)
    # C|0 = Z4 but C:0 = {0, 2}: cosets {0,2} and {1,3} merge
    assert red0.quotient.order == 2
    assert sorted(red0.message.weights) == [Fraction(4), Fraction(6)]

    # a trim and proper slot reduces to an identity (up to the relabeling
    # that expansion undoes)
    ident = CodeSubgroup(amb, [(1, 1)])
    red1 = message_reduce(ident, 0, msg)
    assert red1.quotient.order == 4
    assert message_expand(red1, Z4).weights == msg.weights


def test_message_reduce_single_coset():
    amb = ProductSpace([(0, GF2), (1, GF2)])
    code = CodeSubgroup(amb, [(1, 0), (0, 1)])  # full: C:0 = GF2
    msg = Message(GF2, fr(3, 5))
    red = message_reduce(code, 0, msg)
    assert red.quotient.order == 1
    assert red.message.weights == (Fraction(8),)


def test_sp_update_commutes_with_message_reduce():
    rng = random.Random(149)
    for _ in range(20):
        alphas = [rng.choice([GF2, GF3, cyclic_group(4)]) for _ in range(3)]
        amb = ProductSpace(list(enumerate(alphas)))
        rows = [tuple(rng.randrange(m) for m in amb.moduli)
                for _ in range(rng.randrange(1, 3))]
        code = CodeSubgroup(amb, rows)
        msgs = {
            i: Message(alphas[i], tuple(Fraction(rng.randrange(0, 5))
                                        for _ in range(alphas[i].order)))
            for i in range(3)
        }
        base = sp_update(code, {0: msgs[0], 1: msgs[1]}, 2)
        red = message_reduce(code, 0, msgs[0])
        replaced = message_expand(red, alphas[0])
        again = sp_update(code, {0: replaced, 1: msgs[1]}, 2)
        assert base.weights == again.weights


def test_output_coset_constancy():
    """Updates through an untrimmed/improper constraint stay constant on
    cosets of the cross-section and vanish off the projection."""
    rng = random.Random(151)
    for _ in range(20):
        Z4 = cyclic_group(4)
        alphas = [rng.choice([GF2, Z4]) for _ in range(2)] + [Z4]
        amb = ProductSpace(list(enumerate(alphas)))
        rows = [tuple(rng.randrange(m) for m in amb.moduli)
                for _ in range(rng.randrange(1, 3))]
        code = CodeSubgroup(amb, rows)
        msgs = {
            i: Message(alphas[i], tuple(Fraction(rng.randrange(0, 5))
                                        for _ in range(alphas[i].order)))
            for i in range(2)
        }
        out = sp_update(code, msgs, 2)
        proj = set(code.project([2]).elements())
        cross = code.cross_section([2])
        for v in alphas[2].elements():
            if v not in proj:
                assert out.weight_of(v) == 0
            else:
                for d in cross.elements():
                    shifted = alphas[2].add(v, d)
                    assert out.weight_of(shifted) == out.weight_of(v)


def test_homogeneity_of_update():
    code = zero_sum_code(GF2, 3)
    m1 = Message(GF2, fr(2, 3))
    m2 = Message(GF2, fr(1, 4))
    out = sp_update(code, {0: m1, 1: m2}, 2)
    scaled = sp_update(code, {0: Message(GF2, fr(4, 6)), 1: m2}, 2)
    assert scaled.weights == tuple(2 * w for w in out.weights)


def test_message_weights_must_be_finite():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            Message(GF2, (bad, 1.0))
    with pytest.raises(ValueError, match="nonnegative"):
        Message(GF2, (-math.inf, 1.0))
    huge = Fraction(10) ** 400             # finite, though beyond any float
    assert Message(GF2, (huge, Fraction(1))).normalized().weights[1] == 1 / (huge + 1)


def test_float_overflow_in_a_marginal_is_an_error():
    """Two symbols under one parity check with priors near the float
    range: their product overflows, which is reported, not returned."""
    r = realization_from_json({
        "alphabets": {"F": {"field": 2}},
        "symbols": [{"id": "a0", "alphabet": "F"}, {"id": "a1", "alphabet": "F"}],
        "states": [],
        "constraints": [{"id": "c0", "vars": ["a0", "a1"], "generators": [[1, 1]]}],
    })
    big = Message(GF2, (1e300, 1.0))
    with pytest.raises(WeightOverflow, match="'a0'"):
        decode_iterative(r, {"a0": big, "a1": big})
    res, _ = decode_iterative(r, {"a0": Message(GF2, (1e150, 1.0)),
                                  "a1": Message(GF2, (1e150, 1.0))})
    assert res.symbol_marginals["a0"].weights == (1.0, 1e-300)


def test_decode_exact_rejects_cycles():
    with pytest.raises(NotCycleFree):
        decode_exact(tail_biting_rep2())


def test_extrinsic_information_coset_constancy():
    """The outgoing message of an interface node informs the symbol only
    modulo the nondynamical alphabet."""
    from normgraph.analysis import canonical_decomposition
    from normgraph.corpus import single_node
    from normgraph.alphabets import vector_space

    big = vector_space(2, 2)
    amb = ProductSpace([(0, big), (1, big)])
    # second symbol only sees the first coordinate of the first symbol
    r = single_node(CodeSubgroup(amb, [(1, 0, 1, 0), (0, 1, 0, 0)]))
    dec = canonical_decomposition(r)
    quot = dec.interfaces["a0"]
    eff = quot.alphabet
    incoming = Message(eff, tuple(Fraction(i + 1) for i in range(eff.order)))
    out = sp_update(quot.node("eff"), {"eff": incoming}, "a0")
    nondyn = quot.sub
    for v in big.elements():
        for d in nondyn.elements():
            assert out.weight_of(big.add(v, d)) == out.weight_of(v)
