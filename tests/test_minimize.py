"""Cycle-free minimization, state space theorem, internal state recovery."""

from __future__ import annotations

import itertools
import random as _random

import pytest

from normgraph.analysis import reduce_to_fixpoint
from normgraph.corpus import (
    GF2,
    GF3,
    Z4,
    tail_biting_rep2,
    tanner_realization,
    trellis_realization,
)
from normgraph.errors import NotCycleFree, NotInExternalBehavior, RowOutOfAmbient
from normgraph.minimize import (
    minimize_cycle_free,
    recover_internal_states,
    state_orders,
    verify_state_space_theorem,
)
from tests.oracles import POOL, configurations, random_fragment, random_realization, with_isos

HAMMING_G = [
    (1, 0, 0, 0, 1, 1, 0),
    (0, 1, 0, 0, 0, 1, 1),
    (0, 0, 1, 0, 1, 1, 1),
    (0, 0, 0, 1, 1, 0, 1),
]


def profile_oracle(code_elements, n, width=1):
    """State orders from the code itself: |C|past| / |C:past| at each cut."""
    orders = []
    for t in range(1, n):
        past = {tuple(c[: t * width]) for c in code_elements}
        cross = {
            tuple(c[: t * width]) for c in code_elements
            if all(x == 0 for x in c[t * width:])
        }
        orders.append(len(past) // len(cross))
    return orders


def test_minimize_rep3_profile():
    r = trellis_realization([(1, 1, 1)], [GF2] * 3)
    m = minimize_cycle_free(r)
    assert list(state_orders(m).values()) == [2, 2]
    assert m.code() == r.code()
    elems = sorted(r.code().elements())
    assert profile_oracle(elems, 3) == [2, 2]
    # fixpoint
    assert state_orders(minimize_cycle_free(m)) == state_orders(m)


def test_minimize_product_code_profile():
    rows = [(1, 1, 0, 0), (0, 0, 1, 1)]
    r = trellis_realization(rows, [GF2] * 4)
    m = minimize_cycle_free(r)
    assert list(state_orders(m).values()) == [2, 1, 2]
    elems = sorted(r.code().elements())
    assert elems == [(0, 0, 0, 0), (0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 1, 1)]
    assert profile_oracle(elems, 4) == [2, 1, 2]
    assert m.code() == r.code()


def test_minimize_hamming_profile_matches_oracle():
    r = trellis_realization(HAMMING_G, [GF2] * 7)
    m = minimize_cycle_free(r)
    elems = sorted(r.code().elements())
    assert len(elems) == 16
    want = profile_oracle(elems, 7)
    assert list(state_orders(m).values()) == want
    assert m.code() == r.code()
    # every cut satisfies the state space theorem on both sides
    for j in m.internal_states():
        rep = verify_state_space_theorem(m, j)
        assert rep.passed


def test_minimize_preserves_code_randomized():
    done = 0
    for seed in range(30):
        r = random_realization(seed, topology="path", n_constraints=4)
        if not r.validate().is_valid:
            continue
        m = minimize_cycle_free(r)
        assert m.code() == r.code()
        for j, o in state_orders(m).items():
            assert o <= r.states[j].alphabet.order
            rep = verify_state_space_theorem(m, j)
            assert rep.passed
        done += 1
    assert done >= 20


def test_minimize_rejects_cycles_and_disconnection():
    with pytest.raises(NotCycleFree):
        minimize_cycle_free(tail_biting_rep2())


def test_state_space_theorem_trivial_code():
    r = trellis_realization([(0, 0, 0)], [GF2] * 3)
    m = minimize_cycle_free(r)
    assert all(o == 1 for o in state_orders(m).values())
    for j in m.internal_states():
        assert verify_state_space_theorem(m, j).passed


def test_recover_internal_states_rep3():
    r = trellis_realization([(1, 1, 1)], [GF2] * 3)
    config = recover_internal_states(r, {"a0": (1,), "a1": (1,), "a2": (1,)})
    assert config["s1"] == (1,) and config["s2"] == (1,)
    zero = recover_internal_states(r, {"a0": (0,), "a1": (0,), "a2": (0,)})
    assert zero["s1"] == (0,) and zero["s2"] == (0,)
    with pytest.raises(NotInExternalBehavior):
        recover_internal_states(r, {"a0": (1,), "a1": (0,), "a2": (0,)})
    # an unreduced value is refused on every symbol, the last peeled one's too
    for a in ("a0", "a2"):
        with pytest.raises(RowOutOfAmbient):
            recover_internal_states(r, {"a0": (1,), "a1": (1,), "a2": (1,), a: (3,)})


def test_recover_round_trips_whole_behavior():
    done = 0
    for seed in range(40):
        r = random_realization(seed, topology="path", n_constraints=3)
        if not r.validate().is_valid:
            continue
        r = minimize_cycle_free(r)  # trim+proper at states ensures properness
        syms = sorted(r.symbols)
        for config in itertools.islice(configurations(r), 50):
            given = {k: config[k] for k in syms}
            got = recover_internal_states(r, given)
            for j in r.internal_states():
                assert got[j] == config[j]
        done += 1
    assert done >= 20


def test_recover_mixed_alphabets_path():
    r = minimize_cycle_free(
        trellis_realization([(1, 1, 2), (0, 2, 1)], [GF3] * 3))
    assert len(r.internal_states()) == 2
    for config in configurations(r):
        given = {k: config[k] for k in r.symbols}
        got = recover_internal_states(r, given)
        for j in r.internal_states():
            assert got[j] == config[j]


def test_minimize_sweep_order_independent():
    """Any maximal sequence of local reductions reaches the same state-space
    orders (alphabet identity may differ; orders and the code are checked)."""
    from normgraph.analysis import local_reduce

    for seed in (11, 31, 51):
        r = random_realization(seed, topology="path", n_constraints=4)
        if not r.validate().is_valid:
            continue
        want = state_orders(minimize_cycle_free(r))
        code = r.code()
        for sweep_seed in range(4):
            rng = _random.Random(sweep_seed)
            current = r
            while True:
                moves = [(cl, j) for j in current.internal_states()
                         for cl, _ in current.slots[j]]
                rng.shuffle(moves)
                for cl, j in moves:
                    nxt = local_reduce(current, cl, j)
                    if nxt is not current:
                        current = nxt
                        break
                else:
                    break
            assert state_orders(current) == want
            assert current.code() == code


def test_connected_cycle_free_has_two_leaves():
    for seed in (1, 2, 3):
        r = random_realization(seed, topology="path", n_constraints=4)
        deg = {cl: 0 for cl in r.constraints}
        for j in r.internal_states():
            for cl, _ in r.slots[j]:
                deg[cl] += 1
        assert sum(1 for d in deg.values() if d <= 1) >= 2


# -- the two-pass minimizer against the fixpoint of local reductions -------------


def tree_check_matrix(rng, m: int):
    """A check matrix over Z_m whose Tanner graph is a tree: every check
    after the first shares exactly one symbol with the checks before it.
    A check on that symbol alone forces it to zero, which leaves replica
    states to reduce."""
    supports = [list(range(rng.randrange(2, 4)))]
    n = len(supports[0])
    for _ in range(rng.randrange(1, 4)):
        fresh = list(range(n, n + rng.randrange(3)))
        supports.append([rng.randrange(n)] + fresh)
        n += len(fresh)
    return [[rng.randrange(1, m) if j in sup else 0 for j in range(n)]
            for sup in supports]


def differential_instances():
    """(family, realization): paths over both pools (the width-2 and
    composite one with isos from the whole automorphism group), branching
    Tanner trees, and fragments with a boundary half-edge."""
    for seed in range(60):
        yield "path", random_realization(seed, topology="path",
                                         n_constraints=3 + seed % 3, iso_prob=0.5)
    for seed in range(60):
        base = random_realization(seed, topology="path", pool=POOL,
                                  n_constraints=3 + seed % 2, symbol_prob=0.6,
                                  max_gens=2)
        yield "iso path", with_isos(base, _random.Random(f"iso/{seed}"), 0.7)
    for seed in range(36):
        rng = _random.Random(f"tree/{seed}")
        alpha = (GF2, GF3, Z4)[seed % 3]
        tree = tanner_realization(tree_check_matrix(rng, alpha.moduli[0]), alpha)
        yield "tree", with_isos(tree, rng, 0.5)
    for seed in range(80):
        yield "fragment", random_fragment(seed, (GF2, GF3, Z4)[seed % 3],
                                          n_constraints=2 + seed % 2)


def test_two_pass_minimizer_matches_the_fixpoint_oracle():
    reduced = dict.fromkeys(("path", "iso path", "tree", "fragment"), 0)
    for family, r in differential_instances():
        if not r.validate().is_valid:
            continue
        m = minimize_cycle_free(r)
        oracle = reduce_to_fixpoint(r)
        assert state_orders(m) == state_orders(oracle), family
        assert m.code() == r.code(), family
        assert m.external_behavior() == r.external_behavior(), family
        assert reduce_to_fixpoint(m) is m, family
        assert minimize_cycle_free(m) is m, family
        if not m.boundary:
            for j in m.internal_states():
                assert verify_state_space_theorem(m, j).passed, (family, j)
        reduced[family] += m is not r
    assert min(reduced.values()) >= 10, reduced


def fixed_profile_rows(rng, n: int, k: int):
    """The benchmark's trellis rows: a trellis-oriented generator matrix
    (row i spans [i, i + n - k]) with the last row added to every other
    one, so every span but the last reaches the end."""
    togm = []
    for i in range(k):
        row = [0] * n
        row[i] = row[i + n - k] = 1
        for t in range(i + 1, i + n - k):
            row[t] = rng.randrange(2)
        togm.append(row)
    last = togm[-1]
    return [[(a + b) % 2 for a, b in zip(row, last)] for row in togm[:-1]] + [last]


def test_minimize_fixed_profile_trellis_n48():
    n, k = 48, 24
    r = trellis_realization(fixed_profile_rows(_random.Random("n48"), n, k),
                            [GF2] * n)
    m = minimize_cycle_free(r)
    # the minimal order at cut t is 2^(number of generator spans across it)
    want = {f"s{t}": 2 ** sum(1 for i in range(k) if i < t <= i + n - k)
            for t in range(1, n)}
    assert state_orders(r) != want
    assert state_orders(m) == want


def test_minimize_long_repetition_trellis_without_recursion():
    n = 1200
    r = trellis_realization([(1,) * n, (1,) * n], [GF2] * n)
    assert set(state_orders(r).values()) == {4}
    m = minimize_cycle_free(r)
    assert set(state_orders(m).values()) == {2}
    assert len(m.internal_states()) == n - 1
