"""Realization.split: the one way a realization is cut into fragments."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from normgraph.analysis import behavioral_ctrl_obs
from normgraph.alphabets import cyclic_group
from normgraph.corpus import GF2, GF3, tail_biting_rep2, trellis_realization
from normgraph.errors import BadPartition, UnknownEdge
from tests.oracles import (
    DEFAULT_POOL,
    TOPOLOGIES,
    OracleHarness,
    accumulator_ring,
    bench_like_ring,
    random_realization,
    with_isos,
)


def test_split_connect_round_trip_with_isos():
    """Both halves of a cut edge carry tail coordinates, so joining every
    pair back with no isomorphism gives the original behavior and code."""
    done = folded_isos = 0
    for pool in (DEFAULT_POOL, (GF3, cyclic_group(5)), (GF3,)):
        for seed in range(30):
            r = random_realization(seed, topology=TOPOLOGIES[seed % len(TOPOLOGIES)],
                                   pool=pool, iso_prob=0.8)
            if not r.validate().is_valid or r.configuration_space_order() > 2**14:
                continue
            rng = random.Random(seed)
            internal = sorted(r.internal_states())
            edges = rng.sample(internal, rng.randrange(1, len(internal) + 1))
            sp = r.split(edges)
            assert sorted(sp.halves) == sorted(edges)
            assert all(sp.folded.states[j].iso is None for j in edges)
            folded_isos += sum(r.states[j].iso is not None for j in edges)
            frags = list(sp.fragments)
            for tail, head in sp.halves.values():
                f_tail = next(f for f in frags if tail in f.boundary)
                f_head = next(f for f in frags if head in f.boundary)
                frags.remove(f_tail)
                if f_head is f_tail:
                    frags.append(f_tail.connect(None, tail, head))
                else:
                    frags.remove(f_head)
                    frags.append(f_tail.connect(f_head, tail, head))
            restored, = frags
            assert not restored.boundary
            oracle = OracleHarness.build(r)
            behavior = restored.behavior_bundle().behavior
            assert behavior == r.behavior_bundle().behavior
            assert set(behavior.elements()) == {
                sum(word, ()) for word in oracle.behavior}
            assert restored.code() == r.code()
            assert set(restored.code().elements()) == oracle.projection(oracle.syms)
            done += 1
    assert done >= 70 and folded_isos >= 50


def test_split_rejects_bad_edges_and_parts():
    r = tail_biting_rep2()          # ring c0 -s1- c1 -s0- c0
    with pytest.raises(UnknownEdge):
        r.split(["a0"])
    with pytest.raises(BadPartition):
        r.split(["s0"], parts=[{"c0"}, {"c1"}])      # s1 joins the parts uncut
    with pytest.raises(BadPartition):
        r.split(["s0", "s1"], parts=[{"c0"}, {"c0", "c1"}])
    with pytest.raises(BadPartition):
        r.split(["s0", "s1"], parts=[{"c0"}])
    left, right = r.split(["s0", "s1"], parts=[{"c1"}, {"c0"}]).fragments
    assert list(left.constraints) == ["c1"] and list(right.constraints) == ["c0"]


def test_behavioral_ctrl_obs_on_rings_with_disconnected_remainder():
    """F and F' opposite each other on a 4-ring leave a remainder in two
    pieces; the boundary conditions still imply the direct ones."""
    done = ctrl = obs = 0
    for seed in range(60):
        r = random_realization(seed, topology="cycle", n_constraints=4)
        if not r.validate().is_valid:
            continue
        rep = behavioral_ctrl_obs(r, ["c0"], ["c2"])
        if rep.controllable:
            assert rep.direct_controllable
            ctrl += 1
        if rep.observable:
            assert rep.direct_observable
            obs += 1
        done += 1
    assert done == 60 and ctrl >= 5 and obs >= 5


def split_cases():
    """Rings and trellises with iso edges, each split by default at random
    edge sets and with `parts=` into runs of constraints in listing order,
    where a few edges inside a run are cut too."""
    rng = random.Random("ends")
    trellises = [with_isos(trellis_realization(rows, [GF2] * len(rows[0])), rng, 0.8)
                 for rows in ([[1, 1, 0, 1, 0], [0, 1, 1, 1, 1]],
                              [[1, 1, 1, 0, 0, 0], [0, 1, 0, 1, 1, 0], [0, 0, 1, 1, 0, 1]])]
    for r in [bench_like_ring(4), bench_like_ring(6, 1), accumulator_ring(5), *trellises]:
        internal = sorted(r.internal_states())
        for _ in range(4):
            yield r, r.split(rng.sample(internal, rng.randrange(1, len(internal) + 1)))
            order = list(r.constraints)
            stops = sorted(rng.sample(range(1, len(order)), rng.randrange(1, 3)))
            parts = [set(order[a:b]) for a, b in zip([0, *stops], [*stops, len(order)])]
            part_of = {cl: k for k, part in enumerate(parts) for cl in part}
            cut = [j for j in internal
                   if len({part_of[cl] for cl, _ in r.slots[j]}) > 1 or rng.random() < 0.3]
            yield r, r.split(cut, parts=parts)


def test_split_ends_name_each_half_once():
    """`ends[k]` names boundary variables of fragment k only, lists both
    halves of every cut edge once each between them, and joining each
    (tail, head) pair back, found through `ends`, gives the input's code."""
    shared = 0
    for r, sp in split_cases():
        assert len(sp.ends) == len(sp.fragments)
        listed = Counter()
        for frag, ends in zip(sp.fragments, sp.ends):
            assert set(ends) <= set(frag.boundary)
            listed.update(ends.items())
        assert listed == Counter((lab, j) for j, pair in sp.halves.items() for lab in pair)
        pieces = [(frag, set(ends)) for frag, ends in zip(sp.fragments, sp.ends)]
        for tail, head in sp.halves.values():
            (f_tail, tails), = [p for p in pieces if tail in p[1]]
            (f_head, heads), = [p for p in pieces if head in p[1]]
            shared += f_head is f_tail
            pieces = [p for p in pieces if p[0] is not f_tail and p[0] is not f_head]
            joined = f_tail.connect(None if f_head is f_tail else f_head, tail, head)
            pieces.append((joined, (tails | heads) - {tail, head}))
        (restored, left), = pieces
        assert not left and not restored.boundary
        assert restored.code() == r.code()
    assert shared >= 20
