"""The syndrome map on realizations whose edges carry general isomorphisms.

`behavior_bundle` takes the extended behavior as the kernel of the syndrome
map, and `state_trim_status` takes the fragment cut at an edge as the
kernel with that edge's block left out.  These are checked here against
independent routes: U cap V with V built directly, the old `split` +
`external_behavior` route, and enumeration.  The edge isomorphisms are
random invertible matrices over width-2 and composite alphabets, not only
unit scalings, so a route that mishandles an iso fails.
"""

from __future__ import annotations

import random
from math import gcd

from normgraph.alphabets import cyclic_group, vector_space
from normgraph.analysis import state_trim_status, verify_controllability
from normgraph.corpus import TOPOLOGIES, OracleHarness, random_realization
from normgraph.duality import verify_duality
from normgraph.graphcore import is_cut_edge
from normgraph.homs import Homomorphism, identity_map
from normgraph.realization import StateVar

POOL = (vector_space(2, 2), cyclic_group(2, 4), vector_space(3, 2),
        cyclic_group(12), vector_space(2, 1), cyclic_group(4))


def random_iso(rng: random.Random, alpha) -> Homomorphism | None:
    """A random non-identity automorphism drawn from the whole group."""
    for _ in range(20):
        # entry (i, j) maps Z_c to Z_d: a multiple of d / gcd(c, d)
        matrix = tuple(tuple(rng.randrange(gcd(c, d)) * (d // gcd(c, d))
                             for d in alpha.moduli) for c in alpha.moduli)
        phi = Homomorphism(alpha, alpha, matrix)
        if phi.is_isomorphism and phi != identity_map(alpha):
            return phi
    return None


def with_isos(r, rng: random.Random, prob: float):
    states = {j: StateVar(sv.alphabet,
                          random_iso(rng, sv.alphabet) if rng.random() < prob else None)
              for j, sv in r.states.items()}
    return r.replaced(states=states)


def split_route(r, edge):
    """unobservable transitions and fragment flags, from the cut fragment."""
    sp = r.split([edge])
    frag, = sp.fragments
    halves = list(sp.halves[edge])
    ext = frag.external_behavior()
    utrans = ext.cross_section(halves)
    alpha = r.states[edge].alphabet
    return (utrans, utrans.is_trivial,
            ext.project(halves).order == alpha.order ** 2, frag, halves)


def instances():
    for seed in range(44):
        base = random_realization(seed, topology=TOPOLOGIES[seed % len(TOPOLOGIES)],
                                  pool=POOL, n_constraints=3 + seed % 2,
                                  symbol_prob=0.6, max_gens=2)
        if base.validate().is_valid:
            yield with_isos(base, random.Random(f"iso/{seed}"), 0.7)


def test_extended_behavior_is_the_syndrome_kernel():
    done = 0
    for r in instances():
        bundle = r.behavior_bundle()
        assert bundle.extended == bundle.universe.intersect(r.validity())
        assert bundle.syndromes == r.syndromes(bundle.universe.rows)
        assert verify_controllability(r)
        assert verify_duality(r).passed
        done += 1
    assert done >= 40


def test_state_trim_status_matches_split_route_and_enumeration():
    edges = enumerated = iso_edges = 0
    for r in instances():
        for j in sorted(r.internal_states()):
            if is_cut_edge(r, j):
                continue
            rep = state_trim_status(r, j)
            utrans, observable, controllable, frag, halves = split_route(r, j)
            assert rep.unobservable_transitions.rows == utrans.rows
            assert rep.unobservable_transitions.ambient.moduli == utrans.ambient.moduli
            assert rep.fragment_ext_observable == observable
            assert rep.fragment_ext_controllable == controllable
            edges += 1
            iso_edges += r.states[j].iso is not None
            if frag.configuration_space_order() <= 2**14:
                oracle = OracleHarness.build(frag)
                got = oracle.external_cross_section(halves)
                assert set(rep.unobservable_transitions.elements()) == got
                pairs = len(oracle.projection(halves))
                assert rep.fragment_ext_controllable == (
                    pairs == r.states[j].alphabet.order ** 2)
                enumerated += 1
    assert edges >= 100 and iso_edges >= 50 and enumerated >= 25


def test_the_isos_matter():
    """Dropping the isos changes the realized code in a good share of the
    instances, so the checks above do exercise iso handling."""
    with_iso = changed = 0
    for r in instances():
        if all(sv.iso is None for sv in r.states.values()):
            continue
        plain = r.replaced(states={j: StateVar(sv.alphabet)
                                   for j, sv in r.states.items()})
        with_iso += 1
        changed += plain.code() != r.code()
    assert with_iso >= 35 and changed * 10 >= with_iso
