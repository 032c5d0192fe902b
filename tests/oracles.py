"""Seeded random realizations, the iso-rich pools and the exhaustive oracle.

The oracle is deliberately independent of the canonical linear algebra:
constraint codes are closed by repeated addition, behaviors by filtering
full configuration spaces, and marginals are sums over the behavior.  No
code is listed from its Howell form here.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd, prod

from normgraph._records import record
from normgraph.alphabets import Alphabet, Element, ProductSpace, cyclic_group, vector_space
from normgraph.corpus import (
    GF2,
    GF3,
    Z4,
    _slot_space,
    ring_realization,
    trellis_realization,
)
from normgraph.decode import DecodeResult, Message, full_priors
from normgraph.errors import TooLargeToEnumerate
from normgraph.homs import Homomorphism, identity_map
from normgraph.realization import Constraint, Realization, StateVar
from normgraph.subgroups import CodeSubgroup

DEFAULT_POOL = (GF2, GF3, Z4, cyclic_group(2))


def z4_sample_realizations() -> list[Realization]:
    """Small Z_4 group-code fixtures: chains through the subgroup {0, 2}."""
    doubler = Homomorphism(Z4, Z4, ((3,),))
    ident = CodeSubgroup(_slot_space([Z4, Z4]), [(1, 1)])
    return [trellis_realization([(1, 1), (0, 2)], [Z4, Z4]),
            trellis_realization([(2, 2, 0), (0, 2, 2)], [Z4, Z4, Z4]),
            Realization({"a0": Z4, "a1": Z4}, {"s": StateVar(Z4, doubler)},
                        {"c0": Constraint(("a0", "s"), ident),
                         "c1": Constraint(("s", "a1"), ident)})]


# -- randomized corpus -----------------------------------------------------------


TOPOLOGIES = ("path", "cycle", "cycle_pendant", "theta")


def random_subgroup(rng: random.Random, space: ProductSpace,
                    max_gens: int = 3) -> CodeSubgroup:
    k = rng.randrange(1, max_gens + 1)
    rows = [tuple(rng.randrange(m) for m in space.moduli) for _ in range(k)]
    return CodeSubgroup(space, rows)


def random_automorphism(rng: random.Random, alpha: Alphabet) -> Homomorphism | None:
    """A diagonal unit automorphism, or None for the identity."""
    diag = [rng.choice([u for u in range(1, m) if gcd(u, m) == 1]) for m in alpha.moduli]
    if all(u == 1 for u in diag):
        return None
    return Homomorphism(alpha, alpha, tuple(
        tuple(u if i == j else 0 for j in range(alpha.width)) for i, u in enumerate(diag)))


def random_realization(seed: int, topology: str = "cycle",
                       pool=DEFAULT_POOL, n_constraints: int | None = None,
                       symbol_prob: float = 0.8, iso_prob: float = 0.0,
                       max_gens: int = 3) -> Realization:
    """Seeded random realization on one of the stock topologies."""
    rng = random.Random(seed)
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}")
    k = n_constraints or rng.randrange(3, 6)
    edges: list[tuple[str, str, str]] = []
    if topology == "path":
        edges = [(f"c{i}", f"c{i+1}", f"s{i}") for i in range(k - 1)]
    elif topology == "cycle":
        edges = [(f"c{i}", f"c{(i+1) % k}", f"s{i}") for i in range(k)]
    elif topology == "cycle_pendant":
        ring = max(3, k - 1)
        edges = [(f"c{i}", f"c{(i+1) % ring}", f"s{i}") for i in range(ring)]
        edges.append((f"c{rng.randrange(ring)}", f"c{ring}", f"s{ring}"))
        k = ring + 1
    elif topology == "theta":
        k = 2
        edges = [("c0", "c1", f"s{i}") for i in range(3)]

    states = {}
    for _, _, j in edges:
        alpha = rng.choice(pool)
        iso = random_automorphism(rng, alpha) if rng.random() < iso_prob else None
        states[j] = StateVar(alpha, iso)
    symbols, constraints = {}, {}
    for i in range(k):
        cl = f"c{i}"
        vars_ = [j for ca, cb, j in edges if cl in (ca, cb)]
        if rng.random() < symbol_prob:
            symbols[f"a{i}"] = rng.choice(pool)
            vars_.append(f"a{i}")
        space = _slot_space([states[v].alphabet if v in states else symbols[v]
                             for v in vars_])
        constraints[cl] = Constraint(tuple(vars_), random_subgroup(rng, space, max_gens))
    return Realization(symbols, states, constraints)


def random_fragment(seed: int, boundary_alpha: Alphabet,
                    n_constraints: int = 2, pool=DEFAULT_POOL,
                    cycle_free: bool = True) -> Realization:
    """Seeded random fragment with one boundary variable of a given alphabet."""
    rng = random.Random(seed)
    r = random_realization(
        rng.randrange(2**30),
        topology="path" if cycle_free else "cycle_pendant",
        pool=pool, n_constraints=n_constraints)
    # attach a boundary half-edge to the first constraint
    first = sorted(r.constraints)[0]
    con = r.constraints[first]
    blab = "b0"
    while blab in r.symbols or blab in r.states:
        blab += "+"
    new_amb = ProductSpace(
        list(con.code.ambient.factors) + [(len(con.vars), boundary_alpha)])
    rows = [tuple(row) + tuple(rng.randrange(m) for m in boundary_alpha.moduli)
            for row in con.code.rows]
    rows += [(0,) * con.code.ambient.width + e for e in boundary_alpha.unit_rows()
             if rng.random() < 0.7]
    constraints = r.constraints | {
        first: Constraint(con.vars + (blab,), CodeSubgroup(new_amb, rows))}
    return Realization(r.symbols, r.states | {blab: StateVar(boundary_alpha)},
                       constraints, boundary=list(r.boundary) + [blab])


# -- the iso-rich pool -------------------------------------------------------------


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


def instances():
    for seed in range(44):
        base = random_realization(seed, topology=TOPOLOGIES[seed % len(TOPOLOGIES)],
                                  pool=POOL, n_constraints=3 + seed % 2,
                                  symbol_prob=0.6, max_gens=2)
        if base.validate().is_valid:
            yield with_isos(base, random.Random(f"iso/{seed}"), 0.7)


def engine_instances(topologies, count):
    """The sum-product engine's pool: `POOL` realizations with isos on most edges."""
    for seed in range(count):
        topology = topologies[seed % len(topologies)]
        base = random_realization(1000 + seed, topology=topology, pool=POOL,
                                  n_constraints=3 + seed % 2, symbol_prob=0.7,
                                  max_gens=2)
        if base.validate().is_valid:
            yield with_isos(base, random.Random(f"engine/{seed}"), 0.8)


def random_small_realization(rng: random.Random) -> Realization:
    """Tiny path or ring with random constraint codes."""
    alphas = [GF2, GF3, Z4, cyclic_group(2)]
    n = rng.randrange(2, 4)
    ring = rng.random() < 0.5
    symbols, states, constraints = {}, {}, {}
    for i in range(n):
        if i < n - 1 or ring:
            states[f"s{i}"] = StateVar(rng.choice(alphas))
    for i in range(n):
        symbols[f"a{i}"] = rng.choice(alphas)
        vars_ = [f"a{i}"]
        if (i > 0 or ring) and f"s{(i - 1) % n}" in states:
            vars_.append(f"s{(i - 1) % n}")
        if i < n - 1 or ring:
            vars_.append(f"s{i}")
        amb = _slot_space([symbols[v] if v in symbols else states[v].alphabet
                           for v in vars_])
        rows = [tuple(rng.randrange(m) for m in amb.moduli)
                for _ in range(rng.randrange(1, 3))]
        constraints[f"c{i}"] = Constraint(tuple(vars_), CodeSubgroup(amb, rows))
    return Realization(symbols, states, constraints)


def two_core_by_rounds(r: Realization, rng: random.Random | None = None) -> set[str]:
    """The reference for `Realization.peel`: each round recounts every
    degree and strips every leaf, or one random leaf with an rng."""
    alive = set(r.constraints)
    edges = [[c for c, _ in r.slots[j]] for j in r.internal_states()]
    while True:
        deg = Counter(c for ends in edges if len(ends) == 2 and set(ends) <= alive
                      for c in ends)
        leaves = sorted(c for c in alive if deg[c] <= 1)
        if not leaves:
            return alive
        alive -= {rng.choice(leaves)} if rng is not None else set(leaves)


def bench_like_ring(n: int, seed: int = 0) -> Realization:
    """A tail-biting ring like the benchmark's: edge s_t over GF(3), Z_4 or
    Z_12 by t mod 3, symbol a_t the next, two random generators per section
    redrawn until |C_t| = |S_t| |A_t|, and a unit iso on every odd edge."""
    rng = random.Random(f"ring/{seed}/{n}")
    pool = (GF3, Z4, cyclic_group(12))
    alpha = [pool[t % 3] for t in range(n)]
    codes = []
    for t in range(n):
        space = ProductSpace(list(enumerate(
            [alpha[t], pool[(t + 1) % 3], alpha[(t + 1) % n]])))
        while True:
            code = CodeSubgroup(space, [[rng.randrange(m) for m in space.moduli]
                                        for _ in range(2)])
            if code.order == alpha[t].order * pool[(t + 1) % 3].order:
                break
        codes.append(code)
    r, states = ring_realization(codes), {}
    for j, sv in r.states.items():
        m = sv.alphabet.moduli[0]
        units = [u for u in range(2, m) if gcd(u, m) == 1]
        states[j] = StateVar(sv.alphabet, Homomorphism(
            sv.alphabet, sv.alphabet, ((rng.choice(units),),)) if int(j[1:]) % 2 else None)
    return r.replaced(states=states)


def accumulator_ring(n: int, seed: int = 0):
    """A tail-biting ring over Z_12: section t is {(s, a, s + w_t a)} for a
    random weight w_t, and every odd edge carries a random unit scaling.
    The code is the kernel of one linear form whose coefficients the isos
    scale, so negating one iso changes it, unlike on `bench_like_ring`,
    whose code does not see the sign of an edge."""
    rng = random.Random(f"accumulator/{seed}/{n}")
    z12 = cyclic_group(12)
    space = ProductSpace(list(enumerate([z12] * 3)))
    r = ring_realization([CodeSubgroup(space, [(1, 0, 1), (0, 1, rng.randrange(1, 12))])
                          for _ in range(n)])
    units = (5, 7, 11)
    return r.replaced(states={
        j: StateVar(z12, Homomorphism(z12, z12, ((rng.choice(units),),))
                    if int(j[1:]) % 2 else None) for j in r.states})


# -- exhaustive oracle harness ----------------------------------------------------


def close_rows(space: ProductSpace, rows) -> set[Element]:
    """Subgroup closure by repeated addition (independent of Howell forms)."""
    seen = {space.zero}
    frontier = [space.zero]
    rows = [space.reduce(r) for r in rows]
    while frontier:
        x = frontier.pop()
        for r in rows:
            y = space.add(x, r)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


@record
class OracleHarness:
    """Exhaustive model of one realization, for cross-checking everything.

    All sets are computed by enumeration and set algebra only.
    """

    r: Realization
    behavior: list[tuple]         # (symbol, boundary, state blocks), lexicographic
    syms: list[str]
    bound: list[str]
    internal: list[str]

    @classmethod
    def build(cls, r: Realization, cap: int = 2**20) -> "OracleHarness":
        if r.configuration_space_order() > cap:
            raise TooLargeToEnumerate("oracle cannot enumerate this realization")
        syms, bound, internal = r._blocks()
        labels = syms + bound + internal
        # per constraint: its slots' places in a configuration, with the edge
        # iso on a state's head end, and its codewords
        checks = [([(labels.index(v), r.states[v].head_of
                     if v in internal and r.slots[v][1] == (cl, i) else tuple)
                    for i, v in enumerate(con.vars)],
                   close_rows(con.code.ambient, con.code.rows))
                  for cl, con in r.constraints.items()]
        behavior = [
            combo for combo in itertools.product(
                *(list(r.alphabet_of(v).elements()) for v in labels))
            if all(sum((f(combo[p]) for p, f in slots), ()) in words
                   for slots, words in checks)]
        return cls(r, behavior, syms, bound, internal)

    def _word(self, combo, labels) -> tuple:
        all_labels = self.syms + self.bound + self.internal
        out = []
        for lab in labels:
            out.extend(combo[all_labels.index(lab)])
        return tuple(out)

    def projection(self, labels) -> set[tuple]:
        return {self._word(c, labels) for c in self.behavior}

    def cross_section(self, labels) -> set[tuple]:
        """Cross-section at `labels`: every symbol and boundary variable
        outside them is zero, and the internal states stay free."""
        others = [v for v in self.syms + self.bound if v not in labels]
        return {
            self._word(c, labels) for c in self.behavior
            if all(x == 0 for x in self._word(c, others))
        }

    def unobservable_states(self) -> set[tuple]:
        """Internal state configurations valid with all-zero external values."""
        return self.cross_section(self.internal)

    def controllable_syndromes(self, cap: int = 2**20) -> set[tuple]:
        """Syndromes head - iso(tail) over the full configuration universe."""
        r = self.r
        cons = list(r.constraints.values())
        words = [sorted(close_rows(con.code.ambient, con.code.rows)) for con in cons]
        if prod(map(len, words)) > cap:
            raise TooLargeToEnumerate("configuration universe too large")
        place = {cl: k for k, cl in enumerate(r.constraints)}
        # each internal state's (constraint, slot) at its tail and at its head
        ends = [[(place[cl], i) for cl, i in r.slots[j]] for j in self.internal]
        out = set()
        for combo in itertools.product(*words):
            syndrome = ()
            for j, end in zip(self.internal, ends):
                tail, head = (cons[k].code.ambient.get(combo[k], i) for k, i in end)
                alpha = r.states[j].alphabet
                syndrome += alpha.add(head, alpha.neg(r.states[j].head_of(tail)))
            out.add(syndrome)
        return out


def configurations(r: Realization, cap: int = 2**20):
    """Every valid configuration of r, as a dict, in lexicographic order."""
    h = OracleHarness.build(r, cap)
    labels = h.syms + h.bound + h.internal
    return (dict(zip(labels, combo)) for combo in h.behavior)


def brute_force_app(r: Realization, priors=None, exact: bool = True,
                    cap: int = 2**20) -> DecodeResult:
    """Exhaustive a-posteriori marginals over the full behavior."""
    pri = full_priors(r, priors, exact)
    syms, _, edges = r._blocks()
    zero = Fraction(0) if exact else 0.0
    acc = {v: [zero] * r.alphabet_of(v).order for v in syms + edges}
    for config in configurations(r, cap):
        w = Fraction(1) if exact else 1.0
        for k in syms:
            w *= pri[k].weights[r.symbols[k].index(config[k])]
        if w == 0:
            continue
        for v, weights in acc.items():
            weights[r.alphabet_of(v).index(config[v])] += w
    marg = {v: Message(r.alphabet_of(v), tuple(a)).normalized() for v, a in acc.items()}
    sym = {k: marg[k] for k in syms}
    return DecodeResult(sym, {j: marg[j] for j in edges}, any(m.is_zero for m in sym.values()))
