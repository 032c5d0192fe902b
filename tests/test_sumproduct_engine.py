"""The compiled sum-product engine against the loops it replaced.

`decode.py` compiles each constraint into a table of per-slot alphabet
indices and sends all of a node's messages from one pass over it, through a
kernel generated per node shape, and a sweep hands each message to an
epilogue generated per alphabet order.  Three references are kept here.
The first is the interpreted table pass, `ref_sweep`, which the generated
kernels replaced; the second, `ref_epilogue`, the interpreted loop over a
pass's messages that the epilogues replaced.  The third is the per-target
engine before the tables, kept whole: one enumeration of the code per
target, `Message` objects throughout, and messages carried across an iso
edge through `iso.apply` and `iso.inverse()`.  Float marginals and
convergence deltas must be equal, not close: every kernel folds each
product in the same order, and every epilogue makes the loop's quotients,
so the rounding is the same.

The realizations come from the width-2 and composite pool of
`tests/test_syndrome.py`, with random automorphisms on most edges, and
from regular Tanner graphs shaped like the bench's `ldpc` document.
"""

from __future__ import annotations

import json
import math
import random
import time
import tracemalloc
from fractions import Fraction
from operator import sub
from pathlib import Path

import pytest

from normgraph.alphabets import ProductSpace, sort_key, vector_space
from normgraph import decode
from normgraph.cli import main
from normgraph.corpus import GF2, tail_biting_rep2, tanner_realization
from normgraph.decode import (
    Message,
    decode_exact,
    decode_iterative,
    full_priors,
    uniform_message,
)
from normgraph.errors import MissingIncoming, TooLargeToEnumerate
from normgraph.graphcore import cyclomatic_number, two_core_constraints
from normgraph.serialize import load_realization, realization_from_json
from normgraph.subgroups import CodeSubgroup
from tests.oracles import (
    POOL,
    TOPOLOGIES,
    accumulator_ring,
    bench_like_ring,
    brute_force_app,
    engine_instances,
    instances as syndrome_instances,
    random_fragment,
    random_realization,
    with_isos,
    z4_sample_realizations,
)
from tests.test_acceptance import _relabeled
from tests.test_bench_guard import bench_module
from tests.test_zmod import span_elements

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# -- the reference kernel: the interpreted table pass ----------------------------


def ref_sweep(table, incoming, targets, sizes, one):
    """For target t each row adds the product of the incoming weights at
    the other slots, folded left in slot order: a running prefix over slots
    before t, continued over the slots after it, and dropped as soon as it
    is zero."""
    outs = [[one - one] * n for n in sizes]
    jobs = [(t, range(t + 1, len(incoming)), out) for t, out in zip(targets, outs)]
    for row in table:
        prefix, s = one, 0
        for t, rest, out in jobs:
            while s < t and prefix != 0:
                prefix *= incoming[s][row[s]]
                s += 1
            if prefix == 0:
                break
            w = prefix
            for i in rest:
                w *= incoming[i][row[i]]
                if w == 0:
                    break
            else:
                out[row[t]] += w
    return outs


def ref_epilogue(m, i, read, write, normed, damp, exact):
    """What a sweep does with message `m` to id i, as the interpreted loop
    did it: normalized in float mode, damped toward read[i] and stored in
    write[i], normalized again into floats in normed[i]; returns the
    largest entry change from the old normed[i]."""
    if not exact:
        t = sum(m)
        if t != 0 and t != 1:
            m = [w / t for w in m]
    if damp:
        m = [(1 - damp) * a + damp * b for a, b in zip(m, read[i])]
    t = sum(m)
    new = m if t == 0 or t == 1 else [w / t for w in m]
    if exact:
        new = [float(w) for w in new]
    d = max(map(abs, map(sub, normed[i], new)))
    write[i], normed[i] = m, new
    return d


def bits(outs):
    """Each weight as its type and repr: equal floats of opposite sign, and
    NaNs, compare as what they are."""
    return [[(type(w), repr(w)) for w in out] for out in outs]


def random_pass(rng, degree, exact, poison_before=None):
    """A random table over per-slot orders 1-3 and incoming weights that
    are floats or Fractions, some of them zero (float zeros half -0.0): a
    fifth up to degree 8, one in a hundred above, so that long products
    still reach the outputs.  Slots before `poison_before` also draw
    infinities."""
    sizes = [rng.randrange(1, 4) for _ in range(degree)]
    table = [tuple(rng.randrange(n) for n in sizes)
             for _ in range(rng.randrange(1, 40))]
    zeros = 0.2 if degree <= 8 else 0.01

    def weight(slot):
        u = rng.random()
        if u < zeros:
            return Fraction(0) if exact else rng.choice((0.0, -0.0))
        if poison_before is not None and slot < poison_before and u < zeros + 0.15:
            return math.inf
        return Fraction(rng.randrange(1, 50), rng.randrange(1, 50)) if exact \
            else rng.random()
    incoming = [[weight(i) for _ in range(n)] for i, n in enumerate(sizes)]
    return table, incoming, sizes


def test_kernels_equal_the_interpreted_pass():
    """Degree 1 is the lone slot, whose product is `one`; degree 64 folds
    its longest products over several generated statements; a degree above
    `_UNROLL` takes each suffix product in a loop."""
    rng = random.Random("kernels")
    passes = 0
    loop_degree = decode._UNROLL + 16
    for degree in (*range(1, 9), 64, loop_degree):
        shapes = [[t] for t in range(degree)] + [list(range(degree))]
        for targets in shapes:
            for exact in (False, True):
                one = Fraction(1) if exact else 1.0
                for _ in range(3 if degree < 64 else 1):
                    table, incoming, sizes = random_pass(rng, degree, exact)
                    sizes = [sizes[t] for t in targets]
                    got = decode._sweep(table, incoming, targets, sizes, one)
                    want = ref_sweep(table, incoming, targets, sizes, one)
                    assert got == want, (degree, targets, exact)
                    assert bits(got) == bits(want), (degree, targets, exact)
                    passes += 1
    assert passes == 394 + 2 * (loop_degree + 1)


def test_kernels_leave_a_row_at_its_first_zero_prefix():
    """Infinities in the slots before a lone target are never multiplied
    once the prefix is zero, so 0 * inf never turns a skipped row into NaN."""
    rng = random.Random("prefix")
    poisoned = 0
    loop_degree = decode._UNROLL + 16
    for degree in (*range(2, 9), loop_degree):
        for t in (range(1, degree) if degree < 9 else range(1, degree, 9)):
            for _ in range(6):
                table, incoming, sizes = random_pass(rng, degree, False,
                                                     poison_before=t)
                got = decode._sweep(table, incoming, [t], [sizes[t]], 1.0)
                want = ref_sweep(table, incoming, [t], [sizes[t]], 1.0)
                assert bits(got) == bits(want), (degree, t)
                for row in table:
                    prefix = [incoming[s][row[s]] for s in range(t)]
                    zero = next((s for s, w in enumerate(prefix) if w == 0), t)
                    poisoned += math.inf in prefix[zero:]
    assert poisoned >= 100


def random_message(rng, order, exact, total=None):
    """Weights, a fifth of them zero (float zeros half -0.0) and floats over
    a wide range of scales; with `total` 0 or 1, of exactly that total
    (dyadic floats add up exactly)."""
    counts = [0 if total == 0 or rng.random() < 0.2 else rng.randrange(1, 50)
              for _ in range(order)]
    scale = rng.randrange(1, 50)
    if total == 1:
        scale = 1 << max(sum(counts), 1).bit_length()
        counts[rng.randrange(order)] += scale - sum(counts)
    if exact:
        return [Fraction(c, scale) for c in counts]
    unit = 1.0 if total is not None else rng.random() * 2.0 ** rng.randrange(-60, 60)
    return [c * unit / scale if c else rng.choice((0.0, -0.0)) for c in counts]


def test_epilogues_equal_the_interpreted_loop():
    """The stored message, its normalized copy and the returned change, by
    type and repr: totals of exactly 0 and 1, zeros and -0.0, damping 0,
    0.25 and 0.5, float and `Fraction` weights; order 65 is above
    `_UNROLL`, where the entries are a list."""
    rng = random.Random("epilogues")
    cases = 0
    for order in (1, 2, 3, 4, 12, 64, decode._UNROLL + 1):
        for exact in (False, True):
            for damping in (0.0, 0.25, 0.5):
                damp = Fraction(str(damping)) if exact else damping
                post = decode._epilogue(order, exact, bool(damp))
                for total in (0, 1, None, None, None):
                    m = random_message(rng, order, exact, total)
                    assert total is None or sum(m) == total
                    old = random_message(rng, order, exact, rng.choice((0, 1, None)))
                    before = [rng.random() for _ in range(order)]
                    delta = rng.choice((0.0, 0.0, rng.random()))
                    write, normed = [None, None], [None, list(before)]
                    got = post(list(m), 1, [None, old], write, normed, 1 - damp, damp,
                               delta)
                    want_write, want_normed = [None, None], [None, list(before)]
                    d = ref_epilogue(list(m), 1, [None, old], want_write, want_normed,
                                     damp, exact)
                    want = d if d > delta else delta
                    assert bits([write[1], normed[1], [got]]) == \
                        bits([want_write[1], want_normed[1], [want]]), \
                        (order, exact, damping, total)
                    cases += 1
    assert cases == 7 * 2 * 3 * 5


def test_kernel_source_grows_linearly_in_the_degree():
    """Above `_UNROLL` a suffix product is a loop, so a node sending all its
    messages compiles from source linear in its degree, not quadratic."""
    def length(degree):
        return len(decode._kernel_source(degree, tuple(range(degree))))
    assert decode._UNROLL < 1000
    assert length(1000) < 50 * length(20)
    assert length(2000) < 2.1 * length(1000)


def regular_tanner(rng, n, col_weight, row_weight):
    """A check matrix with col_weight layers, each splitting the n columns
    into checks of row_weight."""
    cols, h = list(range(n)), []
    for _ in range(col_weight):
        rng.shuffle(cols)
        for k in range(0, n, row_weight):
            part = set(cols[k:k + row_weight])
            h.append([int(j in part) for j in range(n)])
    return tanner_realization(h, GF2)


def test_one_table_per_distinct_code(monkeypatch):
    """A (3,6)-regular Tanner graph has two distinct local codes, the
    degree-6 check and the degree-4 equality node, so two tables."""
    compiled = []
    real = decode._index_table

    def counting(code, alphabets, cap):
        compiled.append(code)
        return real(code, alphabets, cap)

    monkeypatch.setattr(decode, "_index_table", counting)
    r = regular_tanner(random.Random(3), 24, 3, 6)
    assert len(r.constraints) == 36
    decode_iterative(r, None, max_iters=2, tol=0)
    assert sorted(len(code.ambient.labels) for code in compiled) == [4, 6]


# -- the reference engine: the per-target loop and the passer around it ----------


def ref_sp_update(code, incoming, target, exact=True, cap=2**20):
    amb = code.ambient
    target_alpha = amb.alphabet(target)
    others = [lab for lab in amb.labels if lab != target]
    for lab in others:
        if lab not in incoming:
            raise MissingIncoming(f"no incoming message for {lab!r}")
    zero = Fraction(0) if exact else 0.0
    out = [zero] * target_alpha.order
    if code.order > cap:
        raise TooLargeToEnumerate("constraint code too large for sum-product")
    for word in code.elements(cap):
        w = Fraction(1) if exact else 1.0
        for lab in others:
            msg = incoming[lab]
            w *= msg.weights[msg.alphabet.index(amb.get(word, lab))]
            if w == 0:
                break
        if w == 0:
            continue
        out[target_alpha.index(amb.get(word, target))] += w
    return Message(target_alpha, tuple(out))


class RefPasser:
    def __init__(self, r, priors, exact):
        self.r, self.priors, self.exact = r, priors, exact
        self.edges = [j for j in r.internal_states() if len(r.slots[j]) == 2]
        self.msgs = {}

    def other_end(self, cl, j):
        ends = self.r.slots[j]
        return ends[1] if ends[0][0] == cl else ends[0]

    def cross_edge(self, msg, j, from_tail):
        iso = self.r.states[j].iso
        if iso is None:
            return msg
        phi = iso if from_tail else iso.inverse()
        w = [None] * msg.alphabet.order
        for v in msg.alphabet.elements():
            w[msg.alphabet.index(phi.apply(v))] = msg.weights[msg.alphabet.index(v)]
        return Message(msg.alphabet, tuple(w))

    def is_tail(self, cl, j):
        return self.r.slots[j][0][0] == cl

    def incoming_at(self, cl, skip_slot):
        con = self.r.constraints[cl]
        inc = {}
        for i, v in enumerate(con.vars):
            if i == skip_slot:
                continue
            lab = con.code.ambient.labels[i]
            if v in self.r.symbols:
                inc[lab] = self.priors[v]
            else:
                oc, _ = self.other_end(cl, v)
                m = self.msgs[(oc, v)]
                if self.is_tail(oc, v) != self.is_tail(cl, v):
                    m = self.cross_edge(m, v, from_tail=self.is_tail(oc, v))
                inc[lab] = m
        return inc

    def compute(self, cl, j):
        con = self.r.constraints[cl]
        slot = con.vars.index(j)
        out = ref_sp_update(con.code, self.incoming_at(cl, slot),
                            con.code.ambient.labels[slot], self.exact)
        return out if self.exact else out.normalized()

    def tree_message(self, cl, j):
        if (cl, j) not in self.msgs:
            for v in self.r.constraints[cl].vars:
                if v not in self.r.symbols and v != j:
                    self.tree_message(self.other_end(cl, v)[0], v)
            self.msgs[(cl, j)] = self.compute(cl, j)
        return self.msgs[(cl, j)]

    def result(self):
        sym = {}
        for k in sorted(self.r.symbols, key=sort_key):
            (cl, slot), = self.r.slots[k]
            con = self.r.constraints[cl]
            m = ref_sp_update(con.code, self.incoming_at(cl, slot),
                              con.code.ambient.labels[slot], self.exact)
            w = tuple(a * b for a, b in zip(m.weights, self.priors[k].weights))
            sym[k] = Message(m.alphabet, w).normalized()
        st = {}
        for j in sorted(self.edges, key=sort_key):
            (tc, _), (hc, _) = self.r.slots[j]
            tail = self.msgs[(tc, j)]
            head = self.cross_edge(self.msgs[(hc, j)], j, from_tail=False)
            w = tuple(a * b for a, b in zip(tail.weights, head.weights))
            st[j] = Message(tail.alphabet, w).normalized()
        return sym, st


def ref_points_coreward(adj, core, toward, away):
    seen, stack = {away, toward}, [toward]
    while stack:
        c = stack.pop()
        if c in core:
            return True
        for _, o in adj[c]:
            if o not in seen:
                seen.add(o)
                stack.append(o)
    return False


def ref_delta(a, b):
    return max(abs(float(x) - float(y))
               for x, y in zip(a.normalized().weights, b.normalized().weights))


def ref_decode(r, priors, max_iters, schedule, damping, exact):
    """The earlier decode_iterative with tol=0: marginals and deltas."""
    passer = RefPasser(r, full_priors(r, priors, exact), exact)
    if cyclomatic_number(r) == 0:
        for j in passer.edges:
            for cl, _ in r.slots[j]:
                passer.tree_message(cl, j)
        return passer.result(), [0.0]
    core = two_core_constraints(r)
    core_edges = [j for j in passer.edges if all(c in core for c, _ in r.slots[j])]
    adj = r.neighbors()
    for j in passer.edges:
        if j not in core_edges:
            (tc, _), (hc, _) = r.slots[j]
            passer.tree_message(hc if ref_points_coreward(adj, core, tc, hc) else tc, j)
    for j in core_edges:
        for cl, _ in r.slots[j]:
            passer.msgs[(cl, j)] = uniform_message(r.states[j].alphabet, exact)
    directed = sorted(((cl, j) for j in core_edges for cl, _ in r.slots[j]),
                      key=lambda t: (sort_key(t[1]), sort_key(t[0])))
    damp = Fraction(damping) if exact else damping
    deltas = []
    for _ in range(max_iters):
        delta = 0.0
        if schedule == "flooding":
            new = {key: passer.compute(*key) for key in directed}
        for key in directed:
            m = new[key] if schedule == "flooding" else passer.compute(*key)
            old = passer.msgs[key]
            if damping:
                m = Message(m.alphabet, tuple((1 - damp) * a + damp * b
                                              for a, b in zip(m.weights, old.weights)))
            delta = max(delta, ref_delta(old, m))
            passer.msgs[key] = m
        deltas.append(delta)
    for j in passer.edges:
        for cl, _ in r.slots[j]:
            passer.tree_message(cl, j)
    return passer.result(), deltas


# -- instances -------------------------------------------------------------------


def random_priors(r, rng, exact):
    """Random weights with some zeros, so the zero early exit is exercised."""
    def weight():
        if rng.random() < 0.15:
            return Fraction(0) if exact else 0.0
        return Fraction(rng.randrange(1, 20), 20) if exact else rng.random()
    return {k: Message(alpha, tuple(weight() for _ in range(alpha.order)))
            for k, alpha in r.symbols.items()}


def assert_exact(res, want):
    """Equal marginals and flag, every weight of `res` a `Fraction`."""
    assert res.symbol_marginals == want.symbol_marginals
    assert res.state_marginals == want.state_marginals
    assert res.contradiction == want.contradiction
    for m in (*res.symbol_marginals.values(), *res.state_marginals.values()):
        assert all(type(w) is Fraction for w in m.weights), m


def mixed_priors(r, rng):
    """Weights over the denominators 3, 7 and 6, a fifth of them zero."""
    def weight():
        if rng.random() < 0.2:
            return Fraction(0)
        return rng.choice((Fraction(1, 3), Fraction(2, 7), Fraction(5, 6))) \
            * rng.randrange(1, 4)
    return {k: Message(alpha, tuple(weight() for _ in range(alpha.order)))
            for k, alpha in r.symbols.items()}


def assert_both_exact_routes(r, priors):
    """`decode_exact` and `decode_iterative(exact=True)` against the oracle."""
    want = brute_force_app(r, priors)
    assert_exact(decode_exact(r, priors), want)
    res, report = decode_iterative(r, priors, exact=True)
    assert report.converged
    assert_exact(res, want)
    return want


def test_float_decode_equals_the_per_target_loop():
    runs = iso_instances = 0
    for r in engine_instances(("cycle", "cycle_pendant", "theta"), 30):
        iso_instances += any(sv.iso is not None for sv in r.states.values())
        priors = random_priors(r, random.Random(runs), exact=False)
        for schedule in ("flooding", "serial"):
            for damping in (0.0, 0.5):
                res, report = decode_iterative(r, priors, max_iters=6,
                                               schedule=schedule,
                                               damping=damping, tol=0)
                (sym, st), deltas = ref_decode(r, priors, 6, schedule, damping,
                                               exact=False)
                assert res.symbol_marginals == sym
                assert res.state_marginals == st
                assert report.deltas == deltas
                runs += 1
    assert runs >= 100 and iso_instances >= 20


def test_bench_shaped_tanner_decode_equals_the_per_target_loop():
    """The shape of the bench's `ldpc` decode: degree-4 equality nodes and
    degree-6 checks, every node sending all its core messages in one pass,
    priors with zeros."""
    for n in (24, 48):
        rng = random.Random(f"tanner/{n}")
        r = regular_tanner(rng, n, 3, 6)
        priors = random_priors(r, rng, exact=False)
        for schedule in ("flooding", "serial"):
            for damping in (0.0, 0.5):
                res, report = decode_iterative(r, priors, max_iters=8,
                                               schedule=schedule,
                                               damping=damping, tol=0)
                (sym, st), deltas = ref_decode(r, priors, 8, schedule, damping,
                                               exact=False)
                assert res.symbol_marginals == sym, (n, schedule, damping)
                assert res.state_marginals == st, (n, schedule, damping)
                assert report.deltas == deltas, (n, schedule, damping)
    r = regular_tanner(random.Random("tanner/exact"), 24, 3, 6)
    priors = random_priors(r, random.Random(24), exact=True)
    res, report = decode_iterative(r, priors, max_iters=3, tol=0, exact=True)
    (sym, st), deltas = ref_decode(r, priors, 3, "flooding", 0.0, exact=True)
    assert (res.symbol_marginals, res.state_marginals) == (sym, st)
    assert report.deltas == deltas


def test_iso_sign_shows_in_the_decode():
    """`accumulator_ring` is a Z_12 ring whose code changes when an edge iso
    is negated, so a message read across an iso edge without its
    permutation changes the marginals."""
    r = accumulator_ring(8)
    assert sum(sv.iso is not None for sv in r.states.values()) == 4
    priors = random_priors(r, random.Random("accumulator"), exact=False)
    for schedule in ("flooding", "serial"):
        for damping in (0.0, 0.5):
            res, report = decode_iterative(r, priors, max_iters=6, schedule=schedule,
                                           damping=damping, tol=0)
            (sym, st), deltas = ref_decode(r, priors, 6, schedule, damping, exact=False)
            assert res.symbol_marginals == sym, (schedule, damping)
            assert res.state_marginals == st, (schedule, damping)
            assert report.deltas == deltas, (schedule, damping)


def test_a_decode_compiles_one_epilogue_per_alphabet_order():
    """From cleared caches, a 20-sweep flooding decode compiles one kernel
    per node shape (3 on a (3,6)-regular Tanner graph, 2 on a ring shaped
    like the bench's) and one epilogue per distinct alphabet order of its
    messages (2 on the graph; 3, 4 and 12 on the ring)."""
    for r, kernels, epilogues in (
            (regular_tanner(random.Random("compiles"), 48, 3, 6), 3, 1),
            (bench_like_ring(16), 2, 3)):
        decode._kernel.cache_clear()
        decode._epilogue.cache_clear()
        decode_iterative(r, random_priors(r, random.Random(0), exact=False),
                         max_iters=20, tol=0)
        assert len({sv.alphabet.order for sv in r.states.values()}) == epilogues
        assert decode._kernel.cache_info().misses == kernels
        assert decode._epilogue.cache_info().misses == epilogues


def pendant_cycle(k: int, n: int = 200):
    """A cycle of k - 1 with one pendant constraint and an n-section chain
    hanging off the cycle, random codes over `POOL`, isos on most edges."""
    chain = random_fragment(n, GF2, n, POOL)
    ring = _relabeled(random_fragment(k, GF2, k, POOL, cycle_free=False), "ring")
    return with_isos(ring.connect(chain, "ring.b0", "b0"), random.Random(k), 0.8)


def test_pendant_chains_decode_as_the_per_target_loop():
    """The peeled forest of a cycle with a long pendant chain: sent once in
    and once out around the core iterations, as the reference sends it
    (whose search for the core side of each edge is quadratic in n)."""
    for k in (4, 5):
        r = pendant_cycle(k)
        assert len(two_core_constraints(r)) == k - 1 and len(r.constraints) == k + 200
        priors = random_priors(r, random.Random(k), exact=False)
        schedule = ("flooding", "serial")[k % 2]
        res, report = decode_iterative(r, priors, max_iters=4, schedule=schedule,
                                       damping=0.25, tol=0)
        (sym, st), deltas = ref_decode(r, priors, 4, schedule, 0.25, exact=False)
        assert res.symbol_marginals == sym and res.state_marginals == st
        assert report.deltas == deltas


def test_exact_iterative_equals_the_per_target_loop():
    done = 0
    for r in engine_instances(("cycle", "theta"), 12):
        priors = random_priors(r, random.Random(done), exact=True)
        res, report = decode_iterative(r, priors, max_iters=3, damping=0.5,
                                       tol=0, exact=True)
        (sym, st), deltas = ref_decode(r, priors, 3, "flooding", 0.5, exact=True)
        assert (res.symbol_marginals, res.state_marginals) == (sym, st)
        assert report.deltas == deltas
        done += 1
    assert done >= 8


def test_exact_decode_equals_brute_force():
    """Both exact routes run on integer weights; priors alternate between
    twentieths and mixed denominators, and every fourth instance has an
    all-zero prior, which no word survives."""
    done = iso_instances = contradictions = 0
    for r in engine_instances(("path",), 40):
        if r.configuration_space_order() > 2**16:
            continue            # beyond what enumeration reaches quickly
        rng = random.Random(done)
        priors = mixed_priors(r, rng) if done % 2 else random_priors(r, rng, exact=True)
        if done % 4 == 3 and r.symbols:
            k = min(r.symbols, key=sort_key)
            priors[k] = Message(r.symbols[k], (Fraction(0),) * r.symbols[k].order)
        contradictions += assert_both_exact_routes(r, priors).contradiction
        iso_instances += any(sv.iso is not None for sv in r.states.values())
        done += 1
    assert done >= 20 and iso_instances >= 10 and contradictions >= 5


def test_exact_damping_is_read_from_its_decimal_string():
    r = tail_biting_rep2()
    priors = random_priors(r, random.Random(7), exact=True)
    res, report = decode_iterative(r, priors, max_iters=4, damping=0.1, tol=0,
                                   exact=True)
    (sym, st), deltas = ref_decode(r, priors, 4, "flooding", Fraction(1, 10),
                                   exact=True)
    assert res.symbol_marginals == sym and report.deltas == deltas
    (binary, _), _ = ref_decode(r, priors, 4, "flooding", 0.1, exact=True)
    assert binary != sym


def test_decode_exact_on_a_fragment_uses_flat_boundary_evidence():
    base = random_realization(5, topology="path", n_constraints=3)
    cases = [(frag, random_priors(frag, random.Random(5), exact=True))
             for frag in base.split(["s0"]).fragments]
    for r in engine_instances(("path",), 40):
        edges = [j for j in r.internal_states() if len(r.slots[j]) == 2]
        if edges and r.configuration_space_order() <= 2**16:
            cases += [(frag, mixed_priors(frag, random.Random(len(cases))))
                      for frag in r.split(edges[:1]).fragments]
    for frag, priors in cases:
        assert frag.boundary
        assert_both_exact_routes(frag, priors)
    assert len(cases) >= 20


def test_a_prior_over_another_alphabet_is_refused():
    """The tables index a prior by its symbol's alphabet, so a prior over
    another alphabet of the same order (Z_4 against GF(2)^2) is refused."""
    r = z4_sample_realizations()[0]
    k = sorted(r.symbols)[0]
    prior = Message(vector_space(2, 2), tuple(Fraction(i + 1) for i in range(4)))
    with pytest.raises(ValueError, match="is over GF"):
        decode_exact(r, {k: prior})


def over_cap_document() -> dict:
    """A degree-22 GF(2) zero-sum check (2^21 codewords) on a 2-cycle."""
    sym = [f"a{i}" for i in range(20)]
    vars_ = sym + ["s0", "s1"]
    zero_sum = [[int(c == i or c == len(vars_) - 1) for c in range(len(vars_))]
                for i in range(len(vars_) - 1)]
    return {
        "alphabets": {"F": {"field": 2}},
        "symbols": [{"id": a, "alphabet": "F"} for a in sym + ["a20"]],
        "states": [{"id": "s0", "alphabet": "F"}, {"id": "s1", "alphabet": "F"}],
        "constraints": [
            {"id": "h", "vars": vars_, "generators": zero_sum},
            {"id": "e", "vars": ["s0", "s1", "a20"], "generators": [[1, 1, 1]]},
        ],
    }


def test_over_cap_constraint_exits_before_any_message(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(over_cap_document()))
    for extra in ([], ["--schedule", "serial"]):
        start = time.perf_counter()
        code = main(["decode", str(path), "--iters", "5", *extra])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("error: constraint 'h'") and err.count("\n") == 1
        assert elapsed < 1.0



# -- the index tables against the per-codeword builder ---------------------------


def ref_index_table(code, alphabets, cap):
    """The per-codeword builder the column-wise tables replaced: the code
    listed by the recursive span oracle, one `Alphabet.index` per slot per
    codeword."""
    if code.order > cap:
        raise TooLargeToEnumerate(f"subgroup of order {code.order} exceeds cap {cap}")
    amb = code.ambient
    spans = [amb.span(lab) for lab in amb.labels]
    words = map(code._unlift, span_elements(code._lifted, amb.lcm_modulus, amb.width))
    return [tuple(alpha.index(word[a:b]) for alpha, (a, b) in zip(alphabets, spans))
            for word in words]


def table_realizations():
    """The syndrome pool, random realizations with isos in all four
    topologies (the width-2 pool and the default one), the corpus, and the
    bench's trellis, ring and (3,6) Tanner documents."""
    yield from syndrome_instances()
    yield from engine_instances(TOPOLOGIES, 24)
    for seed in range(24):
        r = random_realization(seed, topology=TOPOLOGIES[seed % 4], iso_prob=0.8)
        if r.validate().is_valid:
            yield r
    for path in sorted(CORPUS.glob("*.json")):
        if not path.stem.endswith("_priors"):
            yield load_realization(str(path))
    workloads = bench_module("workloads")
    for w in (workloads.trellis_workload(0), workloads.ring_workload(0),
              workloads.ldpc_workload(0, 48)):
        yield realization_from_json(w.realization)


def test_index_tables_equal_the_per_codeword_builder():
    """Same rows in the same order, which fixes the order of float sums."""
    seen = set()
    for r in table_realizations():
        for con in r.constraints.values():
            alphas = [alpha for _, alpha in con.code.ambient.factors]
            key = (tuple(alpha.moduli for alpha in alphas), con.code.rows)
            if key not in seen:
                seen.add(key)
                assert (decode._index_table(con.code, alphas, 2**20)
                        == ref_index_table(con.code, alphas, 2**20)), key
    assert len(seen) >= 300


def test_an_index_table_over_the_cap_is_refused_before_it_is_built():
    code = realization_from_json(over_cap_document()).constraints["h"].code
    alphas = [alpha for _, alpha in code.ambient.factors]
    for cap in (2**20, 2**21 - 1):
        with pytest.raises(TooLargeToEnumerate) as want:
            ref_index_table(code, alphas, cap)
        tracemalloc.start()
        try:
            with pytest.raises(TooLargeToEnumerate) as got:
                decode._index_table(code, alphas, cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(got.value) == str(want.value)
        assert peak < 2**16
    # a table of 2^100 rows cannot be allocated, so only a check first passes
    space = vector_space(2, 100)
    huge = CodeSubgroup(ProductSpace([("x", space)]),
                        [[int(i == j) for j in range(100)] for i in range(100)])
    with pytest.raises(TooLargeToEnumerate, match=f"order {2**100} exceeds"):
        decode._index_table(huge, [space], 2**20)
