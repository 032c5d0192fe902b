"""The compiled sum-product engine against the per-target loop it replaced.

`decode.py` compiles each constraint into a table of per-slot alphabet
indices and sends all of a node's messages from one pass over it.  The
reference below is the earlier engine, kept whole: one enumeration of the
code per target, `Message` objects throughout, and messages carried across
an iso edge through `iso.apply` and `iso.inverse()`.  Float marginals and
convergence deltas must be equal, not close: the new kernel folds each
product in the same order, so the rounding is the same.

The realizations come from the width-2 and composite pool of
`tests/test_syndrome.py`, with random automorphisms on most edges.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import pytest

from normgraph.alphabets import sort_key, vector_space
from normgraph.cli import main
from normgraph.corpus import (
    random_realization,
    tail_biting_rep2,
    z4_sample_realizations,
)
from normgraph.decode import (
    Message,
    brute_force_app,
    decode_exact,
    decode_iterative,
    full_priors,
    uniform_message,
)
from normgraph.errors import MissingIncoming, TooLargeToEnumerate
from normgraph.graphcore import cyclomatic_number, two_core_constraints
from tests.test_syndrome import POOL, with_isos

# -- the reference: the per-target loop and the passer around it ----------------


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


def ref_points_coreward(r, core, toward, away):
    seen, stack = {away, toward}, [toward]
    while stack:
        c = stack.pop()
        if c in core:
            return True
        for _, o in r.neighbors()[c]:
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
    for j in passer.edges:
        if j not in core_edges:
            (tc, _), (hc, _) = r.slots[j]
            passer.tree_message(hc if ref_points_coreward(r, core, tc, hc) else tc, j)
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


def pool_instances(topologies, count):
    for seed in range(count):
        topology = topologies[seed % len(topologies)]
        base = random_realization(1000 + seed, topology=topology, pool=POOL,
                                  n_constraints=3 + seed % 2, symbol_prob=0.7,
                                  max_gens=2)
        if base.validate().is_valid:
            yield with_isos(base, random.Random(f"engine/{seed}"), 0.8)


def random_priors(r, rng, exact):
    """Random weights with some zeros, so the zero early exit is exercised."""
    def weight():
        if rng.random() < 0.15:
            return Fraction(0) if exact else 0.0
        return Fraction(rng.randrange(1, 20), 20) if exact else rng.random()
    return {k: Message(alpha, tuple(weight() for _ in range(alpha.order)))
            for k, alpha in r.symbols.items()}


def test_float_decode_equals_the_per_target_loop():
    runs = iso_instances = 0
    for r in pool_instances(("cycle", "cycle_pendant", "theta"), 30):
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


def test_exact_iterative_equals_the_per_target_loop():
    done = 0
    for r in pool_instances(("cycle", "theta"), 12):
        priors = random_priors(r, random.Random(done), exact=True)
        res, report = decode_iterative(r, priors, max_iters=3, damping=0.5,
                                       tol=0, exact=True)
        (sym, st), deltas = ref_decode(r, priors, 3, "flooding", 0.5, exact=True)
        assert (res.symbol_marginals, res.state_marginals) == (sym, st)
        assert report.deltas == deltas
        done += 1
    assert done >= 8


def test_exact_decode_equals_brute_force():
    done = 0
    for r in pool_instances(("path",), 40):
        if r.configuration_space_order() > 2**16:
            continue            # beyond what enumeration reaches quickly
        priors = random_priors(r, random.Random(done), exact=True)
        res = decode_exact(r, priors)
        bf = brute_force_app(r, priors)
        assert res.symbol_marginals == bf.symbol_marginals
        assert res.state_marginals == bf.state_marginals
        done += 1
    assert done >= 20


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
    r = random_realization(5, topology="path", n_constraints=3)
    for frag in r.split(["s0"]).fragments:
        priors = random_priors(frag, random.Random(5), exact=True)
        res = decode_exact(frag, priors)
        bf = brute_force_app(frag, priors)
        assert res.symbol_marginals == bf.symbol_marginals
        assert res.state_marginals == bf.state_marginals


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

