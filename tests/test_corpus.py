"""Corpus builders, the seeded streams and the exhaustive oracle harness."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

from normgraph import zmod
from normgraph.corpus import (
    GF2,
    GF3,
    Z4,
    equality_node,
    tail_biting_rep2,
    tanner_realization,
    trellis_realization,
    zero_sum_node,
)
from normgraph.serialize import load_realization, realization_to_json
from normgraph.subgroups import CodeSubgroup
from tests.oracles import (
    TOPOLOGIES,
    OracleHarness,
    accumulator_ring,
    bench_like_ring,
    brute_force_app,
    configurations,
    engine_instances,
    instances,
    random_fragment,
    random_realization,
    random_small_realization,
    universe_behaviors,
    z4_sample_realizations,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_equality_node_realizes_repetition():
    r = equality_node(GF3, 4)
    assert r.code().order == 3
    assert (1, 1, 1, 1) in set(r.code().elements())


def test_zero_sum_node():
    r = zero_sum_node(GF2, 4)
    assert r.code().order == 8
    assert all(sum(x) % 2 == 0 for x in r.code().elements())


def test_tanner_redundant_fixture_shape():
    r = tanner_realization([[1, 1, 1, 1], [1, 1, 1, 1]], GF2)
    assert r.validate().is_valid
    # 4 equality replicas + 2 checks, 8 state edges
    assert len(r.constraints) == 6
    assert len(r.states) == 8
    want = {x for x in r.code().elements() if sum(x) % 2 == 0}
    assert set(r.code().elements()) == want


def test_trellis_construction_matches_span():
    rng = random.Random(157)
    for seed in range(10):
        n = rng.randrange(2, 5)
        alphas = [rng.choice([GF2, GF3, Z4]) for _ in range(n)]
        from normgraph.alphabets import ProductSpace
        amb = ProductSpace(list(enumerate(alphas)))
        rows = [tuple(rng.randrange(m) for m in amb.moduli)
                for _ in range(rng.randrange(1, 3))]
        r = trellis_realization(rows, alphas)
        assert r.validate().is_valid
        from normgraph.subgroups import CodeSubgroup
        want = CodeSubgroup(amb, rows)
        got = r.code()
        assert got.rows == want.rows


def test_z4_samples_valid():
    for r in z4_sample_realizations():
        assert r.validate().is_valid
        assert r.code().order > 1


def test_random_topologies_shape():
    from normgraph.graphcore import cyclomatic_number
    assert cyclomatic_number(random_realization(1, "path")) == 0
    assert cyclomatic_number(random_realization(2, "cycle")) == 1
    assert cyclomatic_number(random_realization(3, "theta")) == 2
    r = random_realization(4, "cycle_pendant")
    assert cyclomatic_number(r) == 1
    # seeds reproduce
    assert random_realization(5, "cycle") == random_realization(5, "cycle")


def test_random_realizations_mostly_valid():
    ok = 0
    for seed in range(30):
        r = random_realization(seed, topology="cycle", iso_prob=0.3)
        if r.validate().is_valid:
            ok += 1
    assert ok >= 25


def test_oracle_matches_algebra():
    done = 0
    for seed in range(15):
        r = random_realization(seed, topology="cycle", n_constraints=3)
        if not r.validate().is_valid:
            continue
        if r.configuration_space_order() > 2**12:
            continue
        oracle = OracleHarness.build(r)
        assert oracle.projection(oracle.syms) == set(r.code().elements())
        assert set(r.behavior().elements()) == {sum(word, ()) for word in oracle.behavior}
        external = universe_behaviors(r).external
        assert oracle.projection(oracle.syms + oracle.bound) == set(external.elements())
        done += 1
    assert done >= 8


def test_oracle_tail_biting():
    r = tail_biting_rep2()
    oracle = OracleHarness.build(r)
    assert oracle.projection(oracle.syms) == {(0, 0), (1, 1)}
    assert oracle.unobservable_states() == {(0, 0)}
    assert oracle.controllable_syndromes() == {(0, 0), (1, 1)}


def test_sign_inversion_code():
    from normgraph.corpus import sign_inversion_code

    code = sign_inversion_code(Z4)
    assert set(code.elements()) == {(v, (-v) % 4) for v in range(4)}


def test_oracle_lists_no_code_from_a_howell_form(monkeypatch):
    """The oracle answers the same with `zmod.span_columns` and
    `CodeSubgroup.columns` disabled, so it never lists a code the way the
    decode tables it checks are built."""
    rs = [load_realization(str(p)) for p in sorted(CORPUS.glob("*.json"))
          if not p.stem.endswith("_priors")]
    rs += itertools.islice(instances(), 12)
    rs += [random_realization(s, TOPOLOGIES[s % 4], iso_prob=0.5) for s in range(12)]
    rs = [r for r in rs if r.configuration_space_order() <= 2**14]

    def answers():
        return [(OracleHarness.build(r).behavior, list(configurations(r)),
                 brute_force_app(r), brute_force_app(r, exact=False)) for r in rs]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle listed a code from its Howell form")

    want = answers()
    monkeypatch.setattr(zmod, "span_columns", refuse)
    monkeypatch.setattr(CodeSubgroup, "columns", refuse)
    assert answers() == want and len(want) >= 25


def test_seeded_streams_are_unchanged():
    """Every seeded generator draws the realizations it drew when it lived
    in `normgraph.corpus` or in the test modules: the digest of their JSON
    documents was recorded there."""
    rs = [random_realization(seed, topology, iso_prob=p)
          for seed in range(200) for topology in TOPOLOGIES for p in (0.0, 0.8)]
    rs += [random_fragment(seed, (GF2, GF3, Z4)[seed % 3], cycle_free=seed % 2 == 0)
           for seed in range(200)]
    rs += [*z4_sample_realizations(), *instances(), bench_like_ring(8), accumulator_ring(8)]
    docs = json.dumps([realization_to_json(r) for r in rs], sort_keys=True)
    assert hashlib.sha256(docs.encode()).hexdigest() == (
        "031faf70fdbaa681ba833cdadfcebc51e7be9dbfdfdef996559e82e0a9fbdd72")
    rng = random.Random(97)
    rs = [*(random_small_realization(rng) for _ in range(40)),
          *engine_instances(TOPOLOGIES, 40)]
    docs = json.dumps([realization_to_json(r) for r in rs], sort_keys=True)
    assert hashlib.sha256(docs.encode()).hexdigest() == (
        "2e59e6cdf563462ff579a3fb75657690d32044c99923ec3b317b4b5e2d9576c6")
