"""Self-tests of the benchmark: generators, oracles and tracer.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

from normgraph.cli import main  # noqa: E402
from normgraph.corpus import GF2, tanner_realization, trellis_realization  # noqa: E402
from normgraph.serialize import realization_from_json  # noqa: E402

REP3 = ROOT / "corpus" / "rep3.json"
REP3_PRIORS = ROOT / "corpus" / "rep3_priors.json"
REP3_CODE = {(0, 0, 0), (1, 1, 1)}


def cli(capsys, *argv) -> str:
    assert main([str(a) for a in argv]) == 0
    return capsys.readouterr().out


def rep3_doc():
    return oracles.Doc(json.loads(REP3.read_text()))


# -- generators ------------------------------------------------------------------


def test_generated_trellis_realizes_the_library_builders_code():
    wl = workloads.trellis_workload(5)
    rows, n = wl.facts["rows"], wl.facts["n"]
    ours = realization_from_json(wl.realization)
    assert ours.code() == trellis_realization(rows, [GF2] * n).code()
    assert ours.code().order == 2 ** len(rows)


def test_generated_tanner_graph_realizes_the_library_builders_code():
    rng = random.Random(3)
    h = workloads.regular_check_matrix(rng, 12, 3, 6)
    ours = realization_from_json(workloads.tanner_document(h))
    assert len(ours.constraints) == 12 + 6
    assert ours.code() == tanner_realization(h, GF2).code()


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_workloads_repeat_for_a_seed_and_vary_across_seeds(name):
    gen = workloads.GENERATORS[name]
    assert gen(1).realization == gen(1).realization
    assert gen(1).priors == gen(1).priors
    assert gen(1).realization != gen(2).realization


def test_ldpc_graph_is_regular():
    h = workloads.ldpc_workload(0).facts["h"]
    assert len(h) == 96 and len(h[0]) == 192
    assert all(sum(row) == 6 for row in h)
    assert all(sum(row[j] for row in h) == 3 for j in range(192))


# -- oracles on the shipped corpus -------------------------------------------------


def test_oracles_accept_rep3(capsys, tmp_path):
    d = rep3_doc()
    assert oracles.count_configurations(d) == 2
    out = cli(capsys, "behavior", REP3, "--external-only")
    assert oracles.check_code_rows(out, REP3_CODE, 3) == []
    out = cli(capsys, "check-duality", REP3)
    assert oracles.check_duality_summary(out, 2, 8) == []
    out = cli(capsys, "analyze", REP3, "--json")
    assert oracles.check_analyze(out, oracles.analyze_orders(d)) == []
    minimized = tmp_path / "min.json"
    out = cli(capsys, "minimize", REP3, "-o", minimized)
    assert oracles.check_minimized(json.loads(minimized.read_text()), out,
                                   REP3_CODE, 3) == []
    priors = json.loads(REP3_PRIORS.read_text(), parse_float=str)
    app = oracles.exact_app(REP3_CODE, priors)
    assert app["a0"] == [Fraction(729, 730), Fraction(1, 730)]
    out = cli(capsys, "decode", REP3, "--exact", "--priors", REP3_PRIORS)
    assert oracles.check_exact_marginals(out, app) == []


def test_chain_count_matches_enumeration_on_a_small_ring():
    doc = workloads.ring_document(random.Random(11), 4)
    d = oracles.Doc(doc)
    assert d.iso, "the fixture should exercise iso-labelled edges"
    labels = list(d.symbols) + list(d.states)
    words = [d.words(c) for c in range(len(d.constraints))]
    count = count0 = 0
    for values in itertools.product(
            *(list(oracles._elements(d.moduli(v))) for v in labels)):
        val = dict(zip(labels, values))
        ok = True
        for c, con in enumerate(d.constraints):
            slot = []
            for i, v in enumerate(con["vars"]):
                x = val[v]
                if v in d.states and not d.is_tail(c, i, v):
                    x = d.head_of(v, x)
                slot.append(x)
            ok = ok and tuple(slot) in words[c]
        if ok:
            count += 1
            count0 += all(not any(val[k]) for k in d.symbols)
    assert oracles.count_configurations(d) == count
    assert oracles.count_configurations(d, zero_symbols=True) == count0


def test_reference_bp_agrees_with_the_cli_on_a_small_tanner_graph(capsys, tmp_path):
    rng = random.Random(4)
    h = workloads.regular_check_matrix(rng, 12, 3, 6)
    priors = workloads.bsc_priors(rng, 12, 0.2)
    f, p = tmp_path / "t.json", tmp_path / "p.json"
    f.write_text(json.dumps(workloads.tanner_document(h)))
    p.write_text(json.dumps(priors))
    out = cli(capsys, "decode", f, "--iters", "8", "--tol", "0", "--priors", p)
    assert oracles.check_bp_marginals(out, oracles.reference_bp(h, priors, 4)) == []
    assert oracles.check_bp_marginals(out, oracles.reference_bp(h, priors, 3)) != []


# -- corrupted answers are flagged ------------------------------------------------


def test_corrupted_state_order_is_flagged(capsys, tmp_path):
    minimized = tmp_path / "min.json"
    out = cli(capsys, "minimize", REP3, "-o", minimized)
    doc = json.loads(minimized.read_text())
    doc["alphabets"]["big"] = {"cyclic": [2, 2]}
    doc["states"][0]["alphabet"] = "big"
    assert oracles.check_minimized(doc, out, REP3_CODE, 3)
    assert oracles.check_minimized(json.loads(minimized.read_text()),
                                   out.replace("[2, 2]", "[2, 4]"), REP3_CODE, 3)


def test_corrupted_code_row_is_flagged(capsys):
    out = cli(capsys, "behavior", REP3, "--external-only")
    assert oracles.check_code_rows(out.replace("1 1 1", "1 0 1"), REP3_CODE, 3)
    assert oracles.check_code_rows(out.replace("# order 2", "# order 4"),
                                   REP3_CODE, 3)


def test_corrupted_marginal_is_flagged(capsys):
    priors = json.loads(REP3_PRIORS.read_text(), parse_float=str)
    app = oracles.exact_app(REP3_CODE, priors)
    out = cli(capsys, "decode", REP3, "--exact", "--priors", REP3_PRIORS)
    assert oracles.check_exact_marginals(out.replace("729/730", "728/730", 1), app)
    floats = {k: [float(w) for w in ws] for k, ws in app.items()}
    bad = dict(floats, a1=[floats["a1"][0] - 1e-6, floats["a1"][1] + 1e-6])
    assert oracles.check_bp_marginals(json.dumps(floats), floats) == []
    assert oracles.check_bp_marginals(json.dumps(bad), floats)
    assert oracles.check_distributions(json.dumps({"a0": [0.5, 0.6]}), {"a0": 2})


def test_corrupted_analyze_orders_are_flagged(capsys):
    orders = oracles.analyze_orders(rep3_doc())
    out = cli(capsys, "analyze", REP3, "--json")
    entry = json.loads(out)
    entry[0]["controllability_test"]["order_extended"] *= 2
    assert oracles.check_analyze(json.dumps(entry), orders)


# -- tracer ----------------------------------------------------------------------


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_toy_nested_call(monkeypatch):
    clock = Clock()
    toy = types.ModuleType("normgraph._toy")

    def inner(k):
        clock.now += 2.0
        if k:
            toy.inner(k - 1)

    def outer():
        clock.now += 1.0
        toy.inner(1)          # 2 + 2 inside, one level recursive
        clock.now += 3.0
        toy.inner(0)          # 2

    toy.inner, toy.outer = inner, outer
    user = types.ModuleType("normgraph._toy_user")
    user.inner = inner        # imported by name elsewhere
    monkeypatch.setitem(sys.modules, "normgraph._toy", toy)
    monkeypatch.setitem(sys.modules, "normgraph._toy_user", user)
    tracer = Tracer([Target("_toy", "outer", "toy.outer", ("self_s",)),
                     Target("_toy", "inner", "toy.inner", ("self_s",)),
                     Target("_toy", "gone", "toy.gone", ("self_s",))],
                    clock=clock)
    with tracer:
        assert user.inner is not inner
        toy.outer()
    assert toy.inner is inner and user.inner is inner
    assert [t.name for t in tracer.installed] == ["toy.outer", "toy.inner"]
    o, i = tracer.stats["toy.outer"], tracer.stats["toy.inner"]
    assert (o.calls, o.total_s, o.self_s) == (1, 10.0, 4.0)
    assert (i.calls, i.total_s, i.self_s) == (3, 6.0, 6.0)
