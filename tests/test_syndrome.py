"""The syndrome map on realizations whose edges carry general isomorphisms.

`behavior_bundle` takes the extended behavior as the kernel of the syndrome
map.  `state_trim_status` takes the behavior of the fragment cut at edge j
as K_j = B + preimages of Sigma cap S_j, where Sigma = sigma(U) and
Sigma cap S_j = (proj_j Sigma-perp)-perp (projection/cross-section
duality), from eliminations made once per realization.  These are checked
here against independent routes: U cap V with V built directly, the kernel
of sigma with edge j's block left out (`kernel_route`, one elimination of
the universe per edge), the `split` + `external_behavior` route, and
enumeration.  The edge isomorphisms are random invertible matrices over
width-2 and composite alphabets, not only unit scalings, so a route that
mishandles an iso fails.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stdout

from normgraph import zmod
from normgraph.alphabets import ProductSpace
from normgraph.analysis import (
    StateTrimReport,
    state_trim_status,
    verify_controllability,
)
from normgraph.cli import main
from normgraph.duality import verify_duality
from normgraph.graphcore import cut_edges
from normgraph.realization import Constraint, Realization, StateVar, _map_slot
from normgraph.serialize import dump_realization
from normgraph.subgroups import CodeSubgroup
from tests.oracles import (
    POOL,
    OracleHarness,
    bench_like_ring,
    instances,
    random_iso,
    random_realization,
    random_subgroup,
    with_isos,
)

def report(r, edge, utrans, pairs, state_trim) -> StateTrimReport:
    """The report fields from the fragment's unobservable transitions and
    reachable boundary pairs, over any labels for the pair."""
    alpha = r.states[edge].alphabet
    diag = CodeSubgroup(utrans.ambient, [e + e for e in alpha.unit_rows()])
    w = alpha.width
    diffs = [alpha.add(row[:w], alpha.neg(row[w:])) for row in pairs.rows]
    return StateTrimReport(
        edge=edge,
        state_trim=state_trim,
        dual_state_trim=diag.contains_subgroup(utrans),
        unobservable_transitions=utrans,
        fragment_ext_observable=utrans.is_trivial,
        fragment_ext_controllable=pairs.order == alpha.order ** 2,
        observable=utrans.intersect(diag).is_trivial,
        controllable=CodeSubgroup(ProductSpace([(edge, alpha)]), diffs).is_full)


def kernel_route(r, edge) -> StateTrimReport:
    """K_j as the kernel of sigma with edge j's block left out: one
    elimination of the whole universe per edge."""
    bundle = r.behavior_bundle()
    space = bundle.state_space
    a, b = space.span(edge)
    kernel = bundle.universe.kernel([y[:a] + y[b:] for y in bundle.syndromes],
                                    space.subspace([j for j in space.labels if j != edge]))
    pair = [("s", edge), ("h", edge)]
    ext = kernel.project([lab for lab in kernel.ambient.labels
                          if lab[0] in ("a", "x")] + pair)
    iso = r.states[edge].iso
    if iso is not None:
        ext = _map_slot(ext, ext.ambient.labels.index(("h", edge)), iso.inverse())
    alpha = r.states[edge].alphabet
    state_trim = bundle.behavior.project([("s", edge)]).order == alpha.order
    return report(r, edge, ext.cross_section(pair), ext.project(pair), state_trim)


def split_route(r, edge):
    """The report from the fragment that `split` cuts at the edge, with the
    fragment and its pair of half-edge labels.  The edge's values in the
    behavior are the s with (s, s) a reachable boundary pair."""
    sp = r.split([edge])
    frag, = sp.fragments
    halves = list(sp.halves[edge])
    ext = frag.external_behavior()
    pairs = ext.project(halves)
    alpha = r.states[edge].alphabet
    closed = pairs.intersect(CodeSubgroup(pairs.ambient,
                                          [e + e for e in alpha.unit_rows()]))
    return (report(r, edge, ext.cross_section(halves), pairs,
                   closed.order == alpha.order), frag, halves)


def assert_same_report(got: StateTrimReport, want: StateTrimReport) -> None:
    """Every field equal, the transitions by rows and moduli, since the
    routes may label the pair differently."""
    for name in ("edge", "state_trim", "dual_state_trim", "fragment_ext_observable",
                 "fragment_ext_controllable", "observable", "controllable"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.unobservable_transitions.rows == want.unobservable_transitions.rows
    assert (got.unobservable_transitions.ambient.moduli
            == want.unobservable_transitions.ambient.moduli)


def checked_edges(r):
    """Compare `state_trim_status` with the kernel and split routes on every
    non-cut edge; yield (edge, report, cut fragment, its half-edge labels)."""
    cut = cut_edges(r)
    for j in sorted(r.internal_states()):
        if j in cut:
            continue
        rep = state_trim_status(r, j)
        assert rep == kernel_route(r, j)
        want, frag, halves = split_route(r, j)
        assert_same_report(rep, want)
        yield j, rep, frag, halves


def validity(r: Realization) -> CodeSubgroup:
    """The validity subgroup V of the universe space (head = iso(tail) on
    every internal edge, anything elsewhere), built directly: the oracle
    for the extended behavior U cap V, which `behavior_bundle` takes as
    ker sigma, and for the check space U-perp + V-perp."""
    space = r.universe_space()
    units = space.unit_rows()
    vrows = [units[c] for lab in space.labels if lab[0] in ("a", "x")
             for c in range(*space.span(lab))]
    for j in r.internal_states():
        sv = r.states[j]
        sa, _ = space.span(("s", j))
        ha, hb = space.span(("h", j))
        for i, e in enumerate(sv.alphabet.unit_rows()):
            row = list(units[sa + i])
            row[ha:hb] = sv.head_of(e)
            vrows.append(row)
    return CodeSubgroup(space, vrows)


def test_extended_behavior_is_the_syndrome_kernel():
    done = 0
    for r in instances():
        bundle = r.behavior_bundle()
        assert bundle.extended == bundle.universe.intersect(validity(r))
        assert bundle.syndromes == r.syndromes(bundle.universe.rows)
        assert verify_controllability(r)
        assert verify_duality(r).passed
        done += 1
    assert done >= 40


def test_state_trim_status_matches_split_route_and_enumeration():
    """Every report field agrees with the kernel route and the split route;
    the transitions and the reachable pairs also agree with enumeration."""
    edges = enumerated = iso_edges = 0
    for r in instances():
        for j, rep, frag, halves in checked_edges(r):
            edges += 1
            iso_edges += r.states[j].iso is not None
            if frag.configuration_space_order() <= 2**14:
                oracle = OracleHarness.build(frag)
                got = oracle.cross_section(halves)
                assert set(rep.unobservable_transitions.elements()) == got
                pairs = len(oracle.projection(halves))
                assert rep.fragment_ext_controllable == (
                    pairs == r.states[j].alphabet.order ** 2)
                enumerated += 1
    assert edges >= 100 and iso_edges >= 50 and enumerated >= 25


def test_state_trim_status_on_self_loops():
    """An edge whose two ends sit on one constraint: alone, and beside a
    ring edge and a bridge."""
    rng = random.Random("self-loop")
    for trial in range(12):
        loop, sym = POOL[trial % len(POOL)], POOL[(trial + 2) % len(POOL)]
        ring = POOL[(trial + 1) % len(POOL)]
        states = {"s": StateVar(loop, random_iso(rng, loop))}
        alphas = [loop, sym, loop]
        if trial % 2:
            states["t"] = StateVar(ring, random_iso(rng, ring))
            states["u"] = StateVar(ring)
            alphas += [ring, ring]
        space = ProductSpace(list(enumerate(alphas)))
        vars_ = ("s", "a", "s", "t", "u")[:len(alphas)]
        constraints = {"c0": Constraint(vars_, random_subgroup(rng, space, 3))}
        symbols = {"a": sym}
        if trial % 2:
            # c1 closes a two-edge ring with c0 and hangs c2 on a bridge
            symbols["b"] = sym
            states["v"] = StateVar(sym)
            c1 = ProductSpace(list(enumerate([ring, ring, sym])))
            c2 = ProductSpace(list(enumerate([sym, sym])))
            constraints["c1"] = Constraint(("t", "u", "v"), random_subgroup(rng, c1, 2))
            constraints["c2"] = Constraint(("v", "b"), random_subgroup(rng, c2, 2))
        r = Realization(symbols, states, constraints)
        assert cut_edges(r) == ({"v"} if trial % 2 else set())
        edges = [j for j, *_ in checked_edges(r)]
        assert edges == (["s", "t", "u"] if trial % 2 else ["s"])


def test_state_trim_status_on_theta_with_parallel_iso_edges():
    done = 0
    for seed in range(8):
        base = random_realization(seed, topology="theta", pool=POOL,
                                  symbol_prob=0.8, max_gens=2)
        r = with_isos(base, random.Random(f"theta/{seed}"), 1.0)
        if sum(sv.iso is not None for sv in r.states.values()) < 2:
            continue
        assert [j for j, *_ in checked_edges(r)] == ["s0", "s1", "s2"]
        done += 1
    assert done >= 6


def test_state_trim_status_on_fragments_with_a_boundary():
    """Cutting a cycle-with-pendant at its bridge, or a theta at one edge,
    leaves a fragment whose cycle edges are still not cut edges; its
    boundary is zeroed with the symbols in the cross-section."""
    edges = 0
    for seed in range(16):
        topology = ("cycle_pendant", "theta")[seed % 2]
        base = random_realization(seed, topology=topology, pool=POOL,
                                  n_constraints=4, symbol_prob=0.7, max_gens=2)
        r = with_isos(base, random.Random(f"frag/{seed}"), 0.7)
        if not r.validate().is_valid:
            continue
        cut = sorted(cut_edges(r)) or ["s0"]
        for frag in r.split(cut[:1]).fragments:
            if frag.boundary and frag.internal_states():
                edges += len(list(checked_edges(frag)))
    assert edges >= 20


def count_wide(monkeypatch, width: int, run) -> int:
    """Howell forms at least `width` columns wide made while run() runs.
    Each elimination counts once: a `zmod.kernel` is counted through the
    Howell form it makes."""
    wide = []
    howell = zmod.howell_form

    def counted_howell(rows, mod, ncols, cut=0):
        wide.append(ncols >= width)
        return howell(rows, mod, ncols, cut)

    monkeypatch.setattr(zmod, "howell_form", counted_howell)
    run()
    monkeypatch.undo()
    return sum(wide)


def wide_eliminations(monkeypatch, tmp_path, r: Realization, *argv: str) -> int:
    """Howell forms at least as wide as the universe during one CLI command
    on the realization: `argv` is the subcommand and its options, `analyze
    --json` by default."""
    path = tmp_path / f"r{len(r.constraints)}.json"
    dump_realization(r, str(path))
    command, *options = argv or ("analyze", "--json")

    def run():
        with redirect_stdout(io.StringIO()):
            assert main([command, str(path), *options]) == 0

    return count_wide(monkeypatch, r.universe_space().width, run)


def test_analyze_eliminates_the_universe_a_fixed_number_of_times(monkeypatch, tmp_path):
    """The per-edge reports cost no elimination of the whole universe: the
    count is the same on 8 and 32 sections (every edge is reported), and
    at most 4: U, its syndrome kernel and the two cut-pair forms."""
    small, large = bench_like_ring(8), bench_like_ring(32)
    assert not cut_edges(small) and not cut_edges(large)
    assert any(sv.iso is not None for sv in large.states.values())
    counts = [wide_eliminations(monkeypatch, tmp_path, r) for r in (small, large)]
    assert counts[0] == counts[1] > 0
    assert counts[0] <= 4


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
