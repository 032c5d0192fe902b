"""Behaviors and the check space by one join of the constraints.

`Realization.external_behavior` and `Realization.behavior` join the
constraints that `peel` strips one at a time, then the 2-core in one
step, and never build the universe; `duality.check_space` runs the same
join over the orthogonals C_c-perp, closing each edge where its check
value s_j + iso*(h_j) vanishes, for `verify_duality`'s check-space route
and `verify_controllability`'s independence read.  These are checked here
against the universe routes they replaced, kept as oracles with V built
directly (`validity`): U cap V and its projections (`universe_behaviors`),
the cross-section of U.orthogonal() + V.orthogonal(), and the order of
U.orthogonal() cap V.orthogonal().  Mutation checks show that a wrong dual
constraint or a wrong dual edge map makes `verify_duality` fail, and
counts show which routes eliminate a matrix as wide as the universe.
"""

from __future__ import annotations

import random
from pathlib import Path

from normgraph import duality, zmod
from normgraph.alphabets import ProductSpace, sort_key
from normgraph.analysis import verify_controllability
from normgraph.corpus import GF2, tanner_realization, trellis_realization
from normgraph.duality import check_space, dualize, verify_duality
from normgraph.graphcore import cyclomatic_number
from normgraph.realization import Constraint, StateVar, _is_identity
from normgraph.serialize import load_realization
from normgraph.subgroups import CodeSubgroup, full_subgroup, product_subgroup
from tests.oracles import (
    accumulator_ring,
    bench_like_ring,
    instances,
    universe_behaviors,
    validity,
)
from tests.test_minimize import fixed_profile_rows
from tests.test_one_elimination import count_howell
from tests.test_syndrome import count_wide, wide_eliminations

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def trellis(n: int):
    """The benchmark's non-minimal trellis shape, k = n/2."""
    rows = fixed_profile_rows(random.Random(f"join/{n}"), n, n // 2)
    return trellis_realization(rows, [GF2] * n)


def tree_plus_edge(n: int):
    """The trellis with one free GF(2) edge `e` between c0 and c1: each of
    the two gets a free slot for it, so the code is unchanged, and the
    2-core is c0 and c1 with the rest of the trellis hanging off them."""
    r = trellis(n)
    constraints = dict(r.constraints)
    for cl in ("c0", "c1"):
        con = constraints[cl]
        free = full_subgroup(ProductSpace([(len(con.vars), GF2)]))
        constraints[cl] = Constraint((*con.vars, "e"), product_subgroup(con.code, free))
    return r.replaced(states=r.states | {"e": StateVar(GF2)}, constraints=constraints)


def hamming_tanner():
    """The Tanner graph of the [7,4] Hamming code: cyclic, with degree-1
    symbols on the checks and equality nodes on the others."""
    return tanner_realization([[1, 1, 0, 1, 1, 0, 0], [1, 0, 1, 1, 0, 1, 0],
                               [0, 1, 1, 1, 0, 0, 1]], GF2)


def corpus_realizations():
    rs = [load_realization(str(path)) for path in sorted(CORPUS.glob("*.json"))
          if not path.name.endswith("_priors.json")]
    return [r for r in rs if r.validate().is_valid]


def with_fragments(rs):
    """Each realization, and the fragments left by cutting its first
    internal edge, so that boundary variables are covered."""
    for r in rs:
        yield r
        edges = sorted(r.internal_states(), key=sort_key)
        if edges:
            yield from r.split(edges[:1]).fragments


def old_check_space_route(r) -> CodeSubgroup:
    """The check-space cross-section from the universe: U-perp + V-perp,
    each an orthogonal taken in the universe space."""
    bundle = r.behavior_bundle()
    ext = ([("a", k) for k in sorted(r.symbols, key=sort_key)]
           + [("x", j) for j in r.boundary])
    check_space = bundle.universe.orthogonal().sum(validity(r).orthogonal())
    return check_space.cross_section(ext).renamed({lab: lab[1] for lab in ext})


def join_pool():
    """Every input, with or without cycles, and the fragments cut from it."""
    return list(with_fragments(
        list(instances()) + corpus_realizations()
        + [bench_like_ring(8), bench_like_ring(16), trellis(16), trellis(24),
           tree_plus_edge(16), hamming_tanner(), *accumulator_chain()]))


def test_join_equals_the_bundle_external_behavior():
    """C^F joined equals the kernel of sigma over the bundle's universe,
    projected.  `both` counts the inputs where the join runs both phases:
    stripped leaves and a 2-core."""
    done = cyclic = boundary = both = 0
    for r in join_pool():
        assert r.external_behavior() == universe_behaviors(r).external
        done += 1
        cyclic += cyclomatic_number(r) > 0
        boundary += bool(r.boundary)
        both += 0 < len(r.peel()) < len(r.constraints)
    assert done >= 100 and cyclic >= 30 and boundary >= 40 and both >= 12


def test_behavior_equals_the_universe_kernel():
    """B joined with each closed edge's tail kept equals the oracle's, row
    for row over the same factors, and the C^F it leaves in the cache is
    the oracle's too."""
    done = cyclic = boundary = 0
    for r in join_pool():
        oracle = universe_behaviors(r)
        assert r.behavior() == oracle.behavior
        assert r._external == oracle.external
        done += 1
        cyclic += cyclomatic_number(r) > 0
        boundary += bool(r.boundary)
    assert done >= 130 and cyclic >= 50 and boundary >= 70


def test_external_behavior_is_joined_even_with_a_bundle_cached(monkeypatch):
    """The bundle holds U and its syndromes only, so C^F is joined whether
    or not a bundle is cached, and `behavior()` leaves C^F, B's column
    prefix, in the cache with no elimination beyond its own join."""
    for make in (lambda: trellis(16), lambda: bench_like_ring(8)):
        r, cached, joined, fresh = make(), make(), make(), make()
        want = universe_behaviors(make()).external
        assert r.external_behavior() == want
        assert r._bundle is None and r._behavior is None
        cached.behavior_bundle()
        assert cached.external_behavior() == want and cached._behavior is None
        calls = count_howell(monkeypatch, lambda: joined._join(
            joined._codes(), joined.syndromes, tails=True))
        assert count_howell(monkeypatch, fresh.behavior) == calls
        assert fresh._external == want


def test_independence_read_equals_the_universe_intersection():
    """|U-perp cap V-perp|, read as the cross-section on the tails of the
    check space joined with them kept, equals the order of the intersection
    of the two orthogonals taken in the universe space; it is nontrivial on
    a good share of the inputs, so both outcomes are compared."""
    done = nontrivial = 0
    for r in join_pool():
        tails = [("s", j) for j in sorted(r.internal_states(), key=sort_key)]
        got = check_space(r, tails=True).cross_section(tails).order
        want = r.behavior_bundle().universe.orthogonal().intersect(validity(r).orthogonal())
        assert got == want.order
        assert verify_controllability(r)
        done += 1
        nontrivial += got > 1
    assert done >= 100 and nontrivial >= 50


def test_check_space_route_equals_the_universe_formula():
    """The joined check-space route equals the cross-section of
    U.orthogonal() + V.orthogonal(), and C-perp, on the whole pool."""
    done = cyclic = boundary = both = 0
    for r in join_pool():
        rep = verify_duality(r)
        assert rep.check_space_route == old_check_space_route(r)
        assert rep.passed
        done += 1
        cyclic += cyclomatic_number(r) > 0
        boundary += bool(r.boundary)
        both += 0 < len(r.peel()) < len(r.constraints)
    assert done >= 100 and cyclic >= 30 and boundary >= 40 and both >= 12


def accumulator_chain():
    """The Z_12 ring, whose code sees the sign of its iso edges, and the
    ring cut open at one edge: a chain whose iso edges go through the join."""
    ring = accumulator_ring(8)
    chain, = ring.split(["s0"]).fragments
    assert cyclomatic_number(chain) == 0 and cyclomatic_number(ring) == 1
    return ring, chain


def mutation_targets():
    """The binary trellis, two rings, and the Z_12 ring cut open at one edge."""
    ring, chain = accumulator_chain()
    return {"trellis": trellis(16), "bench ring": bench_like_ring(8),
            "ring": ring, "chain": chain}


def test_a_primal_constraint_in_the_dual_fails_the_check(monkeypatch):
    real = duality.dualize
    for name, r in mutation_targets().items():
        assert verify_duality(r).passed, name
        cl = list(r.constraints)[len(r.constraints) // 2]
        code = r.constraints[cl].code
        assert code != code.orthogonal()

        def primal_at(x, cl=cl):
            dual = real(x)
            return dual.replaced(constraints=dual.constraints | {cl: x.constraints[cl]})

        monkeypatch.setattr(duality, "dualize", primal_at)
        rep = verify_duality(r)
        monkeypatch.undo()
        assert not rep.passed, name
        assert rep.check_space_route == rep.orthogonal_code, name


def test_dualize_and_the_check_space_share_each_orthogonal(monkeypatch):
    """Each constraint code keeps its C_c-perp: `verify_duality` makes one
    orthogonal per distinct constraint code plus C's, where `dualize` and
    `check_space` each made their own, and the dual's codes are those very
    objects.  The mutation tests here show that `check_space` still reads
    nothing of `dualize`'s output."""
    kernel = zmod.kernel
    for name in ("trellis", "bench ring", "ring", "chain"):
        r, made = mutation_targets()[name], []     # the chain shares the ring's codes
        monkeypatch.setattr(zmod, "kernel", lambda *a: made.append(a) or kernel(*a))
        assert verify_duality(r).passed, name
        monkeypatch.undo()
        codes = {id(con.code): con.code for con in r.constraints.values()}
        assert len(made) == len(codes) + 1, name
        dual = dualize(r)
        assert all(dual.constraints[cl].code is con.code.orthogonal()
                   for cl, con in r.constraints.items()), name


def test_a_dual_edge_map_without_negation_fails_the_check(monkeypatch):
    """Dropping the negation on the Z_12 iso edges realizes the dual of the
    code with those isos negated.  Negation is the identity over GF(2), so
    the binary trellis cannot show this; the ring and the chain cut from
    it do, through the bundle and through the join."""
    real = duality._dual_edge_map

    def unnegated(sv):
        if sv.iso is None:
            return real(sv)
        psi = sv.iso.adjoint().inverse()
        return None if _is_identity(psi) else psi

    targets = mutation_targets()
    for name in ("ring", "chain"):
        r = targets[name]
        assert sum(sv.iso is not None for sv in r.states.values()) >= 3
        monkeypatch.setattr(duality, "_dual_edge_map", unnegated)
        rep = verify_duality(r)
        monkeypatch.undo()
        assert not rep.passed, name
        assert rep.check_space_route == rep.orthogonal_code, name


def test_check_duality_eliminates_the_universe_a_fixed_number_of_times(
        monkeypatch, tmp_path):
    """On the ring, at any length, the code, the dual realization's code
    and the check space are joined with no elimination as wide as the
    universe."""
    for n in (8, 32):
        assert wide_eliminations(monkeypatch, tmp_path, bench_like_ring(n),
                                 "check-duality") == 0
    r = bench_like_ring(8)
    assert count_wide(monkeypatch, r.universe_space().width,
                      lambda: (r.external_behavior(), dualize(r).external_behavior())) == 0


def test_verify_controllability_eliminates_the_universe_only_in_a_core_step(monkeypatch):
    """With U and B cached, the independence read joins the check space
    with the tails kept: leaf by leaf on a tree, with no Howell form as wide
    as the universe, and on a ring, all 2-core, in at most one."""
    for r, most in ((trellis(16), 0), (bench_like_ring(8), 1), (bench_like_ring(32), 1)):
        r.behavior_bundle(), r.behavior()
        count = count_wide(monkeypatch, r.universe_space().width,
                           lambda r=r: verify_controllability(r))
        assert count <= most


def test_cyclic_codes_never_eliminate_the_universe(monkeypatch):
    for r in (tree_plus_edge(32), bench_like_ring(8), bench_like_ring(32),
              accumulator_ring(8)):
        assert cyclomatic_number(r) > 0
        assert count_wide(monkeypatch, r.universe_space().width, r.code) == 0


def test_cycle_free_codes_never_eliminate_the_universe(monkeypatch, tmp_path):
    r = trellis(16)
    assert wide_eliminations(monkeypatch, tmp_path, r, "behavior", "--external-only") == 0
    assert wide_eliminations(monkeypatch, tmp_path, r, "check-duality") == 0


def test_behavior_eliminates_the_universe_only_in_a_core_step(monkeypatch, tmp_path):
    """`behavior` joins B leaf by leaf on a tree, with no Howell form as
    wide as the universe, and on a ring, all 2-core, in one such form;
    `analyze --json` on the tree adds only U's (the bundle's one form)."""
    r = trellis(16)
    assert wide_eliminations(monkeypatch, tmp_path, r, "behavior") == 0
    assert wide_eliminations(monkeypatch, tmp_path, r) == 1
    for n in (8, 32):
        assert wide_eliminations(monkeypatch, tmp_path, bench_like_ring(n), "behavior") == 1
