"""Codes by a join of the constraints, and the check-space route in closed form.

On cycle-free input `Realization.external_behavior` joins the constraints
leaves first and never builds the universe; `verify_duality` cuts the check
space U-perp + V-perp from closed-form rows in one Howell form.  Both are
checked here against the universe routes they replaced, kept as oracles:
the bundle's external behavior, and the cross-section of
U.orthogonal() + V.orthogonal() with V built directly.  The join is defined
on any graph, so it is compared on cyclic input too.  Mutation checks
show that a wrong dual constraint or a wrong dual edge map makes
`verify_duality` fail, and counts show which routes eliminate a matrix as
wide as the universe.
"""

from __future__ import annotations

import random
from pathlib import Path

from normgraph import duality
from normgraph.alphabets import sort_key
from normgraph.analysis import verify_controllability
from normgraph.corpus import GF2, trellis_realization
from normgraph.duality import dualize, verify_duality
from normgraph.graphcore import cyclomatic_number
from normgraph.realization import _is_identity
from normgraph.serialize import load_realization
from normgraph.subgroups import CodeSubgroup
from tests.oracles import accumulator_ring, bench_like_ring, instances
from tests.test_minimize import fixed_profile_rows
from tests.test_syndrome import count_wide, validity, wide_eliminations

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def trellis(n: int):
    """The benchmark's non-minimal trellis shape, k = n/2."""
    rows = fixed_profile_rows(random.Random(f"join/{n}"), n, n // 2)
    return trellis_realization(rows, [GF2] * n)


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


def test_join_equals_the_bundle_external_behavior():
    rs = (list(instances()) + corpus_realizations()
          + [bench_like_ring(8), trellis(16), trellis(24)])
    done = cyclic = boundary = 0
    for r in with_fragments(rs):
        joined = r._joined_external()
        assert joined == r.behavior_bundle().external
        done += 1
        cyclic += cyclomatic_number(r) > 0
        boundary += bool(r.boundary)
    assert done >= 100 and cyclic >= 30 and boundary >= 40


def test_external_behavior_routes_by_the_cyclomatic_number():
    """Cycle-free input is joined and builds no bundle; cyclic input, and
    input whose bundle is cached, read the bundle."""
    path, ring = trellis(16), bench_like_ring(8)
    assert path.code() == trellis(16).behavior_bundle().external
    assert path._bundle is None and path._external is not None
    ring.code()
    assert ring._bundle is not None
    cached = trellis(16)
    bundle = cached.behavior_bundle()
    assert cached.external_behavior() is bundle.external


def test_check_rows_are_the_orthogonals_of_u_and_v():
    for r in with_fragments(list(instances())[:20] + [bench_like_ring(8)]):
        space = r.universe_space()
        u_perp, v_perp = r.check_rows()
        assert CodeSubgroup(space, u_perp) == r.behavior_bundle().universe.orthogonal()
        assert CodeSubgroup(space, v_perp) == validity(r).orthogonal()
        assert verify_controllability(r)


def test_check_space_route_equals_the_universe_formula():
    rs = (list(instances()) + corpus_realizations()
          + [bench_like_ring(8), trellis(16)])
    done = 0
    for r in with_fragments(rs):
        rep = verify_duality(r)
        assert rep.check_space_route == old_check_space_route(r)
        assert rep.passed
        done += 1
    assert done >= 100


def mutation_targets():
    """The binary trellis, two rings, and the Z_12 ring cut open at one
    edge: a chain whose iso edges go through the join."""
    ring = accumulator_ring(8)
    chain, = ring.split(["s0"]).fragments
    assert cyclomatic_number(chain) == 0 and cyclomatic_number(ring) == 1
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
    """On the ring, the codes come from the two bundles and the check space
    from one more elimination as wide as the universe, at any length."""
    small, large = bench_like_ring(8), bench_like_ring(32)
    counts = [wide_eliminations(monkeypatch, tmp_path, r, "check-duality")
              for r in (small, large)]
    assert counts[0] == counts[1] > 0
    r = bench_like_ring(8)
    codes = count_wide(monkeypatch, r.universe_space().width,
                       lambda: (r.external_behavior(), dualize(r).external_behavior()))
    assert counts[0] - codes == 1


def test_cycle_free_codes_never_eliminate_the_universe(monkeypatch, tmp_path):
    r = trellis(16)
    assert wide_eliminations(monkeypatch, tmp_path, r, "behavior", "--external-only") == 0
    assert wide_eliminations(monkeypatch, tmp_path, r, "check-duality") == 1
