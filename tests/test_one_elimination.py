"""Each subgroup operation makes one elimination, and a column-prefix
projection none.  Checked here against the two-step routes they replaced,
kept as oracles: the full Howell form filtered to its trailing rows, the
kernel of [A^T | I] recombined as sum z_i rows_i and eliminated again, and
projections and cross-sections eliminated from scratch.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from normgraph import zmod
from normgraph.alphabets import ProductSpace, cyclic_group, vector_space
from normgraph.analysis import obs_ctrl
from normgraph.corpus import GF2, trellis_realization
from normgraph.errors import BadPartition
from normgraph.subgroups import CodeSubgroup, cylinder
from tests.oracles import POOL, accumulator_ring, bench_like_ring, random_subgroup
from tests.test_minimize import fixed_profile_rows

Z2, Z4 = cyclic_group(2), cyclic_group(4)


def trailing(rows, mod: int, ncols: int, cut: int):
    """The full Howell form's rows that lead at or after cut, cut short."""
    return [r[cut:] for r in zmod.howell_form(rows, mod, ncols) if not any(r[:cut])]


def two_step(ambient, gens, relations, width: int, mod: int) -> CodeSubgroup:
    """The kernel z of the relations from [A^T | I], recombined as
    sum z_i gens_i and eliminated again."""
    k = len(relations)
    aug = [list(rel) + [int(i == j) for j in range(k)] for i, rel in enumerate(relations)]
    out = []
    for z in trailing(aug, mod, width + k, width):
        vec = [0] * ambient.width
        for c, g in zip(z, gens):
            vec = [x + c * y for x, y in zip(vec, g)]
        out.append(ambient.reduce(vec))
    return CodeSubgroup(ambient, out)


def old_intersect(a: CodeSubgroup, b: CodeSubgroup) -> CodeSubgroup:
    M = a.ambient.lcm_modulus
    relations = [list(r) for r in a._lifted] + [[-v % M for v in r] for r in b._lifted]
    return two_step(a.ambient, a.rows, relations, a.ambient.width, M)


def old_kernel(c: CodeSubgroup, images, target: ProductSpace) -> CodeSubgroup:
    L = math.lcm(c.ambient.lcm_modulus, target.lcm_modulus)
    relations = [[v * (L // d) for v, d in zip(y, target.moduli)] for y in images]
    return two_step(c.ambient, c.rows, relations, target.width, L)


def old_orthogonal(c: CodeSubgroup) -> CodeSubgroup:
    n, k, lifted = c.ambient.width, len(c._lifted), c._lifted
    aug = [[row[i] for row in lifted] + [int(i == j) for j in range(n)] for i in range(n)]
    ker = trailing(aug, c.ambient.lcm_modulus, k + n, k) if n else []
    return CodeSubgroup(c.ambient, [c.ambient.reduce(z) for z in ker])


def old_cross_section(c: CodeSubgroup, labels) -> CodeSubgroup:
    part = c.ambient.columns(labels)
    rest = [i for i in range(c.ambient.width) if i not in part]
    M, sub = c.ambient.lcm_modulus, c.ambient.subspace(labels)
    rows = trailing([[r[i] for i in rest + part] for r in c._lifted], M,
                    c.ambient.width, len(rest))
    return CodeSubgroup(sub, [[v // (M // m) for v, m in zip(r, sub.moduli)] for r in rows])


def old_project(c: CodeSubgroup, labels) -> CodeSubgroup:
    cols = c.ambient.columns(labels)
    return CodeSubgroup(c.ambient.subspace(labels), [[r[i] for i in cols] for r in c.rows])


def same(got: CodeSubgroup, want: CodeSubgroup) -> None:
    assert got == want
    assert got._lifted == want._lifted and got.order == want.order


def random_sub(rng: random.Random, space: ProductSpace, max_gens: int = 3) -> CodeSubgroup:
    return CodeSubgroup(space, [[rng.randrange(m) for m in space.moduli]
                                for _ in range(rng.randrange(max_gens + 1))])


def ambients(rng: random.Random, count: int):
    for _ in range(count):
        yield ProductSpace([(i, rng.choice(POOL)) for i in range(rng.randrange(1, 5))])


def test_cut_form_is_the_trailing_slice_of_the_full_form():
    rng = random.Random("cut")
    for mod in (2, 4, 6, 9, 12):
        for _ in range(60):
            n = rng.randrange(1, 7)
            rows = [[rng.randrange(mod) for _ in range(n)] for _ in range(rng.randrange(5))]
            cut = rng.randrange(n + 1)
            assert zmod.howell_form(rows, mod, n, cut) == trailing(rows, mod, n, cut)


def test_kernel_images_default_to_unit_rows():
    rng = random.Random("images")
    for mod in (4, 6, 12):
        for _ in range(20):
            nrows, ncols = rng.randrange(4), rng.randrange(1, 5)
            cols = [[rng.randrange(mod) for _ in range(nrows)] for _ in range(ncols)]
            units = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
            got = zmod.kernel(cols.__getitem__, nrows, ncols, mod)
            assert got == zmod.kernel(cols.__getitem__, nrows, ncols, mod, units)
            for z in got:
                assert all(sum(c * x[r] for c, x in zip(z, cols)) % mod == 0
                           for r in range(nrows))


def test_set_operations_match_the_two_step_routes():
    rng = random.Random("set-ops")
    for amb in ambients(rng, 150):
        a, b = random_sub(rng, amb), random_sub(rng, amb)
        same(a.intersect(b), old_intersect(a, b))
        perp = a.orthogonal()
        same(perp, old_orthogonal(a))
        same(perp.orthogonal(), a)
        labels = list(amb.labels)
        for size in range(len(labels) + 1):
            for part in itertools.combinations(labels, size):
                same(a.cross_section(part), old_cross_section(a, part))
                same(a.project(part), old_project(a, part))


def test_kernel_matches_the_two_step_route():
    """Over every pool target, including Z_2 -> Z_4 where the target
    modulus does not divide the source's."""
    rng = random.Random("kernel")
    targets = [ProductSpace([(0, alpha)]) for alpha in POOL]
    targets.append(ProductSpace([(0, Z4), (1, vector_space(3, 1))]))
    for amb in itertools.chain(ambients(rng, 80),
                               [ProductSpace([(i, Z2) for i in range(3)])] * 20):
        c = random_sub(rng, amb)
        for target in targets:
            images = [[rng.randrange(m) for m in target.moduli] for _ in c.rows]
            same(c.kernel(images, target), old_kernel(c, images, target))
    c = CodeSubgroup(ProductSpace([(0, Z2)]), [(1,)])
    z4 = ProductSpace([(0, Z4)])
    same(c.kernel([(2,)], z4), old_kernel(c, [(2,)], z4))
    assert c.kernel([(2,)], z4).is_trivial


def test_prefix_projection_below_the_lifted_modulus(monkeypatch):
    """GF(2) symbols before Z_4 states: the prefix has lcm 2, the ambient 4.
    The same factors reversed give suffix cross-sections of lcm 2.  Both
    reads, and `lift_prefix` on the prefix, make no elimination; a lift
    reads the leading factors only."""
    rng = random.Random("prefix")
    amb = ProductSpace([("a0", GF2), ("a1", GF2), ("s0", Z4), ("s1", cyclic_group(2, 4))])
    rev = ProductSpace(amb.factors[::-1])
    for _ in range(60):
        c = random_sub(rng, amb, 4)
        d = c.permuted(rev.labels)
        for k in range(len(amb.labels) + 1):
            prefix, suffix = amb.labels[:k], rev.labels[len(rev.labels) - k:]
            reads = []
            assert count_howell(monkeypatch, lambda: reads.extend(
                [c.project(prefix), d.cross_section(suffix)])) == 0
            got, cross = reads
            same(got, old_project(c, prefix))
            same(cross, old_cross_section(d, suffix))
            if k in (1, 2):
                assert got.ambient.lcm_modulus == cross.ambient.lcm_modulus == 2 < amb.lcm_modulus
            p = len(amb.columns(prefix))
            values = list((*c.rows, amb.zero)[0][:p])
            lifts = []
            assert count_howell(monkeypatch, lambda: lifts.append(
                c.lift_prefix(prefix, values))) == 0
            assert c.contains(lifts[0]) and list(lifts[0][:p]) == values
            if 0 < p < amb.width:
                with pytest.raises(BadPartition):
                    d.lift_prefix(suffix, values)


def count_howell(monkeypatch, fn) -> int:
    calls = []
    howell = zmod.howell_form

    def counted(rows, mod, ncols, cut=0):
        calls.append(ncols)
        return howell(rows, mod, ncols, cut)

    monkeypatch.setattr(zmod, "howell_form", counted)
    fn()
    monkeypatch.undo()
    return len(calls)


def test_behavior_bundle_eliminates_once(monkeypatch):
    """U; its syndromes are read off its rows, and B and C^F are joined
    elsewhere (`Realization.behavior`)."""
    trellis = trellis_realization(fixed_profile_rows(random.Random("bundle"), 14, 7),
                                  [GF2] * 14)
    for r in (trellis, bench_like_ring(16)):
        assert count_howell(monkeypatch, r.behavior_bundle) == 1


def test_obs_ctrl_eliminates_only_the_controllable_subspace(monkeypatch):
    """With the bundle and B cached, the unobservable subgroups are
    cross-sections of C^F and B on column suffixes, and the external
    controllability a projection on an empty boundary: only the image
    Sigma of the syndrome map is eliminated."""
    trellis = trellis_realization(fixed_profile_rows(random.Random("bundle"), 14, 7),
                                  [GF2] * 14)
    for r in (trellis, bench_like_ring(16), accumulator_ring(8)):
        assert not r.boundary
        r.behavior_bundle()
        r.behavior()
        assert count_howell(monkeypatch, lambda: obs_ctrl(r)) <= 1


def test_cylinder_is_read_without_elimination(monkeypatch):
    """The parts' rows and the unit rows elsewhere, block-diagonal in column
    order, are the Howell form: `cylinder` equals the subgroup those rows
    generate, with no elimination, on Z_4 and GF(3) parts (and GF(3)^2,
    Z_2 x Z_4 parts) in an lcm-12 ambient."""
    GF3 = vector_space(3, 1)
    ambient = ProductSpace([("p", Z4), ("q", GF3), ("u", Z2), ("v", vector_space(3, 2)),
                            ("w", cyclic_group(2, 4)), ("z", cyclic_group(12))])
    rng = random.Random("cylinder")
    units = ambient.unit_rows()
    for trial in range(40):
        labels = [lab for lab in ambient.labels if rng.random() < 0.6] or ["p", "q"]
        parts = {lab: random_subgroup(rng, ProductSpace([(lab, ambient.alphabet(lab))]), 2)
                 for lab in labels}
        rows = []
        for lab in ambient.labels:
            a, b = ambient.span(lab)
            if lab not in parts:
                rows += units[a:b]
                continue
            rows += [(0,) * a + r + (0,) * (ambient.width - b) for r in parts[lab].rows]
        got = []
        assert count_howell(monkeypatch, lambda: got.append(cylinder(ambient, parts))) == 0
        assert got[0] == CodeSubgroup(ambient, rows)
        assert got[0].order == math.prod(
            parts[lab].order if lab in parts else ambient.alphabet(lab).order
            for lab in ambient.labels)
