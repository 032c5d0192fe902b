"""Hermite read-off and Smith transforms against the elimination route.

`ref_hermite_form` is the integer Hermite elimination that quotients used
before the Hermite basis was read off the Howell form; here it is the
oracle for the read-off and for the quotient maps built on it.
`ref_smith_form` is the Smith form whose pivot search scans the whole
trailing block; `smith_form` stops at the first unit, which must leave
(S, V, Vinv) unchanged.
"""

from __future__ import annotations

import random
from operator import mul

from normgraph import subgroups
from normgraph.alphabets import Alphabet, ProductSpace, cyclic_group, vector_space
from normgraph.intmat import hermite_form, smith_form, solve_upper_triangular
from normgraph.minimize import minimize_cycle_free
from normgraph.serialize import realization_from_json
from normgraph.subgroups import CodeSubgroup, QuotientMap, full_subgroup, zero_subgroup
from normgraph.zmod import xgcd
from tests.test_bench_guard import bench_module

POOL = [*(cyclic_group(m) for m in (2, 3, 4, 5, 6, 8, 9, 12)),
        cyclic_group(2, 4), vector_space(2, 2)]


def _lead(row) -> int:
    return next((i for i, v in enumerate(row) if v), len(row))


def ref_hermite_form(rows, ncols):
    """Row Hermite normal form of the lattice spanned by rows, by integer
    elimination: for a full-rank lattice in Z^ncols, an ncols x ncols
    upper-triangular basis with positive diagonal and entries above each
    pivot reduced into [0, pivot)."""
    work = [list(r) for r in rows if any(r)]
    result = []
    for col in range(ncols):
        cur = [r for r in work if _lead(r) == col]
        work = [r for r in work if _lead(r) > col]
        if not cur:
            continue
        piv = cur[0]
        for other in cur[1:]:
            a, b = piv[col], other[col]
            g, s, t = xgcd(a, b)
            new_piv = [s * x + t * y for x, y in zip(piv, other)]
            resid = [(-(b // g)) * x + (a // g) * y for x, y in zip(piv, other)]
            piv = new_piv
            if any(resid):
                work.append(resid)
        if piv[col] < 0:
            piv = [-x for x in piv]
        result.append(piv)
    for i, row in enumerate(result):
        j = _lead(row)
        d = row[j]
        for k in range(i):
            q = result[k][j] // d
            if q:
                result[k] = [x - q * y for x, y in zip(result[k], row)]
    return result


def modulus_rows(amb):
    n = amb.width
    return [[m if j == i else 0 for j in range(n)] for i, m in enumerate(amb.moduli)]


def ref_lattice_basis(c):
    """Hermite basis of {x in Z^n : x mod m in c} by elimination."""
    return ref_hermite_form([list(r) for r in c.rows] + modulus_rows(c.ambient),
                            c.ambient.width)


def mat_mul(A, B):
    return [[sum(map(mul, row, col)) for col in zip(*B)] for row in A]


def random_ambient(rng, max_width=8):
    width, factors = rng.randrange(max_width + 1), []
    while width:
        alpha = rng.choice([a for a in POOL if len(a.moduli) <= width])
        factors.append((len(factors), alpha))
        width -= len(alpha.moduli)
    return ProductSpace(factors)


def random_subgroup(rng, amb):
    pick = rng.random()
    if pick < 0.1:
        return zero_subgroup(amb)
    if pick < 0.2:
        return full_subgroup(amb)
    rows = [[rng.randrange(m) for m in amb.moduli]
            for _ in range(rng.randrange(1, 4))]
    return CodeSubgroup(amb, rows)


def test_hermite_read_off_equals_the_elimination():
    rng = random.Random(2201)
    seen_widths = set()
    for _ in range(5000):
        amb = random_ambient(rng)
        c = random_subgroup(rng, amb)
        seen_widths.add(amb.width)
        got = hermite_form(c._lifted, amb.moduli, amb.scales)
        assert got == ref_lattice_basis(c)
    assert seen_widths == set(range(9))


def ref_quotient(c, d):
    """(alphabet, project, lift) of c/d by the elimination route."""
    amb, n = c.ambient, c.ambient.width
    basis_c, basis_d = ref_lattice_basis(c), ref_lattice_basis(d)
    s, v, vinv = smith_form([solve_upper_triangular(r, basis_c) for r in basis_d])
    kept = [(i, s[i][i]) for i in range(n) if s[i][i] > 1]
    lifts = mat_mul(vinv, basis_c)

    def project(x):
        wv = mat_mul([solve_upper_triangular(x, basis_c)], v)[0]
        return tuple(wv[i] % f for i, f in kept)

    def lift(q):
        x = [0] * n
        for (i, _), a in zip(kept, q):
            x = [u + a * w for u, w in zip(x, lifts[i])]
        return amb.reduce(x)

    return Alphabet("group", tuple(f for _, f in kept)), project, lift


def test_quotient_maps_equal_the_elimination_route():
    rng = random.Random(2202)
    pairs = 0
    while pairs < 1500:
        amb = random_ambient(rng, max_width=5)
        if amb.order > 4096:
            continue
        c = random_subgroup(rng, amb)
        if c.order > 512:
            continue
        elems = list(c.elements())
        pick = rng.random()
        gens = [] if pick < 0.15 else c.rows if pick < 0.3 else rng.sample(
            elems, k=min(len(elems), rng.randrange(1, 3)))
        d = CodeSubgroup(amb, gens)
        q = QuotientMap(c, d)
        alphabet, project, lift = ref_quotient(c, d)
        assert q.alphabet == alphabet and q.order == c.order // d.order
        assert all(q.project(x) == project(x) for x in elems)
        assert all(q.lift(y) == lift(y) for y in alphabet.elements())
        pairs += 1


def random_full_rank(rng, n):
    mod = rng.choice([2, 3, 4, 6, 12, 36])
    rows = [[rng.randrange(-mod, mod + 1) for _ in range(n)]
            for _ in range(rng.randrange(n + 3))]
    return ref_hermite_form(rows + [[mod * (i == j) for j in range(n)]
                                    for i in range(n)], n)


def test_smith_transform_is_unimodular_and_spans_the_lattice():
    rng = random.Random(2203)
    for _ in range(300):
        n = rng.randrange(1, 7)
        A = random_full_rank(rng, n)
        S, V, Vinv = smith_form(A)
        assert mat_mul(V, Vinv) == [[int(i == j) for j in range(n)] for i in range(n)]
        assert all(S[i][j] == 0 for i in range(n) for j in range(n) if i != j)
        diag = [S[i][i] for i in range(n)]
        assert all(d > 0 for d in diag)
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
        assert ref_hermite_form(mat_mul(A, V), n) == ref_hermite_form(S, n)


def ref_smith_form(A):
    """`smith_form` with the pivot search over the whole trailing block: the
    first entry of strictly smallest magnitude, row by row."""
    m = len(A)
    n = len(A[0]) if A else 0
    S = [list(r) for r in A]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    Vinv = [list(r) for r in V]

    def col_swap(i, j):
        for M in (S, V):
            for r in M:
                r[i], r[j] = r[j], r[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def col_add(i, j, q):
        for M in (S, V):
            for r in M:
                r[i] += q * r[j]
        Vinv[j] = [x - q * y for x, y in zip(Vinv[j], Vinv[i])]

    t = 0
    while t < min(m, n):
        best = None
        for r in range(t, m):
            for c in range(t, n):
                v = abs(S[r][c])
                if v and (best is None or v < best[0]):
                    best = (v, r, c)
        if best is None:
            break
        _, r, c = best
        S[t], S[r] = S[r], S[t]
        if c != t:
            col_swap(t, c)
        if S[t][t] < 0:
            S[t] = [-x for x in S[t]]
        dirty = False
        for r in range(t + 1, m):
            if S[r][t]:
                q = S[r][t] // S[t][t]
                S[r] = [x - q * y for x, y in zip(S[r], S[t])]
                dirty = dirty or bool(S[r][t])
        for c in range(t + 1, n):
            if S[t][c]:
                col_add(c, t, -(S[t][c] // S[t][t]))
                dirty = dirty or bool(S[t][c])
        if dirty:
            continue
        d = S[t][t]
        culprit = next((r for r in range(t + 1, m)
                        if any(S[r][c] % d for c in range(t + 1, n))), None)
        if culprit is not None:
            S[t] = [x + y for x, y in zip(S[t], S[culprit])]
            continue
        t += 1
    return S, V, Vinv


def test_the_pivot_search_stops_at_a_unit_with_the_same_transforms(monkeypatch):
    """On random full-rank lattices, and on the relation matrices that
    `quotient_by` builds while minimizing the bench `trellis` at seeds 0
    to 3, `smith_form` equals the full-scan reference."""
    rng = random.Random(2204)
    matrices = [random_full_rank(rng, rng.randrange(1, 9)) for _ in range(400)]
    relations = []

    def recorded(A):
        relations.append([list(r) for r in A])
        return smith_form(A)

    monkeypatch.setattr(subgroups, "smith_form", recorded)
    workloads = bench_module("workloads")
    for seed in range(4):
        minimize_cycle_free(realization_from_json(workloads.trellis_workload(seed).realization))
    assert len(relations) >= 20
    # a unit off the first scanned entry, so the search stops short of a full scan
    assert sum(any(abs(v) == 1 for r in A for v in r) and abs(A[0][0]) != 1
               for A in relations + matrices) >= 20
    for A in relations + matrices:
        assert smith_form(A) == ref_smith_form(A), A
