"""Howell-form engine checks against brute-force span closure."""

from __future__ import annotations

import random
from math import gcd, prod

from normgraph import intmat, zmod


def close_span(rows, mod, ncols):
    """All Z_mod-combinations of rows, by repeated addition (oracle)."""
    seen = {(0,) * ncols}
    frontier = [(0,) * ncols]
    rows = [tuple(v % mod for v in r) for r in rows]
    while frontier:
        x = frontier.pop()
        for r in rows:
            y = tuple((a + b) % mod for a, b in zip(x, r))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def random_rows(rng, mod, ncols, k):
    return [[rng.randrange(mod) for _ in range(ncols)] for _ in range(k)]


def test_howell_span_preserved():
    rng = random.Random(7)
    for mod in (2, 3, 4, 5, 6, 8, 12):
        for _ in range(25):
            ncols = rng.randrange(1, 5)
            rows = random_rows(rng, mod, ncols, rng.randrange(0, 4))
            hf = zmod.howell_form(rows, mod, ncols)
            assert close_span(rows, mod, ncols) == close_span(hf, mod, ncols)


def test_howell_canonical_for_equal_spans():
    rng = random.Random(11)
    for mod in (2, 4, 6, 9, 12):
        for _ in range(20):
            ncols = rng.randrange(1, 5)
            rows = random_rows(rng, mod, ncols, rng.randrange(1, 4))
            span = sorted(close_span(rows, mod, ncols))
            # regenerate from a different generating set: all elements, shuffled
            alt = list(span)
            rng.shuffle(alt)
            hf1 = zmod.howell_form(rows, mod, ncols)
            hf2 = zmod.howell_form(alt, mod, ncols)
            assert hf1 == hf2


def test_howell_pivots_divide_modulus():
    rng = random.Random(3)
    for mod in (4, 6, 8, 12):
        for _ in range(20):
            ncols = rng.randrange(1, 5)
            hf = zmod.howell_form(random_rows(rng, mod, ncols, 3), mod, ncols)
            leads = [zmod._lead(r) for r in hf]
            assert leads == sorted(set(leads))
            for r in hf:
                assert mod % r[zmod._lead(r)] == 0


def test_membership_matches_closure():
    rng = random.Random(5)
    for mod in (2, 4, 6, 12):
        for _ in range(15):
            ncols = rng.randrange(1, 4)
            rows = random_rows(rng, mod, ncols, 2)
            hf = zmod.howell_form(rows, mod, ncols)
            span = close_span(rows, mod, ncols)
            for _ in range(20):
                v = tuple(rng.randrange(mod) for _ in range(ncols))
                assert zmod.member(v, hf, mod) == (v in span)


def test_span_order_and_elements():
    rng = random.Random(13)
    for mod in (2, 3, 4, 6, 8):
        for _ in range(15):
            ncols = rng.randrange(1, 4)
            rows = random_rows(rng, mod, ncols, 2)
            hf = zmod.howell_form(rows, mod, ncols)
            span = close_span(rows, mod, ncols)
            assert zmod.span_order(hf, mod) == len(span)
            listed = list(zmod.span_elements(hf, mod, ncols))
            assert len(listed) == len(span)
            assert set(listed) == span


def test_kernel_is_exact():
    rng = random.Random(17)
    for mod in (2, 4, 6, 12):
        for _ in range(15):
            nr = rng.randrange(1, 4)
            nc = rng.randrange(1, 4)
            mat = [[rng.randrange(mod) for _ in range(nc)] for _ in range(nr)]

            gens = zmod.kernel(lambda i: [mat[r][i] for r in range(nr)], nr, nc, mod)
            kspan = close_span(gens, mod, nc)
            brute = set()
            idx = [0] * nc

            def apply(z):
                return tuple(sum(m * zi for m, zi in zip(row, z)) % mod for row in mat)

            import itertools
            for z in itertools.product(range(mod), repeat=nc):
                if not any(apply(z)):
                    brute.add(z)
            assert kspan == brute


def test_unit_scale():
    for mod in (2, 3, 4, 6, 8, 12, 30):
        for a in range(1, mod):
            g, u = zmod.unit_scale(a, mod)
            assert g == gcd(a, mod)
            assert gcd(u, mod) == 1
            assert (u * a) % mod == g


def structured_rows(rng, mod, nrows, ncols):
    """Rows spanning a proper subgroup: Z_mod-combinations of fewer base rows,
    some scaled by zero divisors, so that merge chains, pivots that are not
    units and annihilator rows all occur."""
    divisors = [d for d in range(1, mod) if mod % d == 0]
    base = []
    for _ in range(rng.randrange(2, ncols)):
        lead = rng.randrange(ncols)
        scale = rng.choice(divisors)
        base.append([0] * lead + [scale * rng.randrange(mod) % mod
                                  for _ in range(ncols - lead)])
    return [[sum(rng.randrange(mod) * b[c] for b in base) % mod
             for c in range(ncols)] for _ in range(nrows)]


def recombine(rng, rows, mod):
    """The same span through random unimodular row operations over Z_mod."""
    rows = [list(r) for r in rows]
    units = [u for u in range(1, mod) if gcd(u, mod) == 1]
    for _ in range(3 * len(rows)):
        i, j = rng.sample(range(len(rows)), 2)
        q = rng.randrange(mod)
        rows[i] = [(x + q * y) % mod for x, y in zip(rows[i], rows[j])]
        u = rng.choice(units)
        rows[j] = [(u * y) % mod for y in rows[j]]
    rng.shuffle(rows)
    return rows


def test_howell_at_real_sizes():
    rng = random.Random(19)
    for mod in (2, 4, 12, 36):
        for _ in range(5):
            nrows, ncols = rng.randrange(10, 41), rng.randrange(8, 33)
            rows = structured_rows(rng, mod, nrows, ncols)
            hf = zmod.howell_form(rows, mod, ncols)
            assert zmod.howell_form(hf, mod, ncols) == hf
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert zmod.howell_form(shuffled, mod, ncols) == hf
            assert zmod.howell_form(recombine(rng, rows, mod), mod, ncols) == hf
            padded = rows + [[0] * ncols] + [
                [mod * rng.randrange(-3, 4) for _ in range(ncols)]
                for _ in range(3)]
            assert zmod.howell_form(padded, mod, ncols) == hf
            assert all(zmod.member(r, hf, mod) for r in rows)
            # independent route: Z^n / (rows + mod Z^n) has order det
            lattice = rows + [[mod if i == j else 0 for j in range(ncols)]
                              for i in range(ncols)]
            smith = intmat.smith_form(lattice)[0]
            det = prod(smith[i][i] for i in range(ncols))
            assert zmod.span_order(hf, mod) == mod ** ncols // det
