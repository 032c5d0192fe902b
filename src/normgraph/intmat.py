"""Exact integer matrix forms used for quotient-group structure.

A subgroup C of Z_m1 x ... x Z_mn is the image of the lattice
L_C = {x in Z^n : x mod m in C}, and C/D = L_C / L_D.  The Hermite basis
of L_C is read off C's canonical Howell form, with no elimination; the
Smith form of L_D in that basis, with its column transform, gives the
invariant factors of C/D and the maps.  Sizes here are small, so the naive
Smith pivot algorithm with arbitrary-precision ints is the right tool.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import product

# `hermite_form` and `smith_form` keep their names: the bench traces them.


def hermite_form(howell, moduli: Sequence[int],
                 scales: Sequence[int]) -> list[list[int]]:
    """Row Hermite basis of L_C, read off the Howell form of C over Z_M
    (lifted rows: column c scaled by M/m_c).

    Column c takes the Howell row with pivot c, or M e_c if no row has
    its pivot there, and every entry is divided by its column's scale.
    The rows are triangular, lie in L_C and have index prod m_c / |C|, so
    they are a basis; the Howell form reduces each entry above a pivot
    into [0, pivot), so it is the Hermite form: an upper-triangular basis
    with positive diagonal and entries above each pivot in [0, pivot).
    """
    n = len(moduli)
    rows = iter(howell)
    row = next(rows, None)
    basis = []
    for c, m in enumerate(moduli):
        # pivots strictly increase, so the next row leads at c or later
        if row is not None and row[c]:
            basis.append([v // s for v, s in zip(row, scales)])
            row = next(rows, None)
        else:
            basis.append([0] * c + [m] + [0] * (n - c - 1))
    return basis


def solve_upper_triangular(x: list[int], B: list[list[int]]) -> list[int]:
    """Solve w * B = x exactly for square upper-triangular B (lattice basis)."""
    n = len(B)
    w = [0] * n
    x = list(x)
    for i in range(n):
        d = B[i][i]
        if x[i] % d:
            raise ArithmeticError("vector not in the lattice")
        w[i] = x[i] // d
        if w[i]:
            for j in range(i, n):
                x[j] -= w[i] * B[i][j]
    if any(x):
        raise ArithmeticError("vector not in the lattice")
    return w


def smith_form(A: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form with the column transform: returns (S, V, Vinv).

    S = U*A*V is diagonal with nonnegative entries d_1 | d_2 | ... for a
    unimodular U that is not kept; V is unimodular and Vinv = V^-1 is
    tracked alongside.
    """
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

    def col_add(i, j, q):  # col i += q * col j  <=>  Vinv row j -= q * Vinv row i
        for M in (S, V):
            for r in M:
                r[i] += q * r[j]
        Vinv[j] = [x - q * y for x, y in zip(Vinv[j], Vinv[i])]

    t = 0
    size = min(m, n)
    while t < size:
        # pick the first nonzero entry of smallest magnitude in the trailing
        # block, row by row; none is smaller than a unit, which ends the search
        best = None
        for r, c in product(range(t, m), range(t, n)):
            v = abs(S[r][c])
            if v and (best is None or v < best[0]):
                best = (v, r, c)
                if v == 1:
                    break
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
                if S[r][t]:
                    dirty = True
        for c in range(t + 1, n):
            if S[t][c]:
                q = S[t][c] // S[t][t]
                col_add(c, t, -q)
                if S[t][c]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility over the remaining block
        d = S[t][t]
        culprit = None
        for r in range(t + 1, m):
            for c in range(t + 1, n):
                if S[r][c] % d:
                    culprit = r
                    break
            if culprit is not None:
                break
        if culprit is not None:
            S[t] = [x + y for x, y in zip(S[t], S[culprit])]
            continue
        t += 1
    return S, V, Vinv
