"""Exact integer matrix forms used for quotient-group structure.

Hermite form of full-rank lattices and Smith form with transform tracking.
Sizes here are tiny (a few dozen rows), so the naive pivot algorithms with
arbitrary-precision ints are the right tool.
"""

from __future__ import annotations

from .zmod import xgcd


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                row = out[i]
                for j in range(m):
                    row[j] += a * Bt[j]
    return out


def hermite_form(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Row Hermite normal form of the lattice spanned by rows.

    For a full-rank lattice in Z^ncols this returns an ncols x ncols
    upper-triangular basis with positive diagonal and entries above each
    pivot reduced into [0, pivot).
    """
    work = [list(r) for r in rows if any(r)]
    result: list[list[int]] = []
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


def _lead(row) -> int:
    for i, v in enumerate(row):
        if v:
            return i
    return len(row)


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


def smith_form(A: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form with transforms: returns (S, U, V, Vinv), S = U*A*V.

    S is diagonal with nonnegative entries d_1 | d_2 | ...; U and V are
    unimodular and Vinv = V^-1 is tracked alongside.
    """
    m = len(A)
    n = len(A[0]) if A else 0
    S = [list(r) for r in A]
    U = identity(m)
    V = identity(n)
    Vinv = identity(n)

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def row_add(i, j, q):  # row i += q * row j
        S[i] = [x + q * y for x, y in zip(S[i], S[j])]
        U[i] = [x + q * y for x, y in zip(U[i], U[j])]

    def row_neg(i):
        S[i] = [-x for x in S[i]]
        U[i] = [-x for x in U[i]]

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
        # pick the nonzero entry of smallest magnitude in the trailing block
        best = None
        for r in range(t, m):
            for c in range(t, n):
                v = abs(S[r][c])
                if v and (best is None or v < best[0]):
                    best = (v, r, c)
        if best is None:
            break
        _, r, c = best
        if r != t:
            row_swap(t, r)
        if c != t:
            col_swap(t, c)
        if S[t][t] < 0:
            row_neg(t)
        dirty = False
        for r in range(t + 1, m):
            if S[r][t]:
                q = S[r][t] // S[t][t]
                row_add(r, t, -q)
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
            row_add(t, culprit, 1)
            continue
        t += 1
    for i in range(size):
        if S[i][i] < 0:
            row_neg(i)
    return S, U, V, Vinv
