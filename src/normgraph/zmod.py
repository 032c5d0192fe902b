"""Canonical linear algebra over Z_N: Howell normal form, membership, kernels.

The Howell form is the unique canonical basis of a submodule of (Z_N)^n.
Its defining property: every span element whose leading zeros cover the
first j columns lies in the span of the basis rows with pivot beyond j.
That property is what makes greedy membership reduction and cross-section
extraction correct, and it is the reason subgroup equality can be tested
by comparing matrices entry-wise.  It also makes the rows with pivot
beyond j, cut to their last columns, the Howell form of the elements that
vanish on the first j columns: a kernel or a cross-section is read off the
trailing rows of one form (`howell_form(..., cut=j)`), never eliminated twice.
"""

from __future__ import annotations

from itertools import compress, count
from math import gcd


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) = s*a + t*b."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def unit_scale(a: int, mod: int) -> tuple[int, int]:
    """Return (g, u) with g = gcd(a, mod) and u a unit of Z_mod, u*a = g mod mod."""
    a %= mod
    g = gcd(a, mod)
    ap = a // g
    m2 = mod // g
    u = pow(ap, -1, m2) if m2 > 1 else 1
    while gcd(u, mod) != 1:
        u += m2
    return g, u % mod


def _lead(row: tuple[int, ...] | list[int]) -> int:
    return next(compress(count(), row), len(row))


def howell_form(rows, mod: int, ncols: int, cut: int = 0) -> list[list[int]]:
    """Howell normal form of the Z_mod-span of the given rows.

    Returns rows with strictly increasing pivot columns; each pivot divides
    mod; entries above a pivot are reduced modulo it.  The result is a
    canonical representative of the span: equal spans give equal matrices.

    With cut > 0, only the rows whose pivot column is at least cut are
    returned, without their first cut entries: the Howell form of
    {x : (0, x) in the span}.  By the Howell property those rows span that
    submodule, and they are the trailing rows of the full form, because
    back-substitution reduces a row only by the pivot rows below it.

    Each column is eliminated once.  Rows wait in buckets keyed by their
    lead (first nonzero) column, and a bucket holds each row from its lead
    column on, since the entries before it are zero.  Invariant: a row
    always sits in the bucket of its lead column, and a row pushed while
    column c is processed (the residue of a merge, or the annihilator
    multiple of the pivot) leads after c.  So bucket c is complete when
    column c is reached, and a row's lead is found only once.
    """
    if mod == 1 or ncols == 0:
        return []
    buckets: list[list[list[int]]] = [[] for _ in range(ncols)]

    def push(row: list[int], start: int) -> None:
        # row holds columns start, start + 1, ...; zero rows are dropped
        lead = next(compress(count(start), row), None)
        if lead is not None:
            buckets[lead].append(row[lead - start:])

    for r in rows:
        push([v % mod for v in r], 0)
    result: list[list[int]] = []
    tails: list[list[int]] = []
    for col, cur in enumerate(buckets):
        if not cur:
            continue
        piv = cur[0]
        for other in cur[1:]:
            a, b = piv[0], other[0]
            g, s, t = xgcd(a, b)
            ag, bg = a // g, b // g
            # the (-b/g, a/g) combination kills column col
            push([(ag * y - bg * x) % mod for x, y in zip(piv, other)], col)
            piv = other if (s, t) == (0, 1) else [
                (s * x + t * y) % mod for x, y in zip(piv, other)]
        g, u = unit_scale(piv[0], mod)
        if u != 1:
            piv = [(u * x) % mod for x in piv]
        if g != 1:
            mg = mod // g
            push([(mg * x) % mod for x in piv], col)
        if col >= cut:
            result.append([0] * (col - cut) + piv)
            tails.append(piv)
    # reduce entries above each pivot
    for i, (row, tail) in enumerate(zip(result, tails)):
        j = len(row) - len(tail)
        d = tail[0]
        for above in result[:i]:
            q = above[j] // d
            if q:
                above[j:] = [(x - q * y) % mod for x, y in zip(above[j:], tail)]
    return result


def reduce_vector(v, rows, mod: int, stop: int | None = None) -> list[int]:
    """Greedy remainder of v against a Howell basis; zero iff v is in the span.
    With stop, only rows leading before column stop are used, which leaves
    v's first stop entries zero iff some span element agrees with them."""
    v = [x % mod for x in v]
    for row in rows:
        j = _lead(row)
        if stop is not None and j >= stop:
            break
        d = row[j]
        if v[j] == 0:
            continue
        if v[j] % d:
            break  # not reducible at this pivot; v cannot be in the span
        q = v[j] // d
        # the row is zero before its pivot
        v[j:] = [(x - q * y) % mod for x, y in zip(v[j:], row[j:])]
    return v


def member(v, rows, mod: int) -> bool:
    if mod == 1:
        return True
    return not any(reduce_vector(v, rows, mod))


def span_order(rows, mod: int) -> int:
    """Order of the span of a Howell basis: product of mod / pivot."""
    order = 1
    for row in rows:
        order *= mod // row[_lead(row)]
    return order


def span_columns(rows, mod: int, ncols: int):
    """Yield the span of a Howell basis column by column: the k-th entries
    of the columns are the k-th element, sum c_i * row_i.  Each element has
    one such expression with c_i in [0, mod/pivot_i), by the triangular
    pivot structure; elements are listed in lexicographic order of (c_0,
    c_1, ...), the first row slowest."""
    ranges = [range(mod // row[_lead(row)]) for row in rows]
    for j in range(ncols):
        # a run of rows that are zero here repeats each entry in one pass
        col, reps = [0], 1
        for row, cs in zip(rows, ranges):
            if row[j]:
                steps = [c * row[j] % mod for c in cs] * reps
                col, reps = [(x + s) % mod for x in col for s in steps], 1
            else:
                reps *= len(cs)
        yield [x for x in col for _ in range(reps)] if reps > 1 else col


def kernel(columns_of, nrows: int, ncols: int, mod: int,
           images=None) -> list[list[int]]:
    """Howell form of {sum_i z_i * images[i] : sum_i z_i * column_i = 0 in
    Z_mod^nrows}, z in Z_mod^ncols.

    columns_of(i) must return the i-th column as a length-nrows sequence.
    The images default to the unit rows, which gives the kernel itself.
    One Howell form of the rows (column_i | images[i]), cut at nrows: its
    rows with a zero left block carry the answer in their right block.
    """
    if images is None:
        images = [[0] * i + [1] + [0] * (ncols - 1 - i) for i in range(ncols)]
    width = len(images[0]) if ncols else 0
    return howell_form([[*columns_of(i), *images[i]] for i in range(ncols)],
                       mod, nrows + width, nrows)
