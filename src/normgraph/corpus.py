"""Builders for small fixture realizations: single nodes, trellises, rings
and Tanner graphs over the stock alphabets GF(2), GF(3) and Z_4.

The seeded random realizations and the exhaustive oracle that tests check
against live with the tests, in `tests/oracles.py`.
"""

from __future__ import annotations

from math import gcd, lcm

from .alphabets import Alphabet, ProductSpace, cyclic_group, vector_space
from .homs import Homomorphism
from .realization import (
    Constraint,
    GeneralSystem,
    Realization,
    StateVar,
    equality_code,
    normalize,
)
from .subgroups import CodeSubgroup

GF2 = vector_space(2, 1)
GF3 = vector_space(3, 1)
Z4 = cyclic_group(4)


def _slot_space(alphas) -> ProductSpace:
    return ProductSpace(list(enumerate(alphas)))


def zero_sum_code(alpha: Alphabet, n: int) -> CodeSubgroup:
    """Single-parity-check code: coordinates summing to zero."""
    rows = []
    for i in range(n - 1):
        for e in alpha.unit_rows():
            row = [0] * (n * alpha.width)
            for t, v in enumerate(e):
                row[i * alpha.width + t] = v
                row[(n - 1) * alpha.width + t] = (-v) % alpha.moduli[t]
            rows.append(tuple(row))
    return CodeSubgroup(_slot_space([alpha] * n), rows)


def sign_inversion_code(alpha: Alphabet) -> CodeSubgroup:
    """Length-2 zero-sum code: v1 = -v2."""
    return zero_sum_code(alpha, 2)


def single_node(code: CodeSubgroup, prefix: str = "a") -> Realization:
    """Degree-n realization with one constraint and n symbol half-edges."""
    syms = [f"{prefix}{i}" for i in range(len(code.ambient.factors))]
    return Realization(
        symbols={s: alpha for s, (_, alpha) in zip(syms, code.ambient.factors)},
        states={},
        constraints={"c": Constraint(tuple(syms), code)},
    )


def equality_node(alpha: Alphabet, n: int) -> Realization:
    return single_node(equality_code(alpha, n))


def zero_sum_node(alpha: Alphabet, n: int) -> Realization:
    return single_node(zero_sum_code(alpha, n))


# -- trellis constructions -------------------------------------------------------


def row_order(ambient: ProductSpace, row) -> int:
    """Additive order of a row in its ambient product."""
    o = 1
    for v, m in zip(row, ambient.moduli):
        if v:
            o = lcm(o, m // gcd(v, m))
    return o


def trellis_realization(rows, alphabets, prefix: str = "") -> Realization:
    """Conventional trellis from generator rows, by the product construction.

    One section per symbol position; each generator row contributes a
    coefficient carried across the cuts its support interval spans.  State
    alphabets are products of cyclic groups Z_(row order); no minimality is
    attempted (minimize the result separately).
    """
    alphabets = list(alphabets)
    n = len(alphabets)
    amb = _slot_space(alphabets)
    rows = [amb.check_row(r) for r in rows]
    kept = []
    for row in rows:
        nz = [t for t, _ in enumerate(alphabets)
              if any(amb.get(row, t))]
        if not nz:
            continue
        kept.append((row, (min(nz), max(nz)), row_order(amb, row)))

    def active(t: int) -> list[int]:
        """Rows whose coefficient crosses cut t (between symbols t-1 and t)."""
        return [i for i, (_, (f, l), _) in enumerate(kept) if f < t <= l]

    symbols = {f"{prefix}a{t}": alphabets[t] for t in range(n)}
    states = {}
    for t in range(1, n):
        moduli = tuple(kept[i][2] for i in active(t))
        states[f"{prefix}s{t}"] = StateVar(Alphabet("group", moduli))
    constraints = {}
    for t in range(n):
        vars_ = []
        if t > 0:
            vars_.append(f"{prefix}s{t}")
        vars_.append(f"{prefix}a{t}")
        if t < n - 1:
            vars_.append(f"{prefix}s{t+1}")
        section_amb = _slot_space([symbols[v] if v in symbols else states[v].alphabet
                                   for v in vars_])
        # no row crosses cut 0 or cut n, so the end sections get no coefficients
        in_active, out_active = active(t), active(t + 1)
        gen_rows = [(*[int(k == i) for k in in_active], *amb.get(row, t),
                     *[int(k == i) for k in out_active])
                    for i, (row, (f, l), _) in enumerate(kept) if f <= t <= l]
        constraints[f"{prefix}c{t}"] = Constraint(
            tuple(vars_), CodeSubgroup(section_amb, gen_rows))
    return Realization(symbols, states, constraints)


def ring_realization(section_codes, prefix: str = "") -> Realization:
    """Tail-biting ring: section t constrains (state t, symbol t, state t+1).

    section_codes[t] must be a CodeSubgroup over three factors
    (S_t, A_t, S_(t+1 mod n)).
    """
    n = len(section_codes)
    symbols = {}
    states = {}
    constraints = {}
    for t, code in enumerate(section_codes):
        (_, s_in), (_, a), (_, s_out) = code.ambient.factors
        symbols[f"{prefix}a{t}"] = a
        states.setdefault(f"{prefix}s{t}", StateVar(s_in))
        if s_out.moduli != section_codes[(t + 1) % n].ambient.factors[0][1].moduli:
            raise ValueError("section state alphabets do not chain")
    for t, code in enumerate(section_codes):
        constraints[f"{prefix}c{t}"] = Constraint(
            (f"{prefix}s{t}", f"{prefix}a{t}", f"{prefix}s{(t + 1) % n}"), code)
    return Realization(symbols, states, constraints)


def tail_biting_rep2() -> Realization:
    """Tail-biting trellis of {00, 11} with GF(2) states and identity sections."""
    sec = equality_code(GF2, 3)
    return ring_realization([sec, sec])


def tanner_realization(h_rows, alpha: Alphabet) -> Realization:
    """Tanner-graph realization of the kernel of a check matrix.

    h_rows is a matrix of integer coefficients; check i enforces
    sum_j h[i][j] * a_j = 0 over the (single-coordinate) alphabet.  Symbols
    of degree above one get equality replica nodes via normalization.
    """
    if alpha.width != 1:
        raise ValueError("tanner_realization expects a width-1 alphabet")
    m = alpha.moduli[0]
    nsyms = len(h_rows[0]) if h_rows else 0
    variables = {f"a{j}": (alpha, "symbol") for j in range(nsyms)}
    constraints = {}
    for i, row in enumerate(h_rows):
        support = [j for j, hij in enumerate(row) if hij % m]
        if not support:
            continue
        # kernel of one check: pairs summing to zero under the coefficients
        phi = Homomorphism(
            Alphabet("group", tuple(alpha.moduli[0] for _ in support)),
            alpha, tuple((hij % m,) for hij in (row[j] for j in support)))
        ker = phi.kernel()
        code = CodeSubgroup(_slot_space([alpha] * len(support)), ker.rows)
        constraints[f"h{i}"] = (tuple(f"a{j}" for j in support), code)
    return normalize(GeneralSystem(variables, constraints))
