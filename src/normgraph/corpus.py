"""Builders for test realizations and the exhaustive oracle harness.

Everything here is deliberately simple and independent of the canonical
linear algebra wherever it serves as an oracle: constraint codes are closed
by repeated addition, behaviors by filtering full configuration spaces.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .alphabets import Alphabet, Element, ProductSpace, cyclic_group, sort_key, vector_space
from .errors import TooLargeToEnumerate
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

DEFAULT_POOL = (GF2, GF3, Z4, cyclic_group(2))


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
        slot_alphas = []
        if t > 0:
            vars_.append(f"{prefix}s{t}")
            slot_alphas.append(states[f"{prefix}s{t}"].alphabet)
        vars_.append(f"{prefix}a{t}")
        slot_alphas.append(alphabets[t])
        if t < n - 1:
            vars_.append(f"{prefix}s{t+1}")
            slot_alphas.append(states[f"{prefix}s{t+1}"].alphabet)
        section_amb = _slot_space(slot_alphas)
        gen_rows = []
        in_active = active(t) if t > 0 else []
        out_active = active(t + 1) if t < n - 1 else []
        for i, (row, (f, l), o) in enumerate(kept):
            if not f <= t <= l:
                continue
            section_row = []
            if t > 0:
                coeff = [0] * len(in_active)
                if i in in_active:
                    coeff[in_active.index(i)] = 1
                section_row.extend(coeff)
            section_row.extend(amb.get(row, t))
            if t < n - 1:
                coeff = [0] * len(out_active)
                if i in out_active:
                    coeff[out_active.index(i)] = 1
                section_row.extend(coeff)
            gen_rows.append(tuple(section_row))
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


def z4_sample_realizations() -> list[Realization]:
    """Small Z_4 group-code fixtures: chains through the subgroup {0, 2}."""
    out = []
    out.append(trellis_realization([(1, 1), (0, 2)], [Z4, Z4]))
    out.append(trellis_realization([(2, 2, 0), (0, 2, 2)], [Z4, Z4, Z4]))
    doubler = Homomorphism(Z4, Z4, ((3,),))
    ident = CodeSubgroup(_slot_space([Z4, Z4]), [(1, 1)])
    out.append(Realization(
        symbols={"a0": Z4, "a1": Z4},
        states={"s": StateVar(Z4, doubler)},
        constraints={"c0": Constraint(("a0", "s"), ident),
                     "c1": Constraint(("s", "a1"), ident)},
    ))
    return out


# -- randomized corpus -----------------------------------------------------------


TOPOLOGIES = ("path", "cycle", "cycle_pendant", "theta")


def random_subgroup(rng: random.Random, space: ProductSpace,
                    max_gens: int = 3) -> CodeSubgroup:
    k = rng.randrange(1, max_gens + 1)
    rows = [tuple(rng.randrange(m) for m in space.moduli) for _ in range(k)]
    return CodeSubgroup(space, rows)


def random_automorphism(rng: random.Random, alpha: Alphabet) -> Homomorphism | None:
    """A diagonal unit automorphism, or None for the identity."""
    diag = []
    nontrivial = False
    for m in alpha.moduli:
        units = [u for u in range(1, m) if gcd(u, m) == 1]
        u = rng.choice(units)
        nontrivial = nontrivial or u != 1
        diag.append(u)
    if not nontrivial:
        return None
    mat = tuple(
        tuple(diag[i] if i == j else 0 for j in range(alpha.width))
        for i in range(alpha.width))
    return Homomorphism(alpha, alpha, mat)


def random_realization(seed: int, topology: str = "cycle",
                       pool=DEFAULT_POOL, n_constraints: int | None = None,
                       symbol_prob: float = 0.8, iso_prob: float = 0.0,
                       max_gens: int = 3) -> Realization:
    """Seeded random realization on one of the stock topologies."""
    rng = random.Random(seed)
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}")
    k = n_constraints or rng.randrange(3, 6)
    edges: list[tuple[str, str, str]] = []
    if topology == "path":
        edges = [(f"c{i}", f"c{i+1}", f"s{i}") for i in range(k - 1)]
    elif topology == "cycle":
        edges = [(f"c{i}", f"c{(i+1) % k}", f"s{i}") for i in range(k)]
    elif topology == "cycle_pendant":
        ring = max(3, k - 1)
        edges = [(f"c{i}", f"c{(i+1) % ring}", f"s{i}") for i in range(ring)]
        edges.append((f"c{rng.randrange(ring)}", f"c{ring}", f"s{ring}"))
        k = ring + 1
    elif topology == "theta":
        k = 2
        edges = [("c0", "c1", f"s{i}") for i in range(3)]

    states = {}
    for _, _, j in edges:
        alpha = rng.choice(pool)
        iso = random_automorphism(rng, alpha) if rng.random() < iso_prob else None
        states[j] = StateVar(alpha, iso)
    incident: dict[str, list[str]] = {f"c{i}": [] for i in range(k)}
    for ca, cb, j in edges:
        incident[ca].append(j)
        incident[cb].append(j)
    symbols = {}
    constraints = {}
    for i in range(k):
        cl = f"c{i}"
        vars_ = list(incident[cl])
        if rng.random() < symbol_prob:
            lab = f"a{i}"
            symbols[lab] = rng.choice(pool)
            vars_.append(lab)
        alphas = [states[v].alphabet if v in states else symbols[v] for v in vars_]
        space = _slot_space(alphas)
        constraints[cl] = Constraint(tuple(vars_), random_subgroup(rng, space, max_gens))
    return Realization(symbols, states, constraints)


def random_fragment(seed: int, boundary_alpha: Alphabet,
                    n_constraints: int = 2, pool=DEFAULT_POOL,
                    cycle_free: bool = True) -> Realization:
    """Seeded random fragment with one boundary variable of a given alphabet."""
    rng = random.Random(seed)
    r = random_realization(
        rng.randrange(2**30),
        topology="path" if cycle_free else "cycle_pendant",
        pool=pool, n_constraints=n_constraints)
    # attach a boundary half-edge to the first constraint
    first = sorted(r.constraints)[0]
    con = r.constraints[first]
    blab = "b0"
    while blab in r.symbols or blab in r.states:
        blab += "+"
    new_amb = ProductSpace(
        list(con.code.ambient.factors) + [(len(con.vars), boundary_alpha)])
    rows = []
    for row in con.code.rows:
        rows.append(tuple(row) + tuple(rng.randrange(m)
                                       for m in boundary_alpha.moduli))
    for e in boundary_alpha.unit_rows():
        if rng.random() < 0.7:
            rows.append((0,) * con.code.ambient.width + e)
    states = dict(r.states)
    states[blab] = StateVar(boundary_alpha)
    constraints = dict(r.constraints)
    constraints[first] = Constraint(con.vars + (blab,),
                                    CodeSubgroup(new_amb, rows))
    return Realization(r.symbols, states, constraints,
                       boundary=list(r.boundary) + [blab])


# -- exhaustive oracle harness ----------------------------------------------------


def close_rows(space: ProductSpace, rows) -> set[Element]:
    """Subgroup closure by repeated addition (independent of Howell forms)."""
    seen = {space.zero}
    frontier = [space.zero]
    rows = [space.reduce(r) for r in rows]
    while frontier:
        x = frontier.pop()
        for r in rows:
            y = space.add(x, r)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


@dataclass
class OracleHarness:
    """Exhaustive model of one realization, for cross-checking everything.

    All sets are computed by enumeration and set algebra only.
    """

    r: Realization
    behavior: set[tuple]          # (symbol block, boundary block, state block)
    syms: list[str]
    bound: list[str]
    internal: list[str]

    @classmethod
    def build(cls, r: Realization, cap: int = 2**20) -> "OracleHarness":
        if r.configuration_space_order() > cap:
            raise TooLargeToEnumerate("oracle cannot enumerate this realization")
        syms = sorted(r.symbols, key=sort_key)
        bound = list(r.boundary)
        internal = sorted(r.internal_states(), key=sort_key)
        codeword_sets = {
            cl: close_rows(con.code.ambient, con.code.rows)
            for cl, con in r.constraints.items()
        }
        behavior = set()
        alphas = [r.alphabet_of(v) for v in syms + bound + internal]
        for combo in itertools.product(*(list(a.elements()) for a in alphas)):
            config = dict(zip(syms + bound + internal, combo))
            if r._config_valid(config, codeword_sets):
                behavior.add(tuple(combo))
        return cls(r, behavior, syms, bound, internal)

    def _word(self, combo, labels) -> tuple:
        all_labels = self.syms + self.bound + self.internal
        out = []
        for lab in labels:
            out.extend(combo[all_labels.index(lab)])
        return tuple(out)

    def code_set(self) -> set[tuple]:
        return {self._word(c, self.syms) for c in self.behavior}

    def external_set(self) -> set[tuple]:
        return {self._word(c, self.syms + self.bound) for c in self.behavior}

    def projection(self, labels) -> set[tuple]:
        return {self._word(c, labels) for c in self.behavior}

    def cross_section(self, labels) -> set[tuple]:
        """Behavior cross-section: every variable outside `labels` is zero."""
        others = [v for v in self.syms + self.bound + self.internal
                  if v not in labels]
        return {
            self._word(c, labels) for c in self.behavior
            if all(x == 0 for x in self._word(c, others))
        }

    def external_cross_section(self, labels) -> set[tuple]:
        """Cross-section of the external behavior: internal states stay free."""
        others = [v for v in self.syms + self.bound if v not in labels]
        return {
            self._word(c, labels) for c in self.behavior
            if all(x == 0 for x in self._word(c, others))
        }

    def unobservable_states(self) -> set[tuple]:
        """Internal state configurations valid with all-zero external values."""
        return self.cross_section(self.internal)

    def controllable_syndromes(self, cap: int = 2**20) -> set[tuple]:
        """Syndromes head - iso(tail) over the full configuration universe."""
        r = self.r
        per_constraint = [
            sorted(close_rows(con.code.ambient, con.code.rows))
            for con in r.constraints.values()
        ]
        total = 1
        for words in per_constraint:
            total *= len(words)
        if total > cap:
            raise TooLargeToEnumerate("configuration universe too large")
        labels = list(r.constraints)
        out = set()
        for combo in itertools.product(*per_constraint):
            ends: dict[str, dict[int, tuple]] = {}
            for cl, word in zip(labels, combo):
                con = r.constraints[cl]
                amb = con.code.ambient
                for i, v in enumerate(con.vars):
                    if v in r.internal_states():
                        which = 0 if r.slots[v][0] == (cl, i) else 1
                        ends.setdefault(v, {})[which] = amb.get(word, i)
            syndrome = []
            for j in self.internal:
                sv = r.states[j]
                tail = ends[j][0]
                head = ends[j][1]
                mapped = sv.head_of(tail)
                syndrome.extend((h - m) % mm for h, m, mm in
                                zip(head, mapped, sv.alphabet.moduli))
            out.add(tuple(syndrome))
        return out

    def app_marginals(self, priors) -> dict[str, list[Fraction]]:
        """Per-symbol a-posteriori marginals, normalized."""
        r = self.r
        acc = {k: [Fraction(0)] * r.symbols[k].order for k in self.syms}
        for combo in self.behavior:
            w = Fraction(1)
            for k in self.syms:
                value = self._word(combo, [k])
                w *= Fraction(priors[k].weights[r.symbols[k].index(value)])
            for k in self.syms:
                value = self._word(combo, [k])
                acc[k][r.symbols[k].index(value)] += w
        out = {}
        for k in self.syms:
            t = sum(acc[k])
            out[k] = [w / t if t else Fraction(0) for w in acc[k]]
        return out
