"""Answer checks for the benchmark, written without the library.

Everything here works on the JSON documents and on the CLI's text output
alone: codes are closed by repeated addition, configurations are counted by
transfer along the chain of sections, marginals come from brute force or
from a textbook belief-propagation loop.  A check returns a list of
problems; an empty list means the answer is right.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction

from workloads import alphabet_moduli, close_rows


# -- documents -------------------------------------------------------------------


class Doc:
    """A realization document, indexed for counting."""

    def __init__(self, doc: dict):
        alphabets = {name: alphabet_moduli(a) for name, a in doc["alphabets"].items()}
        self.symbols = {s["id"]: alphabets[s["alphabet"]] for s in doc["symbols"]}
        self.states = {s["id"]: alphabets[s["alphabet"]] for s in doc["states"]}
        self.iso = {s["id"]: s["iso"] for s in doc["states"] if "iso" in s}
        self.constraints = doc["constraints"]
        self.ends: dict[str, list[tuple[int, int]]] = {}
        for c, con in enumerate(self.constraints):
            for i, v in enumerate(con["vars"]):
                if v in self.states:
                    self.ends.setdefault(v, []).append((c, i))

    def moduli(self, var: str) -> tuple[int, ...]:
        return self.symbols[var] if var in self.symbols else self.states[var]

    def words(self, c: int) -> set[tuple]:
        """Codewords of constraint c as tuples of per-slot values."""
        con = self.constraints[c]
        widths = [len(self.moduli(v)) for v in con["vars"]]
        flat_mod = [m for v in con["vars"] for m in self.moduli(v)]
        flat = close_rows(con["generators"], flat_mod)
        out = set()
        for w in flat:
            parts, pos = [], 0
            for k in widths:
                parts.append(tuple(w[pos:pos + k]))
                pos += k
            out.add(tuple(parts))
        return out

    def is_tail(self, c: int, i: int, j: str) -> bool:
        """The tail of an edge is its slot in the first-listed constraint."""
        return self.ends[j][0] == (c, i)

    def head_of(self, j: str, tail: tuple) -> tuple:
        """head = tail @ iso (identity when the edge has no iso label)."""
        if j not in self.iso:
            return tail
        mods = self.states[j]
        return tuple(sum(t * row[k] for t, row in zip(tail, self.iso[j])) % m
                     for k, m in enumerate(mods))

    def universe_order(self) -> int:
        return math.prod(len(self.words(c)) for c in range(len(self.constraints)))

    def state_order(self) -> int:
        return math.prod(math.prod(m) for m in self.states.values())

    def symbol_space_order(self) -> int:
        return math.prod(math.prod(m) for m in self.symbols.values())


def count_configurations(d: Doc, zero_symbols: bool = False) -> int:
    """Number of valid configurations of a chain (path or cycle) realization.

    A configuration assigns every symbol a value and every edge its tail
    value; the head slot sees tail @ iso.  Counted by transfer along the
    chain: each section contributes, for every pair of edge values, the
    number of its codewords with those values (and zero symbols if asked).
    """
    n = len(d.constraints)
    factors = []          # per section: {(edge values by state slot)} -> count
    slot_edges = []
    for c in range(n):
        con = d.constraints[c]
        state_slots = [(i, v) for i, v in enumerate(con["vars"]) if v in d.states]
        slot_edges.append([v for _, v in state_slots])
        inverse = {}
        for i, j in state_slots:
            if not d.is_tail(c, i, j):
                inverse[j] = {d.head_of(j, x): x for x in _elements(d.states[j])}
        table: dict[tuple, int] = {}
        for w in d.words(c):
            if zero_symbols and any(any(w[i]) for i, v in enumerate(con["vars"])
                                    if v in d.symbols):
                continue
            key = tuple(w[i] if j not in inverse else inverse[j][w[i]]
                        for i, j in state_slots)
            table[key] = table.get(key, 0) + 1
        factors.append(table)
    # walk the chain from section 0; `vec` maps (first edge value, current
    # edge value) to the number of partial configurations
    if len(slot_edges[0]) == 1:                 # path: section 0 is an end
        first, prev_edge = None, slot_edges[0][0]
        vec = {(None, key[0]): cnt for key, cnt in factors[0].items()}
    else:                                       # cycle: keep the closing edge
        first, prev_edge = slot_edges[0]
        vec = dict(factors[0])
    for c in range(1, n):
        edges = slot_edges[c]
        pos_in = edges.index(prev_edge)
        nxt = [e for e in edges if e != prev_edge]
        new: dict[tuple, int] = {}
        for key, cnt in factors[c].items():
            for (f, x), acc in vec.items():
                if key[pos_in] != x:
                    continue
                out = key[1 - pos_in] if nxt else None
                new[(f, out)] = new.get((f, out), 0) + acc * cnt
        vec = new
        prev_edge = nxt[0] if nxt else None
    if first is None:
        return sum(vec.values())
    return sum(cnt for (f, x), cnt in vec.items() if f == x)


def _elements(mods):
    return itertools.product(*(range(m) for m in mods))


# -- trellis ---------------------------------------------------------------------


def binary_code(rows) -> set[tuple]:
    return close_rows(rows, [2] * len(rows[0]))


def minimal_state_orders(code: set[tuple], n: int) -> dict[str, int]:
    """|C| / (|C_past| |C_future|) at every cut t, keyed by state s_t."""
    out = {}
    for t in range(1, n):
        past = sum(1 for w in code if not any(w[t:]))
        future = sum(1 for w in code if not any(w[:t]))
        out[f"s{t}"] = len(code) // (past * future)
    return out


def parse_behavior(text: str):
    """(column labels, printed order, rows) from `behavior` output."""
    labels, order, rows = None, None, []
    for line in text.splitlines():
        if line.startswith("# columns:"):
            labels = line.split(":", 1)[1].split()
        elif line.startswith("# order"):
            order = int(line.split()[2])
        elif line.strip():
            rows.append([int(v) for v in line.split()])
    return labels, order, rows


def check_code_rows(text: str, code: set[tuple], n: int) -> list[str]:
    """`behavior --external-only` output generates exactly `code`."""
    labels, order, rows = parse_behavior(text)
    want = [f"a{t}" for t in range(n)]
    if labels is None or sorted(labels) != sorted(want):
        return [f"behavior columns {labels} are not the symbols"]
    problems = []
    if order != len(code):
        problems.append(f"behavior reports order {order}, |C| = {len(code)}")
    col = {lab: i for i, lab in enumerate(labels)}
    words = [tuple(r[col[lab]] for lab in want) for r in rows]
    outside = [w for w in words if w not in code]
    if outside:
        problems.append(f"{len(outside)} printed rows are not codewords")
    elif close_rows(words, [2] * n) != code:
        problems.append("printed rows do not span the code")
    return problems


def check_duality_summary(text: str, code_order: int, space_order: int) -> list[str]:
    m = re.search(r"verified, \|C\|=(\d+), \|C⊥\|=(\d+)", text)
    if not m:
        return [f"no verified duality summary in {text.strip()!r}"]
    c, cp = int(m.group(1)), int(m.group(2))
    if (c, cp) != (code_order, space_order // code_order):
        return [f"|C|={c}, |C⊥|={cp}; expected {code_order}, "
                f"{space_order // code_order}"]
    return []


def check_minimized(doc: dict, text: str, code: set[tuple], n: int) -> list[str]:
    """State orders of the minimized trellis equal the state space theorem's."""
    d = Doc(doc)
    want = minimal_state_orders(code, n)
    got = {j: math.prod(m) for j, m in d.states.items()}
    problems = []
    if got != want:
        problems.append(f"minimized state orders {got} != {want}")
    m = re.search(r"state orders \[([0-9, ]*)\]", text)
    printed = sorted(int(v) for v in m.group(1).split(",") if v.strip()) if m else None
    if printed != sorted(want.values()):
        problems.append(f"printed state orders {printed} != {sorted(want.values())}")
    return problems


def exact_app(code: set[tuple], priors: dict[str, list[str]]) -> dict[str, list[Fraction]]:
    """Brute-force a-posteriori marginals as exact fractions."""
    n = len(next(iter(code)))
    p = [[Fraction(w) for w in priors[f"a{t}"]] for t in range(n)]
    acc = [[Fraction(0), Fraction(0)] for _ in range(n)]
    for w in code:
        weight = Fraction(1)
        for t, v in enumerate(w):
            weight *= p[t][v]
        for t, v in enumerate(w):
            acc[t][v] += weight
    return {f"a{t}": [a / sum(acc[t]) for a in acc[t]] for t in range(n)}


def check_exact_marginals(text: str, app: dict[str, list[Fraction]]) -> list[str]:
    try:
        got = {k: [Fraction(w) for w in ws] for k, ws in json.loads(text).items()}
    except (ValueError, TypeError, AttributeError) as exc:
        return [f"unreadable exact marginals: {exc}"]
    if got != app:
        bad = sorted(k for k in app if got.get(k) != app[k])
        return [f"exact marginals differ from brute force at {bad[:5]}"]
    return []


# -- analyze ---------------------------------------------------------------------


def analyze_orders(d: Doc) -> dict[str, int]:
    """|U| (constraint codes), |B| (valid configurations), |S| (states)."""
    return {"order_universe": d.universe_order(),
            "order_extended": count_configurations(d),
            "order_states": d.state_order()}


def check_analyze(text: str, orders: dict[str, int]) -> list[str]:
    try:
        (entry,) = json.loads(text)
        ct = entry["controllability_test"]
        u, b, s = ct["order_universe"], ct["order_extended"], ct["order_states"]
        sc = ct["order_controllable"]
    except (ValueError, TypeError, KeyError) as exc:
        return [f"unreadable analyze JSON: {exc!r}"]
    problems = []
    for key, want in orders.items():
        if ct[key] != want:
            problems.append(f"{key} = {ct[key]}, expected {want}")
    if u != b * sc:
        problems.append(f"|U| = {u} != |B| |Sc| = {b} * {sc}")
    if sc > s:
        problems.append(f"|Sc| = {sc} > |S| = {s}")
    return problems


# -- iterative decoding ------------------------------------------------------------


def read_float_marginals(text: str, symbols: dict[str, int]):
    """Parse float marginals; problems if labels or lengths are off."""
    try:
        got = json.loads(text)
    except ValueError as exc:
        return None, [f"unreadable marginals: {exc}"]
    if not isinstance(got, dict) or set(got) != set(symbols):
        return None, ["marginal labels differ from the symbols"]
    bad = [k for k, q in symbols.items() if len(got[k]) != q]
    if bad:
        return None, [f"wrong marginal lengths at {bad[:5]}"]
    return got, []


def check_distributions(text: str, symbols: dict[str, int]) -> list[str]:
    got, problems = read_float_marginals(text, symbols)
    if problems:
        return problems
    for k, ws in got.items():
        if any(w < 0 for w in ws) or abs(sum(ws) - 1) > 1e-9:
            return [f"marginal of {k} is not a distribution: {ws}"]
    return []


def reference_bp(h, priors: dict[str, list[float]], rounds: int) -> dict[str, list[float]]:
    """Textbook two-phase belief propagation over a GF(2) check matrix.

    `rounds` check-then-variable rounds; marginals are the normalized product
    of the prior and every check-to-variable message of the last round.
    """
    m, n = len(h), len(h[0])
    rows = [[j for j in range(n) if h[i][j]] for i in range(m)]
    cols = [[i for i in range(m) if h[i][j]] for j in range(n)]
    prior = [_normalize(priors[f"a{j}"]) for j in range(n)]
    v2c = {(i, j): prior[j] for i in range(m) for j in rows[i]}
    c2v = {}
    for _ in range(rounds):
        for i in range(m):
            for j in rows[i]:
                q = 1.0
                for k in rows[i]:
                    if k != j:
                        p0, p1 = v2c[(i, k)]
                        q *= p0 - p1
                c2v[(i, j)] = ((1 + q) / 2, (1 - q) / 2)
        for j in range(n):
            for i in cols[j]:
                w0, w1 = prior[j]
                for k in cols[j]:
                    if k != i:
                        w0 *= c2v[(k, j)][0]
                        w1 *= c2v[(k, j)][1]
                v2c[(i, j)] = _normalize((w0, w1))
    out = {}
    for j in range(n):
        w0, w1 = prior[j]
        for i in cols[j]:
            w0 *= c2v[(i, j)][0]
            w1 *= c2v[(i, j)][1]
        out[f"a{j}"] = list(_normalize((w0, w1)))
    return out


def _normalize(ws):
    t = sum(ws)
    return tuple(w / t for w in ws)


def check_bp_marginals(text: str, reference: dict[str, list[float]],
                       tol: float = 1e-9) -> list[str]:
    got, problems = read_float_marginals(text, {k: len(v) for k, v in reference.items()})
    if problems:
        return problems
    worst = max(abs(a - b) for k in reference for a, b in zip(got[k], reference[k]))
    if worst > tol:
        return [f"marginals differ from reference BP by {worst:.3g}"]
    return []


# -- 2-core ----------------------------------------------------------------------


def two_core(d: Doc) -> set[str]:
    """Constraints left after repeatedly removing degree-1 constraints."""
    alive = {con["id"] for con in d.constraints}
    nbrs = {con["id"]: [] for con in d.constraints}
    for j, ends in d.ends.items():
        if len(ends) == 2:
            a, b = (d.constraints[c]["id"] for c, _ in ends)
            nbrs[a].append(b)
            nbrs[b].append(a)
    changed = True
    while changed:
        changed = False
        for c in list(alive):
            if sum(1 for o in nbrs[c] if o in alive) <= 1:
                alive.discard(c)
                changed = True
    return alive


def check_two_core(text: str, d: Doc) -> list[str]:
    core = two_core(d)
    edges = sum(1 for ends in d.ends.values() if len(ends) == 2)
    cyclomatic = edges - len(d.constraints) + 1
    m = re.search(r"^2-core constraints: (.*)$", text, re.M)
    got = {c.strip() for c in m.group(1).split(",")} if m else None
    problems = []
    if got != core:
        problems.append("2-core constraints differ from peeling")
    m = re.search(r"^cyclomatic number (\d+)$", text, re.M)
    if not m or int(m.group(1)) != cyclomatic:
        problems.append(f"cyclomatic number line wrong, expected {cyclomatic}")
    if core == {con["id"] for con in d.constraints} and "leaf" in text:
        problems.append("leaf fragments reported on a leafless graph")
    return problems


def check_validate(text: str) -> list[str]:
    if "ok: normal degree and alphabet checks pass" not in text:
        return [f"validate did not pass: {text.strip()[:200]!r}"]
    return []
