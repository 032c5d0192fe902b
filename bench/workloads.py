"""Seeded workload generators for the benchmark.

Every document is written in the realization JSON format directly, without
calling the library's builders, so that a change to those builders cannot
change the inputs under the benchmark.  The same seed always gives the same
documents.  Each generator returns a `Workload`: the documents to write and
the facts the answer checks need (generator rows, check matrix, ...).
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

GF2 = {"field": 2, "dim": 1}
GF3 = {"field": 3, "dim": 1}
Z4 = {"cyclic": [4]}
Z12 = {"cyclic": [12]}
RING_ALPHABETS = {"GF3": GF3, "Z4": Z4, "Z12": Z12}


def alphabet_moduli(alpha: dict) -> tuple[int, ...]:
    if "field" in alpha:
        return (alpha["field"],) * alpha.get("dim", 1)
    return tuple(alpha["cyclic"])


@dataclass
class Workload:
    """A generated realization and priors document, plus what the answer
    checks need (generator rows, check matrix, exact prior strings)."""

    name: str
    realization: dict
    priors: dict
    facts: dict = field(default_factory=dict)

    def write(self, directory: str) -> dict[str, str]:
        """Write both documents under `directory`; return their paths."""
        os.makedirs(directory, exist_ok=True)
        paths = {"realization": os.path.join(directory, f"{self.name}.json"),
                 "priors": os.path.join(directory, f"{self.name}_priors.json")}
        for key, doc in (("realization", self.realization), ("priors", self.priors)):
            with open(paths[key], "w") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
        return paths


def close_rows(rows, moduli) -> set[tuple]:
    """Subgroup of prod Z_m generated by `rows`, by repeated addition."""
    zero = tuple(0 for _ in moduli)
    seen = {zero}
    frontier = [zero]
    rows = [tuple(v % m for v, m in zip(r, moduli)) for r in rows]
    while frontier:
        x = frontier.pop()
        for r in rows:
            y = tuple((a + b) % m for a, b, m in zip(x, r, moduli))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


# -- trellis ---------------------------------------------------------------------


def fixed_profile_rows(rng: random.Random, n: int, k: int) -> list[list[int]]:
    """Generator rows of a random binary [n, k] code with a fixed trellis
    structure, so that the amount of work does not depend on the seed.

    Row i of a trellis-oriented generator matrix spans [i, i + n - k] with a
    random interior, which fixes the minimal state profile (orders 2, 4, ..,
    2^k, .., 4, 2).  Adding the last row to every other one stretches each
    span to the end, so the product trellis of the returned rows has state
    orders 2, 4, .., 2^k, 2^k, .., 2^k: not minimal, and also fixed.
    """
    togm = []
    for i in range(k):
        row = [0] * n
        row[i] = row[i + n - k] = 1
        for t in range(i + 1, i + n - k):
            row[t] = rng.randrange(2)
        togm.append(row)
    last = togm[-1]
    return [[(a + b) % 2 for a, b in zip(row, last)] for row in togm[:-1]] + [last]


def trellis_document(rows, n: int) -> dict:
    """Conventional trellis of the GF(2) code spanned by `rows`, by the
    product construction: each row carries one Z_2 state coordinate across
    every cut its support interval spans.  No minimality is attempted.

    Symbols are a0..a(n-1); state s_t sits on the cut between a(t-1) and
    a(t); section c_t constrains (s_t, a_t, s_(t+1)).
    """
    spans = []
    for row in rows:
        nz = [t for t in range(n) if row[t] % 2]
        spans.append((min(nz), max(nz)) if nz else None)

    def active(t: int) -> list[int]:
        return [i for i, sp in enumerate(spans) if sp and sp[0] < t <= sp[1]]

    alphabets = {"A0": dict(GF2)}
    names: dict[tuple, str] = {}

    def state_alphabet(width: int) -> str:
        key = (2,) * width
        if key not in names:
            names[key] = f"A{len(alphabets)}"
            alphabets[names[key]] = {"cyclic": list(key)}
        return names[key]

    states = [{"id": f"s{t}", "alphabet": state_alphabet(len(active(t)))}
              for t in range(1, n)]
    constraints = []
    for t in range(n):
        vars_ = ([f"s{t}"] if t > 0 else []) + [f"a{t}"] + \
                ([f"s{t + 1}"] if t < n - 1 else [])
        inn = active(t) if t > 0 else []
        out = active(t + 1) if t < n - 1 else []
        gens = []
        for i, sp in enumerate(spans):
            if not sp or not sp[0] <= t <= sp[1]:
                continue
            gen = [int(i == a) for a in inn] + [rows[i][t] % 2] + \
                  [int(i == b) for b in out]
            gens.append(gen)
        constraints.append({"id": f"c{t}", "vars": vars_, "generators": gens})
    return {
        "alphabets": alphabets,
        "symbols": [{"id": f"a{t}", "alphabet": "A0"} for t in range(n)],
        "states": states,
        "constraints": constraints,
    }


def decimal_priors(rng: random.Random, labels, orders) -> dict:
    """Positive decimal weights with two digits, readable exactly."""
    return {lab: [f"{rng.randrange(1, 100) / 100:.2f}" for _ in range(q)]
            for lab, q in zip(labels, orders)}


def trellis_workload(seed: int, n: int = 14, k: int = 7) -> Workload:
    rng = random.Random(f"trellis/{seed}/{n}/{k}")
    rows = fixed_profile_rows(rng, n, k)
    priors = decimal_priors(rng, [f"a{t}" for t in range(n)], [2] * n)
    priors_doc = {lab: [float(w) for w in ws] for lab, ws in priors.items()}
    return Workload("trellis", trellis_document(rows, n), priors_doc,
                    {"rows": rows, "n": n, "priors": priors})


# -- LDPC Tanner graph -----------------------------------------------------------


def regular_check_matrix(rng: random.Random, n: int, col_weight: int,
                         row_weight: int) -> list[list[int]]:
    """(col_weight, row_weight)-regular GF(2) check matrix without repeated
    entries and with a connected Tanner graph, by seeded socket matching with
    repeated entries swapped away (no rejection, so the cost is steady)."""
    m = n * col_weight // row_weight
    while True:
        sockets = [j for j in range(n) for _ in range(col_weight)]
        rng.shuffle(sockets)
        checks = [sockets[i * row_weight:(i + 1) * row_weight] for i in range(m)]
        for i in range(m):
            # swap a repeated symbol with a random socket of another check
            while len(set(checks[i])) != row_weight:
                pos = next(p for p, v in enumerate(checks[i])
                           if checks[i].index(v) != p)
                k, q = rng.randrange(m), rng.randrange(row_weight)
                a, b = checks[i][pos], checks[k][q]
                if k != i and b not in checks[i] and a not in checks[k]:
                    checks[i][pos], checks[k][q] = b, a
        h = [[0] * n for _ in range(m)]
        for i, c in enumerate(checks):
            for j in c:
                h[i][j] = 1
        if _tanner_connected(h):
            return h


def _tanner_connected(h) -> bool:
    m, n = len(h), len(h[0])
    cols = [[i for i in range(m) if h[i][j]] for j in range(n)]
    seen_c, seen_v = {0}, set()
    stack = [("c", 0)]
    while stack:
        kind, x = stack.pop()
        if kind == "c":
            for j in range(n):
                if h[x][j] and j not in seen_v:
                    seen_v.add(j)
                    stack.append(("v", j))
        else:
            for i in cols[x]:
                if i not in seen_c:
                    seen_c.add(i)
                    stack.append(("c", i))
    return len(seen_c) == m and len(seen_v) == n


def tanner_document(h) -> dict:
    """Normal graph of ker H: one zero-sum node h_i per check, one equality
    node e_j per symbol joining a_j to the edges x{i}_{j} of its checks."""
    m, n = len(h), len(h[0])
    constraints = []
    states = []
    for i in range(m):
        support = [j for j in range(n) if h[i][j]]
        d = len(support)
        gens = []
        for t in range(d - 1):
            g = [0] * d
            g[t] = g[d - 1] = 1
            gens.append(g)
        constraints.append({"id": f"h{i}",
                            "vars": [f"x{i}_{j}" for j in support],
                            "generators": gens})
        states.extend({"id": f"x{i}_{j}", "alphabet": "A0"} for j in support)
    for j in range(n):
        checks = [i for i in range(m) if h[i][j]]
        constraints.append({"id": f"e{j}",
                            "vars": [f"a{j}"] + [f"x{i}_{j}" for i in checks],
                            "generators": [[1] * (len(checks) + 1)]})
    return {
        "alphabets": {"A0": dict(GF2)},
        "symbols": [{"id": f"a{j}", "alphabet": "A0"} for j in range(n)],
        "states": states,
        "constraints": constraints,
    }


def bsc_priors(rng: random.Random, n: int, p: float) -> dict:
    """Priors for the all-zero word sent over a BSC(p)."""
    received = [int(rng.random() < p) for _ in range(n)]
    good, bad = round(1 - p, 6), round(p, 6)
    return {f"a{j}": ([good, bad] if y == 0 else [bad, good])
            for j, y in enumerate(received)}


def ldpc_workload(seed: int, n: int = 192, p: float = 0.04) -> Workload:
    rng = random.Random(f"ldpc/{seed}/{n}")
    h = regular_check_matrix(rng, n, 3, 6)
    priors = bsc_priors(rng, n, p)
    return Workload("ldpc", tanner_document(h), priors, {"h": h})


# -- tail-biting ring over mixed group alphabets -----------------------------------


def _units(m: int) -> list[int]:
    return [u for u in range(1, m) if math.gcd(u, m) == 1]


def ring_document(rng: random.Random, n: int) -> dict:
    """Tail-biting ring: section c_t constrains (s_t, a_t, s_(t+1 mod n)).

    Edge s_t has alphabet GF(3), Z_4 or Z_12 by t mod 3 and symbol a_t the
    next one, so sections mix moduli (lifted modulus 12).  Each section code
    is spanned by two random rows, redrawn until its order is |S_t| |A_t|,
    and every odd edge carries a random non-identity unit automorphism (an
    iso label).  Alphabets and code orders are fixed so that the amount of
    work does not depend on the seed.
    """
    pool = ("GF3", "Z4", "Z12")
    state_alpha = [pool[t % 3] for t in range(n)]
    sym_alpha = [pool[(t + 1) % 3] for t in range(n)]
    states = []
    for t in range(n):
        entry = {"id": f"s{t}", "alphabet": state_alpha[t]}
        if t % 2:
            (mod,) = alphabet_moduli(RING_ALPHABETS[state_alpha[t]])
            entry["iso"] = [[rng.choice(_units(mod)[1:])]]
        states.append(entry)
    constraints = []
    for t in range(n):
        slots = [state_alpha[t], sym_alpha[t], state_alpha[(t + 1) % n]]
        moduli = [alphabet_moduli(RING_ALPHABETS[a])[0] for a in slots]
        while True:
            rows = [[rng.randrange(mod) for mod in moduli] for _ in range(2)]
            if len(close_rows(rows, moduli)) == moduli[0] * moduli[1]:
                break
        constraints.append({"id": f"c{t}",
                            "vars": [f"s{t}", f"a{t}", f"s{(t + 1) % n}"],
                            "generators": rows})
    return {
        "alphabets": {name: dict(a) for name, a in RING_ALPHABETS.items()},
        "symbols": [{"id": f"a{t}", "alphabet": sym_alpha[t]} for t in range(n)],
        "states": states,
        "constraints": constraints,
    }


def ring_workload(seed: int, n: int = 16) -> Workload:
    rng = random.Random(f"ring/{seed}/{n}")
    doc = ring_document(rng, n)
    alpha = doc["alphabets"]
    labels = [s["id"] for s in doc["symbols"]]
    orders = [math.prod(alphabet_moduli(alpha[s["alphabet"]]))
              for s in doc["symbols"]]
    priors = decimal_priors(rng, labels, orders)
    priors_doc = {lab: [float(w) for w in ws] for lab, ws in priors.items()}
    return Workload("ring", doc, priors_doc)


GENERATORS = {
    "trellis": trellis_workload,
    "ldpc": ldpc_workload,
    "ring": ring_workload,
}
