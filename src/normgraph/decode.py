"""Sum-product decoding on normal graphs.

Exact two-pass decoding on cycle-free realizations (provably the
a-posteriori marginals), iterative decoding with flooding or serial
schedules on cyclic ones.  Cycle-free leaf fragments hanging off the 2-core
are pre-solved once and their boundary messages held constant.  Two
arithmetic modes: exact rationals and floats with per-message
normalization.

A decode compiles each constraint once, after checking every code's order
against the enumeration cap, into a table holding each codeword as its
per-slot alphabet indices.  One pass over a table sends any set of a node's
messages: a flooding sweep sends all of them at once, a serial step or a
tree message one.  Each product is folded in slot order, exactly as a
separate loop per target folds it, so float results do not depend on how
many targets share the pass.  Messages are weight lists inside the engine;
an iso edge permutes them by index tables built once from the isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .alphabets import ENUMERATION_CAP, Alphabet, Element, sort_key
from .errors import MissingIncoming, NotCycleFree, TooLargeToEnumerate
from .graphcore import cyclomatic_number, two_core_constraints
from .realization import Realization
from .subgroups import CodeSubgroup, QuotientMap


@dataclass(frozen=True)
class Message:
    """Nonnegative weights indexed by the canonical alphabet enumeration."""

    alphabet: Alphabet
    weights: tuple

    def __post_init__(self):
        if len(self.weights) != self.alphabet.order:
            raise ValueError("weight vector length must equal the alphabet order")
        if any(w < 0 for w in self.weights):
            raise ValueError("message weights must be nonnegative")

    @property
    def total(self):
        return sum(self.weights)

    @property
    def is_zero(self) -> bool:
        return all(w == 0 for w in self.weights)

    def normalized(self) -> "Message":
        t = self.total
        if t == 0:
            return self
        return Message(self.alphabet, tuple(w / t for w in self.weights))

    def weight_of(self, value: Element):
        return self.weights[self.alphabet.index(value)]


def uniform_message(alpha: Alphabet, exact: bool = True) -> Message:
    one = Fraction(1) if exact else 1.0
    return Message(alpha, (one,) * alpha.order)


def indicator_message(alpha: Alphabet, value: Element, exact: bool = True) -> Message:
    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
    w = [zero] * alpha.order
    w[alpha.index(value)] = one
    return Message(alpha, tuple(w))


PriorSet = dict[str, Message]


def full_priors(r: Realization, priors: Mapping[str, Message] | None,
                exact: bool = True) -> PriorSet:
    """Priors for every symbol; unspecified symbols get uniform weights."""
    out: PriorSet = {}
    for k, alpha in r.symbols.items():
        if priors is not None and k in priors:
            m = priors[k]
            if m.alphabet.moduli != alpha.moduli:
                raise ValueError(f"prior for {k!r} is over {m.alphabet!r}, "
                                 f"the symbol over {alpha!r}")
            out[k] = m
        else:
            out[k] = uniform_message(alpha, exact)
    return out


def _index_table(code: CodeSubgroup, alphabets, cap: int) -> list[tuple[int, ...]]:
    """Each codeword as the tuple of its per-slot alphabet indices."""
    spans = [code.ambient.span(lab) for lab in code.ambient.labels]
    return [tuple(alpha.index(word[a:b]) for alpha, (a, b) in zip(alphabets, spans))
            for word in code.elements(cap)]


def _sweep(table, incoming, targets, sizes, one) -> list[list]:
    """One pass over a compiled constraint: the outgoing weights at each of
    the ascending target slots, whose alphabet orders are `sizes`.

    For target t each codeword adds the product of the incoming weights at
    the other slots, folded left in slot order: a running prefix over slots
    before t, continued over the slots after it, and dropped as soon as it
    is zero.  A sole target's own incoming entry is never read.
    """
    outs = [[one - one] * n for n in sizes]
    jobs = [(t, range(t + 1, len(incoming)), out) for t, out in zip(targets, outs)]
    for row in table:
        prefix, s = one, 0
        for t, rest, out in jobs:
            while s < t and prefix != 0:
                prefix *= incoming[s][row[s]]
                s += 1
            if prefix == 0:
                break
            w = prefix
            for i in rest:
                w *= incoming[i][row[i]]
                if w == 0:
                    break
            else:
                out[row[t]] += w
    return outs


def sp_update(code: CodeSubgroup, incoming: Mapping, target, exact: bool = True,
              cap: int = ENUMERATION_CAP) -> Message:
    """Sum-product update: out(v) = sum over codewords matching v of the
    product of incoming weights at the other coordinates."""
    amb = code.ambient
    target_alpha = amb.alphabet(target)
    for lab in amb.labels:
        if lab != target and lab not in incoming:
            raise MissingIncoming(f"no incoming message for {lab!r}")
    if code.order > cap:
        raise TooLargeToEnumerate("constraint code too large for sum-product")
    t = amb.labels.index(target)
    msgs = [None if lab == target else incoming[lab] for lab in amb.labels]
    alphas = [target_alpha if m is None else m.alphabet for m in msgs]
    out, = _sweep(_index_table(code, alphas, cap),
                  [None if m is None else m.weights for m in msgs], [t],
                  [target_alpha.order], Fraction(1) if exact else 1.0)
    return Message(target_alpha, tuple(out))


@dataclass
class DecodeResult:
    symbol_marginals: dict[str, Message]
    state_marginals: dict[str, Message]
    contradiction: bool


@dataclass
class ConvergenceReport:
    iterations: int
    deltas: list[float]
    converged: bool
    contradiction: bool


def _normalized(ws: list) -> list:
    t = sum(ws)
    return ws if t == 0 else [w / t for w in ws]


class _Passer:
    """Message passing over one realization, on constraint tables compiled
    once.

    Messages are plain weight lists.  msgs[(cl, j)] is what constraint cl
    sends along edge j, in cl's own coordinates; msgs[(None, v)] is the
    evidence on a symbol (its prior) or on a boundary half-edge (flat).
    inputs[cl][i] = (key, perm) names the message slot i of cl reads; perm
    carries it across an iso edge whose other end is on the other side.
    slot[(cl, v)] is the slot of variable v in constraint cl.
    """

    def __init__(self, r: Realization, priors: PriorSet, exact: bool):
        r.require_valid()
        self.r = r
        self.exact = exact
        self.one = one = Fraction(1) if exact else 1.0
        self.edges = [j for j in r.internal_states() if len(r.slots[j]) == 2]
        for j in self.edges:
            (tc, _), (hc, _) = r.slots[j]
            if tc == hc:
                raise NotCycleFree(
                    f"self-loop edge {j!r}: decode does not support self-loops")
        cap = ENUMERATION_CAP
        for cl, con in r.constraints.items():
            if con.code.order > cap:
                raise TooLargeToEnumerate(
                    f"constraint {cl!r} has {con.code.order} codewords, over the "
                    f"sum-product cap {cap}")
        self.msgs: dict[tuple, list] = {(None, k): list(m.weights)
                                        for k, m in priors.items()}
        for b in r.boundary:
            self.msgs[(None, b)] = [one] * r.states[b].alphabet.order
        # forward[i] = index of iso(element i); inverse inverts that list
        self.forward, inverse = {}, {}
        for j in self.edges:
            alpha, iso = r.states[j].alphabet, r.states[j].iso
            if iso is not None:
                fwd = [alpha.index(iso.apply(alpha.element_at(i)))
                       for i in range(alpha.order)]
                inverse[j] = [0] * alpha.order
                for i, k in enumerate(fwd):
                    inverse[j][k] = i
                self.forward[j] = fwd
        self.tables, self.alphabets, self.inputs, self.slot = {}, {}, {}, {}
        for cl, con in r.constraints.items():
            alphas = [alpha for _, alpha in con.code.ambient.factors]
            self.alphabets[cl] = alphas
            self.tables[cl] = _index_table(con.code, alphas, cap)
            inputs = []
            for i, v in enumerate(con.vars):
                self.slot[(cl, v)] = i
                if (None, v) in self.msgs:
                    inputs.append(((None, v), None))
                else:
                    (tc, _), (hc, _) = r.slots[v]
                    inputs.append(((hc, v), self.forward.get(v)) if cl == tc
                                  else ((tc, v), inverse.get(v)))
            self.inputs[cl] = inputs

    def outgoing(self, cl: str, slots: list[int]) -> list[list]:
        """Unnormalized messages out of cl at the ascending slots, from
        the current msgs, in one pass over cl's table."""
        msgs, sole = self.msgs, slots[0] if len(slots) == 1 else None
        incoming = [None if i == sole else
                    msgs[key] if perm is None else [msgs[key][k] for k in perm]
                    for i, (key, perm) in enumerate(self.inputs[cl])]
        return _sweep(self.tables[cl], incoming, slots,
                      [self.alphabets[cl][i].order for i in slots], self.one)

    def emit(self, cl: str, slots: list[int]) -> list[list]:
        """Messages out of cl at the ascending slots, normalized in float mode."""
        outs = self.outgoing(cl, slots)
        return outs if self.exact else [_normalized(w) for w in outs]

    def tree_message(self, cl: str, j: str) -> list:
        """Exact message on a tree region (memoized): every message it
        depends on is emitted first, in post-order on an explicit stack, so
        a long tree needs no recursion."""
        stack = [((cl, j), False)]
        while stack:
            key, ready = stack.pop()
            if key in self.msgs:
                continue
            if ready:
                self.msgs[key], = self.emit(key[0], [self.slot[key]])
                continue
            stack.append((key, True))
            stack.extend((src, False) for src, _ in reversed(self.inputs[key[0]])
                         if src[0] is not None and src[1] != key[1])
        return self.msgs[(cl, j)]

    def result(self) -> DecodeResult:
        r, sym = self.r, {}
        for cl, con in r.constraints.items():
            slots = [i for i, v in enumerate(con.vars) if v in r.symbols]
            if slots:
                for i, w in zip(slots, self.outgoing(cl, slots)):
                    prior = self.msgs[(None, con.vars[i])]
                    sym[con.vars[i]] = Message(self.alphabets[cl][i], tuple(
                        a * b for a, b in zip(w, prior))).normalized()
        st = {}
        for j in sorted(self.edges, key=sort_key):
            (tc, ts), (hc, _) = r.slots[j]
            head = self.msgs[(hc, j)]
            if j in self.forward:
                head = [head[k] for k in self.forward[j]]
            st[j] = Message(self.alphabets[tc][ts], tuple(
                a * b for a, b in zip(self.msgs[(tc, j)], head))).normalized()
        sym = {k: sym[k] for k in sorted(r.symbols, key=sort_key)}
        contradiction = any(m.is_zero for m in sym.values())
        return DecodeResult(sym, st, contradiction)


def decode_exact(r: Realization, priors: Mapping[str, Message] | None = None,
                 exact: bool = True) -> DecodeResult:
    """Two-pass sum-product on a cycle-free realization: exact marginals."""
    if cyclomatic_number(r) != 0 or not r.is_connected:
        raise NotCycleFree("exact decoding requires a connected cycle-free graph")
    passer = _Passer(r, full_priors(r, priors, exact), exact)
    for j in passer.edges:
        (tc, _), (hc, _) = r.slots[j]
        passer.tree_message(tc, j)
        passer.tree_message(hc, j)
    return passer.result()


def decode_iterative(r: Realization, priors: Mapping[str, Message] | None = None,
                     max_iters: int = 100, schedule: str = "flooding",
                     damping: float = 0.0, tol: float = 1e-8,
                     exact: bool = False) -> tuple[DecodeResult, ConvergenceReport]:
    """Iterative sum-product; leaf fragments are pre-solved exactly once.

    On a cycle-free input this reduces to the exact two-pass schedule.
    Non-convergence is reported, never raised.
    """
    if schedule not in ("flooding", "serial"):
        raise ValueError("schedule must be 'flooding' or 'serial'")
    if not 0 <= damping < 1:
        raise ValueError("damping must lie in [0, 1)")
    if cyclomatic_number(r) == 0 and r.is_connected:
        res = decode_exact(r, priors, exact)
        return res, ConvergenceReport(1, [0.0], True, res.contradiction)

    passer = _Passer(r, full_priors(r, priors, exact), exact)
    core = two_core_constraints(r)
    core_edges = [j for j in passer.edges
                  if all(cl in core for cl, _ in r.slots[j])]
    # messages pointing toward the core through the stripped forest are
    # computed once, exactly
    adj = r.neighbors()
    for j in passer.edges:
        if j in core_edges:
            continue
        (tc, _), (hc, _) = r.slots[j]
        # the message comes from the side away from the core
        passer.tree_message(hc if _points_coreward(adj, core, tc, hc) else tc, j)
    # iterate on the core
    for j in core_edges:
        for cl, _ in r.slots[j]:
            passer.msgs[(cl, j)] = [passer.one] * r.states[j].alphabet.order
    deltas: list[float] = []
    converged = False
    directed = sorted(((cl, j) for j in core_edges for cl, _ in r.slots[j]),
                      key=lambda t: (sort_key(t[1]), sort_key(t[0])))
    # a flooding sweep sends all of a node's core-edge messages from one pass
    sweep: dict[str, list[tuple[str, str]]] = {}
    for key in sorted(directed, key=passer.slot.__getitem__):
        sweep.setdefault(key[0], []).append(key)
    plan = [(cl, [passer.slot[k] for k in keys], keys) for cl, keys in sweep.items()]
    damp = Fraction(str(damping)) if exact else damping
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        delta = 0.0
        if schedule == "flooding":
            new = {}
            for cl, slots, keys in plan:
                new.update(zip(keys, passer.emit(cl, slots)))
        for key in directed:
            m = (new[key] if schedule == "flooding"
                 else passer.emit(key[0], [passer.slot[key]])[0])
            old = passer.msgs[key]
            if damping:
                m = [(1 - damp) * a + damp * b for a, b in zip(m, old)]
            delta = max(delta, _message_delta(old, m))
            passer.msgs[key] = m
        deltas.append(delta)
        if delta < tol:
            converged = True
            break
    # fill outward messages into the stripped forest for final marginals
    for j in passer.edges:
        for cl, _ in r.slots[j]:
            passer.tree_message(cl, j)
    res = passer.result()
    return res, ConvergenceReport(iterations, deltas, converged,
                                  res.contradiction)


def _points_coreward(adj: dict, core: set[str], toward: str, away: str) -> bool:
    """True if `toward` is on the core side of the edge between these two."""
    # walk from `toward` without using `away`: reachable core?
    seen = {away, toward}
    stack = [toward]
    while stack:
        c = stack.pop()
        if c in core:
            return True
        for _, o in adj[c]:
            if o not in seen:
                seen.add(o)
                stack.append(o)
    return False


def _message_delta(a: list, b: list) -> float:
    return max(abs(float(x) - float(y))
               for x, y in zip(_normalized(a), _normalized(b)))


def brute_force_app(r: Realization, priors: Mapping[str, Message] | None = None,
                    exact: bool = True, cap: int = 2**20) -> DecodeResult:
    """Exhaustive a-posteriori marginals over the full behavior (oracle)."""
    pri = full_priors(r, priors, exact)
    zero = Fraction(0) if exact else 0.0
    syms = sorted(r.symbols, key=sort_key)
    edges = sorted((j for j in r.internal_states() if len(r.slots[j]) == 2),
                   key=sort_key)
    acc_sym = {k: [zero] * r.symbols[k].order for k in syms}
    acc_st = {j: [zero] * r.states[j].alphabet.order for j in edges}
    for config in r.enumerate_behavior(cap):
        w = Fraction(1) if exact else 1.0
        for k in syms:
            w *= pri[k].weights[r.symbols[k].index(config[k])]
        if w == 0:
            continue
        for k in syms:
            acc_sym[k][r.symbols[k].index(config[k])] += w
        for j in edges:
            acc_st[j][r.states[j].alphabet.index(config[j])] += w
    sym = {k: Message(r.symbols[k], tuple(acc_sym[k])).normalized() for k in syms}
    st = {j: Message(r.states[j].alphabet, tuple(acc_st[j])).normalized()
          for j in edges}
    contradiction = any(m.is_zero for m in sym.values())
    return DecodeResult(sym, st, contradiction)


# -- message trimming and merging ------------------------------------------------


@dataclass
class ReducedMessage:
    """A message collapsed onto the cosets of a constraint's cross-section."""

    quotient: QuotientMap        # (C|V) / (C:V)
    trimmed: CodeSubgroup        # C|V
    message: Message             # over the quotient alphabet


def message_reduce(code: CodeSubgroup, variable, msg: Message) -> ReducedMessage:
    """Trim weights to C|V and merge them over cosets of C:V."""
    trimmed = code.project([variable])
    nondyn = code.cross_section([variable])
    quot = trimmed.quotient_by(nondyn)
    zero = Fraction(0) if isinstance(msg.weights[0], Fraction) else 0.0
    acc = [zero] * quot.alphabet.order
    for v in trimmed.elements():
        acc[quot.alphabet.index(quot.project(v))] += msg.weight_of(v)
    return ReducedMessage(quot, trimmed, Message(quot.alphabet, tuple(acc)))


def message_expand(reduced: ReducedMessage, alpha: Alphabet,
                   exact: bool = True) -> Message:
    """Spread each coset weight evenly over its members; zero outside C|V."""
    zero = Fraction(0) if exact else 0.0
    w = [zero] * alpha.order
    coset_size = reduced.trimmed.order // reduced.quotient.alphabet.order
    for v in reduced.trimmed.elements():
        q = reduced.quotient.project(v)
        share = reduced.message.weight_of(q) / coset_size
        w[alpha.index(v)] = share
    return Message(alpha, tuple(w))
