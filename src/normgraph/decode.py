"""Sum-product decoding on normal graphs.

Exact two-pass decoding on cycle-free realizations (provably the
a-posteriori marginals), iterative decoding with flooding or serial
schedules on cyclic ones.  Both follow `Realization.peel`: the stripped
forest's messages are sent once inward, leaf by leaf along the edge each
hung by, and once outward in reverse; a 2-core iterates in between.  Two
arithmetic modes: exact and floats with per-message normalization.  Exact
tree decoding runs on integers and normalizes once into `Fraction`s; exact
iterative decoding on cyclic graphs damps unnormalized `Fraction` messages.

A decode compiles each distinct local code once, after checking every
code's order against the enumeration cap, into a table of each codeword's
per-slot alphabet indices, folded from the span's coordinate columns
without building a codeword; constraints with the same rows over the same
slot moduli share it.  Messages are weight lists in one flat store,
numbered once per decode; an iso edge permutes them by index tables built
once from the isomorphism.  One pass over a table sends any set of a node's
messages: a flooding sweep sends all of them at once, a serial step or a
tree message one.  The pass is a kernel generated once per node shape
(degree, targets) that reads its inputs from the store by id, permuting
across iso edges, and runs the row loop unrolled over the slots.  Each
product is folded in slot order, exactly as a separate loop per target
folds it, so float results do not depend on how many targets share the
pass.  Sweeps, tree passes and marginals run the same passes on the store.
A sweep hands each message to an epilogue generated once per (alphabet
order, exact, damped) that normalizes, damps, stores and takes the change
of the message's entries as locals, with the loop's own arithmetic.

Message weights are finite.  The kernels rely on it: a product that turns
zero is added as a zero instead of skipped, and a float marginal that
overflows raises `WeightOverflow` instead of coming back as NaN.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from operator import itemgetter

from ._records import record
from .alphabets import ENUMERATION_CAP, Alphabet, Element, sort_key
from .errors import (
    MissingIncoming,
    NotCycleFree,
    TooLargeToEnumerate,
    WeightOverflow,
)
from .graphcore import cyclomatic_number
from .realization import Realization
from .subgroups import CodeSubgroup, QuotientMap


@record(frozen=True)
class Message:
    """Finite nonnegative weights indexed by the canonical alphabet
    enumeration."""

    alphabet: Alphabet
    weights: tuple

    def __post_init__(self):
        if len(self.weights) != self.alphabet.order:
            raise ValueError("weight vector length must equal the alphabet order")
        if any(w < 0 for w in self.weights):
            raise ValueError("message weights must be nonnegative")
        if not all(w < math.inf for w in self.weights):
            raise ValueError("message weights must be finite")

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


def _unit(exact: bool):
    """The weight 1: a `Fraction` in exact mode, a float otherwise.  Only
    what makes a `Fraction` imports `fractions` (with `decimal`), so a
    command that does not decode never loads it."""
    if not exact:
        return 1.0
    from fractions import Fraction
    return Fraction(1)


def uniform_message(alpha: Alphabet, exact: bool = True) -> Message:
    return Message(alpha, (_unit(exact),) * alpha.order)


def indicator_message(alpha: Alphabet, value: Element, exact: bool = True) -> Message:
    one = _unit(exact)
    zero = one - one
    w = [zero] * alpha.order
    w[alpha.index(value)] = one
    return Message(alpha, tuple(w))


PriorSet = dict[str, Message]


def full_priors(r: Realization, priors: Mapping[str, Message] | None,
                exact: bool = True) -> PriorSet:
    """Priors for every symbol; unspecified symbols get uniform weights."""
    out: PriorSet = {}
    one = _unit(exact)
    for k, alpha in r.symbols.items():
        if priors is not None and k in priors:
            m = priors[k]
            if m.alphabet.moduli != alpha.moduli:
                raise ValueError(f"prior for {k!r} is over {m.alphabet!r}, "
                                 f"the symbol over {alpha!r}")
            out[k] = m
        else:
            out[k] = Message(alpha, (one,) * alpha.order)
    return out


def _index_table(code: CodeSubgroup, alphabets, cap: int) -> list[tuple[int, ...]]:
    """Each codeword's per-slot alphabet indices, in `code.elements()` order,
    folded from the span's coordinate columns; no codeword is built."""
    columns, slots = code.columns(cap), []
    for alpha in alphabets:
        u = next(columns) if alpha.moduli else [0] * code.order
        for m in alpha.moduli[1:]:
            u = [a * m + y for a, y in zip(u, next(columns))]
        slots.append(u)
    del columns                 # frees the last column before the table is built
    return list(zip(*slots)) if slots else [()]


# factors per generated expression, well under the compiler's nesting limit
_FOLD = 32
# above this degree a suffix product is a loop, and above this alphabet order
# an epilogue's entries are a list, so the source grows linearly
_UNROLL = 64


def _kernel_source(degree: int, targets: tuple[int, ...]) -> str:
    unrolled, row = degree <= _UNROLL, "".join(f"r{i}, " for i in range(degree))
    sole = targets[0] if len(targets) == 1 else None
    got = [s for s in range(degree) if s != sole]
    ins = "".join(f"i{s}, " for s in got)
    lines = ["def kernel(table, read, inputs, sizes, one):", "    ("
             + "".join("_, " if s == sole else f"n{s}, " for s in range(degree))
             + "), perms = inputs"]
    if got:
        lines += [f"    {ins}= " + "".join(f"read[n{s}], " for s in got), "    if perms:",
                  f"        {ins}= " + "".join(f"perms[{s}](i{s}), " for s in got)]
    if not unrolled:
        lines += ["    incoming = [" + "".join("None, " if s == sole else f"i{s}, "
                                         for s in range(degree)) + "]"]
    lines += ["    zero = one - one"]
    lines += [f"    o{t} = [zero] * sizes[{k}]" for k, t in enumerate(targets)]
    lines += ([f"    for {row}in table:"] if unrolled else
              ["    for row in table:", f"        {row}= row"])
    prefix, s = "one", 0
    for t in targets:
        while s < t:
            lines += [f"        p = {prefix} * i{s}[r{s}]",
                      "        if not p: continue"]
            prefix, s = "p", s + 1
        if not unrolled:
            lines += [f"        w = {prefix}",
                      f"        for k in range({t + 1}, {degree}): "
                      f"w = w * incoming[k][row[k]]",
                      f"        o{t}[r{t}] += w"]
            continue
        factors = [prefix] + [f"i{i}[r{i}]" for i in range(t + 1, degree)]
        while len(factors) > _FOLD:
            lines.append("        w = " + " * ".join(factors[:_FOLD]))
            factors[:_FOLD] = ["w"]
        lines.append(f"        o{t}[r{t}] += " + " * ".join(factors))
    return "\n".join(lines + ["    return (" + "".join(f"o{t}, " for t in targets) + ")"])


@functools.lru_cache(maxsize=512)
def _kernel(degree: int, targets: tuple[int, ...]):
    """The table pass of a degree-`degree` node to the ascending `targets`,
    compiled: kernel(table, read, inputs, sizes, one) returns the messages
    to the targets, of orders `sizes`, from the messages in the store `read`.

    With inputs = (ids, perms), slot s reads read[ids[s]], or
    perms[s](read[ids[s]]) when perms is not None: each perms[s] carries a
    message across an iso edge, or copies it; a sole target's own input is
    never read.  Each row unpacks into locals r0..r{d-1}.  A running prefix
    starts at `one` and is extended slot by slot up to each target; the row
    is left as soon as the prefix is zero.  Target t adds prefix *
    i{t+1}[r{t+1}] * ... * i{d-1}[r{d-1}], folded left, so every product and
    sum is the one the loop over slots makes; above degree `_UNROLL` that
    suffix is such a loop.  A product that turns zero in the suffix is added
    as a zero instead of skipped, which changes nothing for finite weights.
    The source (`_kernel_source`) holds only slot indices.
    """
    namespace: dict = {}
    exec(compile(_kernel_source(degree, targets), f"<kernel {degree} {targets}>",
                 "exec"), namespace)
    return namespace["kernel"]


def _epilogue_source(order: int, exact: bool, damped: bool) -> str:
    unrolled = order <= _UNROLL

    def names(v: str) -> str:           # the entries as locals, or one starred list
        return "".join(f"{v}{k}, " for k in range(order)) if unrolled else f"*{v}, "

    def each(indent: str, *statements: str) -> list[str]:
        """The statements on entry {0}: a copy per entry, or one loop."""
        if unrolled:
            return [indent + line.format(k) for k in range(order) for line in statements]
        return [f"{indent}for k in range({order}):",
                *(f"{indent}    " + line.format("[k]") for line in statements)]
    lines = ["def epilogue(m, i, read, write, normed, keep, damp, delta):",
             f"    {names('x')}= m"]
    if not exact:
        lines += ["    t = sum(m)", "    if t != 0 and t != 1:",
                  *each("        ", "x{0} = x{0} / t"), f"        m = [{names('x')}]"]
    if damped:
        lines += [f"    {names('r')}= read[i]", *each("    ", "x{0} = keep * x{0} + damp * r{0}"),
                  f"    m = [{names('x')}]"]
    lines += ["    write[i] = m", "    t = sum(m)", "    if not (t == 0 or t == 1):",
              *each("        ", "x{0} = x{0} / t")]
    if exact:
        lines += each("    ", "x{0} = float(x{0})")
    lines += [f"    {names('o')}= normed[i]", f"    normed[i] = [{names('x')}]",
              *each("    ", "d = abs(o{0} - x{0})", "if d > delta: delta = d")]
    return "\n".join(lines + ["    return delta"])


@functools.lru_cache(maxsize=64)
def _epilogue(order: int, exact: bool, damped: bool):
    """What a sweep does with each message it sends, compiled per alphabet
    order: epilogue(m, i, read, write, normed, keep, damp, delta)
    normalizes the kernel's list `m` in float mode, damps it toward read[i]
    (keep = 1 - damp) and stores it in write[i]; normalizes that again, in
    floats, into normed[i]; and returns the largest of `delta` and the
    changes from the old normed[i].  Entries are locals x0..x{order-1}
    (above order `_UNROLL`, list entries in one loop); every product,
    quotient and comparison is the loop's, and totals are builtin `sum`s of
    the list.
    """
    namespace: dict = {}
    exec(compile(_epilogue_source(order, exact, damped),
                 f"<epilogue {order} {exact} {damped}>", "exec"), namespace)
    return namespace["epilogue"]


def _sweep(table, incoming, targets, sizes, one) -> list[list]:
    """One pass over a compiled constraint: the outgoing weights at each of
    the ascending target slots, whose alphabet orders are `sizes`.  A sole
    target's own incoming entry is never read."""
    kernel = _kernel(len(incoming), tuple(targets))
    return list(kernel(table, incoming, (range(len(incoming)), None), sizes, one))


def sp_update(code: CodeSubgroup, incoming: Mapping, target, exact: bool = True) -> Message:
    """Sum-product update: out(v) = sum over codewords matching v of the
    product of incoming weights at the other coordinates."""
    amb = code.ambient
    target_alpha = amb.alphabet(target)
    for lab in amb.labels:
        if lab != target and lab not in incoming:
            raise MissingIncoming(f"no incoming message for {lab!r}")
    if code.order > ENUMERATION_CAP:
        raise TooLargeToEnumerate("constraint code too large for sum-product")
    t = amb.labels.index(target)
    msgs = [None if lab == target else incoming[lab] for lab in amb.labels]
    alphas = [target_alpha if m is None else m.alphabet for m in msgs]
    out, = _sweep(_index_table(code, alphas, ENUMERATION_CAP),
                  [None if m is None else m.weights for m in msgs], [t],
                  [target_alpha.order], _unit(exact))
    return Message(target_alpha, tuple(out))


@record
class DecodeResult:
    symbol_marginals: dict[str, Message]
    state_marginals: dict[str, Message]
    contradiction: bool


@record
class ConvergenceReport:
    iterations: int
    deltas: list[float]
    converged: bool
    contradiction: bool


def _normalized(ws: list) -> list:
    t = sum(ws)
    # dividing by a total of 1 would change no bit
    return ws if t == 0 or t == 1 else [w / t for w in ws]


def _integer_priors(priors: PriorSet) -> PriorSet:
    """Each prior's weights times one positive constant: coprime integers."""
    from fractions import Fraction
    out = {}
    for k, m in priors.items():
        fs = [Fraction(w) for w in m.weights]
        scale = math.lcm(*(f.denominator for f in fs))
        ints = [f.numerator * (scale // f.denominator) for f in fs]
        g = math.gcd(*ints)
        out[k] = Message(m.alphabet, tuple(x // g for x in ints) if g else tuple(ints))
    return out


def _marginal(var: str, alpha: Alphabet, a: list, b: list, fraction) -> Message:
    """The normalized product of the two messages meeting at `var`; integer
    weights are normalized into `fraction`s (the `Fraction` class, which
    exact decoding passes in).  Sums of products of validated weights need
    no re-validation: only a float overflow is checked."""
    w = tuple(x * y for x, y in zip(a, b))
    t = sum(w)
    if isinstance(t, int):
        w = tuple(fraction(x, t or 1) for x in w)
    elif isinstance(t, float) and not all(x < math.inf for x in w):
        raise WeightOverflow(f"float weights overflowed in the marginal of {var!r}; "
                             f"scale the priors down")
    elif t:
        w = tuple(x / t for x in w)
    m = object.__new__(Message)
    m.__dict__.update(alphabet=alpha, weights=w)
    return m


class _Passer:
    """Message passing over one realization, on tables compiled once per
    distinct constraint code, with every message in one flat store.

    Each evidence slot (a symbol's prior, a boundary half-edge's flat
    weights) and each directed message is numbered once: ids[(None, v)] is
    the evidence on v, ids[(cl, j)] what constraint cl sends along edge j,
    in cl's own coordinates.  store[id] is that message's weight list, None
    until it is sent; sender[id] = (cl, slot) is where it comes from.
    inputs[cl] = (ids, perms): ids[i] names the message slot i of cl reads,
    and perms[i] carries it across an iso edge whose other end is on the
    other side, or copies it (perms is None when no slot of cl needs one).

    A step (kernel, table, inputs, sizes, ids) is one pass over a table,
    resolved once by `step`; its kernel reads the store itself.  `send`,
    `tree_pass` and `result` run steps on the store and differ only in
    what they do with the messages.
    """

    def __init__(self, r: Realization, priors: PriorSet, one):
        r.require_valid()
        self.r = r
        # the weight unit: 1.0 normalizes every message, 1 or Fraction(1) none
        self.one = one
        self.exact = not isinstance(one, float)
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
        self.store = [list(m.weights) for m in priors.values()]
        self.store += ([one] * r.states[b].alphabet.order for b in r.boundary)
        self.ids = {(None, v): i for i, v in enumerate([*priors, *r.boundary])}
        self.sender: list = [None] * len(self.store)
        for j in self.edges:
            for key in r.slots[j]:
                self.ids[(key[0], j)] = len(self.store)
                self.store.append(None)
                self.sender.append(key)
        # forward[j] carries the head's message on iso edge j to the tail:
        # its entry i is the entry at the index of iso(element i); inverse[j]
        # carries the tail's to the head.  An identity permutes nothing, so
        # it gets none (an order-1 table would make `itemgetter` return an
        # entry, not a tuple).
        self.forward, inverse = {}, {}
        for j in self.edges:
            alpha, iso = r.states[j].alphabet, r.states[j].iso
            if iso is not None:
                fwd = [alpha.index(iso.apply(alpha.element_at(i)))
                       for i in range(alpha.order)]
                if fwd != list(range(alpha.order)):
                    inv = [0] * alpha.order
                    for i, k in enumerate(fwd):
                        inv[k] = i
                    self.forward[j], inverse[j] = itemgetter(*fwd), itemgetter(*inv)
        self.tables, self.alphabets, self.orders = {}, {}, {}
        self.inputs = {}
        # one table per distinct code: the table depends only on the rows
        # and on each slot's moduli
        shared: dict[tuple, list] = {}
        for cl, con in r.constraints.items():
            alphas = [alpha for _, alpha in con.code.ambient.factors]
            self.alphabets[cl] = alphas
            self.orders[cl] = [alpha.order for alpha in alphas]
            key = (tuple(alpha.moduli for alpha in alphas), con.code.rows)
            if key not in shared:
                shared[key] = _index_table(con.code, alphas, cap)
            self.tables[cl] = shared[key]
            inputs = []
            for v in con.vars:
                if (None, v) in self.ids:
                    inputs.append((self.ids[(None, v)], None))
                else:
                    (tc, _), (hc, _) = r.slots[v]
                    inputs.append((self.ids[(hc, v)], self.forward.get(v))
                                  if cl == tc else
                                  (self.ids[(tc, v)], inverse.get(v)))
            self.inputs[cl] = ([i for i, _ in inputs], [p or list for _, p in inputs]
                               if any(p for _, p in inputs) else None)

    def step(self, cl: str, slots: list[int]) -> tuple:
        """The pass of cl to the ascending slots."""
        vars_ = self.r.constraints[cl].vars
        return (_kernel(len(vars_), tuple(slots)), self.tables[cl], self.inputs[cl],
                [self.orders[cl][i] for i in slots],
                [self.ids.get((cl, vars_[i])) for i in slots])

    def send(self, steps: list, read: list, write: list, normed: list,
             damp) -> float:
        """Each step's messages from `read` into `write`, through the
        epilogue paired with each message's id (see `_epilogue`).  Returns
        the largest entry change of any normalized message."""
        one, keep, delta = self.one, 1 - damp, 0.0
        for kernel, table, inputs, sizes, posts in steps:
            for m, (i, post) in zip(kernel(table, read, inputs, sizes, one), posts):
                delta = post(m, i, read, write, normed, keep, damp, delta)
        return delta

    def tree_pass(self, messages: list[tuple[str, str]]) -> None:
        """Sends each (cl, j) message in turn, from the messages already
        stored; in float mode each is normalized."""
        for key in messages:
            i = self.ids[key]
            cl, slot = self.sender[i]
            kernel, table, inputs, sizes, _ = self.step(cl, [slot])
            m, = kernel(table, self.store, inputs, sizes, self.one)
            self.store[i] = m if self.exact else _normalized(m)

    def result(self) -> DecodeResult:
        r, store, ids, sym = self.r, self.store, self.ids, {}
        fraction = None
        if self.exact:      # exact tree weights are ints, made Fractions here
            from fractions import Fraction as fraction
        for cl, con in r.constraints.items():
            slots = [i for i, v in enumerate(con.vars) if v in r.symbols]
            if slots:
                kernel, table, inputs, sizes, _ = self.step(cl, slots)
                for i, w in zip(slots, kernel(table, store, inputs, sizes, self.one)):
                    v = con.vars[i]
                    sym[v] = _marginal(v, self.alphabets[cl][i], w,
                                       store[ids[(None, v)]], fraction)
        st = {}
        for j in sorted(self.edges, key=sort_key):
            (tc, ts), (hc, _) = r.slots[j]
            head = store[ids[(hc, j)]]
            if j in self.forward:
                head = self.forward[j](head)
            st[j] = _marginal(j, self.alphabets[tc][ts], store[ids[(tc, j)]], head,
                              fraction)
        sym = {k: sym[k] for k in sorted(r.symbols, key=sort_key)}
        contradiction = any(m.is_zero for m in sym.values())
        return DecodeResult(sym, st, contradiction)


def decode_exact(r: Realization, priors: Mapping[str, Message] | None = None,
                 exact: bool = True) -> DecodeResult:
    """Two-pass sum-product on a cycle-free realization: exact marginals.
    Exact mode scales each prior to integers; every tree message is
    multilinear in the priors, so normalizing cancels the scales."""
    if cyclomatic_number(r) != 0 or not r.is_connected:
        raise NotCycleFree("exact decoding requires a connected cycle-free graph")
    pri = full_priors(r, priors, exact)
    if exact:
        pri = _integer_priors(pri)
    passer = _Passer(r, pri, 1 if exact else 1.0)
    inward, outward, _ = _forest(r)
    passer.tree_pass(inward + outward)
    return passer.result()


def _forest(r: Realization) -> tuple[list, list, set[str]]:
    """The stripped forest of `Realization.peel`: its messages inward, each
    stripped constraint's along the edge it hung by, and outward, back
    along those edges in reverse order; and the stripped constraints."""
    peel = r.peel()
    inward = [(c, j) for c, j in peel if j is not None]
    outward = [(next(d for d, _ in r.slots[j] if d != c), j)
               for c, j in reversed(inward)]
    return inward, outward, {c for c, _ in peel}


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

    if exact:
        from fractions import Fraction
        one, damp = Fraction(1), Fraction(str(damping))
    else:
        one, damp = 1.0, damping
    passer = _Passer(r, full_priors(r, priors, exact), one)
    # the stripped forest's messages toward the core are computed once, exactly
    inward, outward, stripped = _forest(r)
    passer.tree_pass(inward)
    core_edges = [j for j in passer.edges
                  if not any(cl in stripped for cl, _ in r.slots[j])]
    # iterate on the core
    directed = [passer.ids[key] for key in
                sorted(((cl, j) for j in core_edges for cl, _ in r.slots[j]),
                       key=lambda t: (sort_key(t[1]), sort_key(t[0])))]
    # each stored message's normalized form in floats, the "old" side of the
    # next delta
    normed = [None] * len(passer.store)
    sweep: dict[str, list[int]] = {}
    for i in directed:
        cl, s = passer.sender[i]
        passer.store[i] = [passer.one] * passer.orders[cl][s]
        normed[i] = [float(w) for w in _normalized(passer.store[i])]
        sweep.setdefault(cl, []).append(s)
    # a flooding pass sends all of a node's core-edge messages, a serial step one
    steps = ([passer.step(cl, sorted(slots)) for cl, slots in sweep.items()]
             if schedule == "flooding" else
             [passer.step(cl, [s]) for cl, s in map(passer.sender.__getitem__,
                                                    directed)])
    # a sweep sends each message through the epilogue of its order
    steps = [(kernel, table, inputs, sizes, [(i, _epilogue(n, exact, bool(damp)))
                                             for i, n in zip(ids, sizes)])
             for kernel, table, inputs, sizes, ids in steps]
    deltas: list[float] = []
    converged = False
    for _ in range(max_iters):
        # a flooding sweep reads the last sweep's messages, a serial one
        # each message as soon as it is sent
        read = passer.store
        if schedule == "flooding":
            passer.store = read[:]
        deltas.append(passer.send(steps, read, passer.store, normed, damp))
        if deltas[-1] < tol:
            converged = True
            break
    # and its messages away from the core once, for the final marginals
    passer.tree_pass(outward)
    res = passer.result()
    return res, ConvergenceReport(len(deltas), deltas, converged,
                                  res.contradiction)


# -- message trimming and merging ------------------------------------------------


@record
class ReducedMessage:
    """A message collapsed onto the cosets of a constraint's cross-section."""

    quotient: QuotientMap        # (C|V) / (C:V)
    message: Message             # over the quotient alphabet


def message_reduce(code: CodeSubgroup, variable, msg: Message) -> ReducedMessage:
    """Trim weights to C|V and merge them over cosets of C:V."""
    from fractions import Fraction
    quot = code.interface([variable])
    zero = Fraction(0) if isinstance(msg.weights[0], Fraction) else 0.0
    acc = [zero] * quot.alphabet.order
    for v in quot.group.elements():
        acc[quot.alphabet.index(quot.project(v))] += msg.weight_of(v)
    return ReducedMessage(quot, Message(quot.alphabet, tuple(acc)))


def message_expand(reduced: ReducedMessage, alpha: Alphabet,
                   exact: bool = True) -> Message:
    """Spread each coset weight evenly over its members; zero outside C|V."""
    one = _unit(exact)
    w = [one - one] * alpha.order
    quot = reduced.quotient
    for v in quot.group.elements():
        w[alpha.index(v)] = reduced.message.weight_of(quot.project(v)) / quot.sub.order
    return Message(alpha, tuple(w))
