"""JSON file format for realizations, priors, and marginal output.

Top-level keys: `alphabets` (named), `symbols`, `states` (with optional
`iso` matrix for generalized edges), `constraints` (generator rows are
concatenated coordinate tuples in `vars` order), and optional `boundary`;
any other top-level key is an error.  Generator entries must be canonical
residues; out-of-range values are rejected rather than silently reduced.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

try:
    from _json import make_scanner as c_make_scanner
except ImportError:                     # an interpreter without the accelerator
    c_make_scanner = None

from .alphabets import Alphabet, ProductSpace, sort_key
from .decode import Message
from .errors import NormgraphError, UnknownLabel
from .homs import Homomorphism
from .realization import Constraint, Realization, StateVar
from .subgroups import CodeSubgroup


MAX_DIM = 2**16


class ParseError(NormgraphError):
    """Malformed realization or priors document."""


def _alphabet_to_json(alpha: Alphabet) -> dict:
    if alpha.kind == "field":
        return {"field": alpha.moduli[0] if alpha.moduli else 2,
                "dim": alpha.width}
    return {"cyclic": list(alpha.moduli)}


def _int(value: object, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _list_of(kind: type, values: object, what: str) -> tuple:
    if type(values) is list and {*map(type, values)} <= {kind}:   # one C-level pass
        return tuple(values)
    if not isinstance(values, list) or any(
            isinstance(v, bool) or not isinstance(v, kind) for v in values):
        raise ParseError(f"{what} must be a list of {kind.__name__}, got {values!r}")
    return tuple(values)


def _new_id(entry: dict, kind: str, seen: dict) -> str:
    """The entry's id, which must be a string not yet used for this kind."""
    ident = entry["id"]
    if not isinstance(ident, str):
        raise ParseError(f"{kind} id must be a string, got {ident!r}")
    if ident in seen:
        raise ParseError(f"duplicate {kind} id {ident!r}")
    return ident


def _alphabet_from_json(name: str, obj: object) -> Alphabet:
    if not isinstance(obj, dict):
        raise ParseError(f"alphabet {name!r} must be an object, got {obj!r}")
    try:
        if "field" in obj:
            p = _int(obj["field"], f"alphabet {name!r} field")
            dim = _int(obj.get("dim", 1), f"alphabet {name!r} dim")
            if not 1 <= dim <= MAX_DIM:
                raise ValueError(f"dim {dim} is not in [1, {MAX_DIM}]")
            return Alphabet("field", (p,) * dim)
        if "cyclic" in obj:
            return Alphabet("group", _list_of(int, obj["cyclic"],
                                              f"alphabet {name!r} cyclic"))
    except ValueError as exc:
        raise ParseError(f"alphabet {name!r}: {exc}") from exc
    raise ParseError(f"alphabet {name!r} needs 'field' or 'cyclic': {obj!r}")


def realization_to_json(r: Realization) -> dict:
    """JSON-ready document; constraint order is preserved (it is semantic)."""
    names: dict[Alphabet, str] = {}

    def name_of(alpha: Alphabet) -> str:
        if alpha not in names:
            names[alpha] = f"A{len(names)}"
        return names[alpha]

    symbols = [{"id": k, "alphabet": name_of(r.symbols[k])}
               for k in sorted(r.symbols, key=sort_key)]
    states = []
    for j in sorted(r.states, key=sort_key):
        sv = r.states[j]
        entry: dict[str, object] = {"id": j, "alphabet": name_of(sv.alphabet)}
        if sv.iso is not None:
            entry["iso"] = [list(row) for row in sv.iso.matrix]
        states.append(entry)
    constraints = []
    for cl, con in r.constraints.items():
        constraints.append({
            "id": cl,
            "vars": list(con.vars),
            "generators": [list(row) for row in con.code.rows],
        })
    doc = {
        "alphabets": {name: _alphabet_to_json(alpha)
                      for alpha, name in names.items()},
        "symbols": symbols,
        "states": states,
        "constraints": constraints,
    }
    if r.boundary:
        doc["boundary"] = list(r.boundary)
    return doc


def realization_from_json(doc: object) -> Realization:
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    for key in doc:
        if key not in ("alphabets", "symbols", "states", "constraints", "boundary"):
            raise ParseError(f"unknown top-level key {key!r}")
    try:
        alphabets = {name: _alphabet_from_json(name, entry)
                     for name, entry in doc.get("alphabets", {}).items()}
        # spaces, codes and iso-free states are keyed by alphabet name, a
        # plain string: an `Alphabet` record hashes in Python
        alphabet_name: dict[str, str] = {}     # variable -> its alphabet's name
        symbols: dict[str, Alphabet] = {}
        for entry in doc.get("symbols", []):
            name = entry["alphabet"]
            alpha = alphabets[name]
            ident = _new_id(entry, "symbol", symbols)
            symbols[ident], alphabet_name[ident] = alpha, name
        states: dict[str, StateVar] = {}
        plain: dict[str, StateVar] = {}        # one iso-free state per name
        for entry in doc.get("states", []):
            ident = _new_id(entry, "state", states)
            name = entry["alphabet"]
            alpha = alphabets[name]
            alphabet_name.setdefault(ident, name)  # a clash is refused below
            if "iso" in entry:
                states[ident] = StateVar(alpha, Homomorphism(alpha, alpha, tuple(
                    _list_of(int, row, f"state {ident!r} iso row")
                    for row in entry["iso"])))
            else:
                if name not in plain:
                    plain[name] = StateVar(alpha)
                states[ident] = plain[name]
        constraints: dict[str, Constraint] = {}
        spaces: dict[tuple, ProductSpace] = {}    # one per slot alphabet names
        codes: dict[tuple, CodeSubgroup] = {}     # one per (names, rows)
        for entry in doc.get("constraints", []):
            ident = _new_id(entry, "constraint", constraints)
            vars_ = _list_of(str, entry["vars"], f"constraint {ident!r} vars")
            try:
                names = tuple([alphabet_name[v] for v in vars_])
            except KeyError as exc:
                raise UnknownLabel(f"constraint {ident!r} references "
                                   f"unknown variable {exc.args[0]!r}") from None
            amb = spaces.get(names)
            if amb is None:
                amb = spaces[names] = ProductSpace(
                    [(i, alphabets[n]) for i, n in enumerate(names)])
            key = (names, tuple(
                _list_of(int, row, f"constraint {ident!r} generator")
                for row in entry["generators"]))
            code = codes.get(key)
            if code is None:
                code = codes[key] = CodeSubgroup(amb, key[1])
            constraints[ident] = Constraint(vars_, code)
        boundary = list(_list_of(str, doc.get("boundary", []), "boundary"))
        if len(set(boundary)) < len(boundary):
            twice = next(b for b in boundary if boundary.count(b) > 1)
            raise ParseError(f"boundary variable {twice!r} is listed twice")
        return Realization(symbols, states, constraints, boundary)
    except (AttributeError, KeyError, TypeError, ValueError,
            NormgraphError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"malformed realization document: {exc}") from exc


def json_text(doc: object) -> str:
    """`doc` as JSON text, indented by one space.  `json` is imported here,
    by the commands that write JSON, so that no reading command loads it."""
    import json
    return json.dumps(doc, indent=1)


def dump_realization(r: Realization, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(json_text(realization_to_json(r)) + "\n")


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a key it repeats."""
    out = dict(pairs)
    if len(out) < len(pairs):
        keys = [k for k, _ in pairs]
        twice = next(k for k in keys if keys.count(k) > 1)
        raise ParseError(f"key {twice!r} is repeated in one JSON object")
    return out


def _read_json(path: str, parse_float=None) -> object:
    """The JSON document at `path`.  Text that is not UTF-8, nesting deeper
    than the recursion limit and an integer literal beyond the int-to-str
    limit are parse errors, as is any other malformed JSON.

    The C scanner that `json.loads` runs on reads it without loading `json`
    (nor its `re` and `enum`).  Any other outcome is left to `json.loads`,
    which words the error: text left after the value, no `_json` (the
    scanner is None), or any exception, as CPython 3.11's scanner raises
    `SystemError` for some errors while `json.decoder` is not loaded."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
            try:
                scan = c_make_scanner(SimpleNamespace(
                    strict=True, object_hook=None, object_pairs_hook=_unique_keys,
                    parse_float=parse_float or float, parse_int=int, parse_constant=float))
                value, end = scan(text, len(text) - len(text.lstrip(" \t\n\r")))
                if end == len(text.rstrip(" \t\n\r")):
                    return value
            except Exception:
                pass
            import json
            return json.loads(text, parse_float=parse_float,
                              object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc


def load_realization(path: str) -> Realization:
    return realization_from_json(_read_json(path))


def _weight(value: object, exact: bool, Fraction: type):
    if isinstance(value, bool):
        raise ValueError(f"weight {str(value).lower()} is a boolean, not a number")
    # priors are read with `parse_float=str`: a decimal is text, read exactly
    w = Fraction(value if isinstance(value, (str, int)) else str(value))
    if exact:
        return w
    try:
        return float(w)
    except OverflowError:
        raise ValueError(f"weight {value} is too large for a float") from None


def load_priors(path: str, r: Realization, exact: bool) -> dict[str, Message]:
    """Priors keyed by symbol id; weights follow the canonical enumeration.

    Decimal literals are read exactly (0.9 means 9/10) so that exact-mode
    decoding stays exact.
    """
    from fractions import Fraction      # loaded only by the commands that decode
    doc = _read_json(path, parse_float=str)
    if not isinstance(doc, dict):
        raise ParseError("priors document must map symbol ids to weight lists")
    out: dict[str, Message] = {}
    for key, weights in doc.items():
        if key not in r.symbols:
            raise ParseError(f"priors reference unknown symbol {key!r}")
        alpha = r.symbols[key]
        if not isinstance(weights, list):
            raise ParseError(f"prior for {key!r} must be a list of weights, "
                             f"got {weights!r}")
        if len(weights) != alpha.order:
            raise ParseError(
                f"prior for {key!r} has {len(weights)} weights, "
                f"alphabet order is {alpha.order}")
        try:
            out[key] = Message(alpha, tuple(_weight(w, exact, Fraction) for w in weights))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"prior for {key!r}: {exc}") from exc
    return out


def marginals_to_json(marginals: dict[str, Message], exact: bool) -> dict:
    # exact weights may have more digits than int-to-str allows by default
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return {key: [str(w) if exact else float(w) for w in marginals[key].weights]
                for key in sorted(marginals, key=sort_key)}
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def graph_to_dot(r: Realization, name: str = "realization") -> str:
    """DOT description: constraint vertices, state edges, half-edge markers."""
    lines = [f'graph "{name}" {{']
    for cl in r.constraints:
        lines.append(f'  "{cl}" [shape=box];')
    for j in sorted(r.internal_states(), key=sort_key):
        ends = r.slots[j]
        if len(ends) != 2:
            continue
        (tc, _), (hc, _) = ends
        style = ""
        if r.states[j].iso is not None:
            style = ", style=bold"
        lines.append(f'  "{tc}" -- "{hc}" [label="{j}"{style}];')
    for k in sorted(r.symbols, key=sort_key):
        (cl, _), = r.slots[k]
        lines.append(f'  "sym:{k}" [shape=point, xlabel="{k}"];')
        lines.append(f'  "{cl}" -- "sym:{k}" [style=dashed];')
    for b in r.boundary:
        (cl, _), = r.slots[b]
        lines.append(f'  "ext:{b}" [shape=point, xlabel="{b}"];')
        lines.append(f'  "{cl}" -- "ext:{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
