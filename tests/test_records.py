"""Record classes behave as the dataclasses they replaced, and importing the
command line loads neither `dataclasses` nor `typing` (nor `json`, `re` and
`enum`, which only the commands that write JSON import)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from normgraph.alphabets import Alphabet, ProductSpace, cyclic_group, vector_space
from normgraph.analysis import BehavioralReport
from normgraph.decode import ConvergenceReport, Message
from normgraph.homs import Homomorphism
from normgraph.realization import Constraint, StateVar, ValidationReport
from normgraph.subgroups import CodeSubgroup

GF2, Z4 = vector_space(2, 1), cyclic_group(4)
NEG = Homomorphism(Z4, Z4, ((3,),))
CODE = CodeSubgroup(ProductSpace([("a", GF2), ("b", GF2)]), [(1, 1)])

# (instance, equal instance, its field tuple, exact repr)
CASES = [
    (GF2, Alphabet("field", (2,)), ("field", (2,)), "GF(2)^1"),
    (cyclic_group(2, 4), Alphabet("group", (2, 4)), ("group", (2, 4)), "Z_2x_4"),
    (Message(GF2, (0.25, 0.75)), Message(GF2, (0.25, 0.75)), (GF2, (0.25, 0.75)),
     "Message(alphabet=GF(2)^1, weights=(0.25, 0.75))"),
    (NEG, Homomorphism(Z4, Z4, ((7,),)), (Z4, Z4, ((3,),)),
     "Homomorphism(source=Z_4, target=Z_4, matrix=((3,),))"),
    (StateVar(Z4), StateVar(Z4, None), (Z4, None),
     "StateVar(alphabet=Z_4, iso=None)"),
    (StateVar(Z4, NEG), StateVar(alphabet=Z4, iso=NEG), (Z4, NEG),
     "StateVar(alphabet=Z_4, iso=Homomorphism(source=Z_4, target=Z_4, "
     "matrix=((3,),)))"),
    (Constraint(("a", "b"), CODE), Constraint(vars=("a", "b"), code=CODE),
     (("a", "b"), CODE),
     "Constraint(vars=('a', 'b'), code=CodeSubgroup(order=2, ambient_order=4, "
     "rows=1))"),
    (ValidationReport([], ["x"], False), ValidationReport([], ["x"], False),
     ([], ["x"], False),
     "ValidationReport(degree_errors=[], alphabet_errors=['x'], "
     "disconnected=False)"),
    (ConvergenceReport(3, [0.5], True, False),
     ConvergenceReport(3, [0.5], converged=True, contradiction=False),
     (3, [0.5], True, False),
     "ConvergenceReport(iterations=3, deltas=[0.5], converged=True, "
     "contradiction=False)"),
    (BehavioralReport(True, False, True, False),
     BehavioralReport(True, False, True, False), (True, False, True, False),
     "BehavioralReport(controllable=True, observable=False, "
     "direct_controllable=True, direct_observable=False)"),
]
FROZEN = (Alphabet, Message, Homomorphism, StateVar, Constraint)


@pytest.mark.parametrize("x, same, fields, text", CASES,
                         ids=[type(c[0]).__name__ for c in CASES])
def test_record_parity(x, same, fields, text):
    cls = type(x)
    assert repr(x) == text
    assert x == same and not x != same
    assert x != fields and fields != x
    assert x != object()
    if cls in FROZEN:
        assert hash(x) == hash(same) == hash(fields)
        first = next(iter(cls.__annotations__))
        with pytest.raises(AttributeError):
            setattr(x, first, getattr(x, first))
        with pytest.raises(AttributeError):
            delattr(x, first)
    else:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(x)
    required = [f for f in cls.__annotations__ if f not in vars(cls)]
    with pytest.raises(TypeError):
        cls(*fields[:len(required) - 1])
    with pytest.raises(TypeError):
        cls(*fields, None)
    with pytest.raises(TypeError):
        cls(*fields, bogus=1)
    with pytest.raises(TypeError):
        cls(*fields[:1], **{next(iter(cls.__annotations__)): fields[0]})


def test_records_of_different_classes_differ():
    a = BehavioralReport(True, True, True, True)
    assert a != ValidationReport(True, True, True)
    assert StateVar(Z4) != (Z4, None)


def test_post_init_still_validates():
    with pytest.raises(ValueError, match="length"):
        Message(GF2, (1.0,))
    with pytest.raises(ValueError, match="nonnegative"):
        Message(GF2, (1.0, -1.0))
    with pytest.raises(ValueError, match="one row per source coordinate"):
        Homomorphism(Z4, Z4, ())
    with pytest.raises(ValueError, match="does not define a homomorphism"):
        Homomorphism(GF2, Z4, ((1,),))
    assert Homomorphism(Z4, Z4, ((7,),)).matrix == ((3,),)


def test_cli_import_loads_no_dataclasses_or_typing():
    src = str(Path(__file__).resolve().parent.parent / "src")
    heavy = ("dataclasses", "inspect", "typing", "ast", "dis", "random",
             "fractions", "decimal", "numbers", "json", "re", "enum")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, normgraph.cli; "
         f"print(sorted(set({heavy!r}) & set(sys.modules)))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_rng_annotations_resolve():
    """The `rng` parameters name no module that their own modules leave
    unimported, so `typing.get_type_hints` resolves them."""
    import typing

    from normgraph import graphcore
    from normgraph.realization import Realization

    for f in (Realization.peel, graphcore.two_core, graphcore.two_core_constraints):
        assert typing.get_type_hints(f)["rng"] == (object | None)
