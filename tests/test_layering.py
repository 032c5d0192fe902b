"""`subgroups` is the only module that knows the lifted Howell form.

Lifted rows (column c scaled by M/m_c into Z_M, M the lcm of the moduli)
are written, cut and read in `subgroups` alone, on top of `zmod` and
`intmat`; every other module asks it for subgroups, kernels
(`kernel_span`), projections, cross-sections and lifts.  Checked on the
source with `ast`, so a module that starts to lift rows by hand again
fails here, whatever it computes.  `json` is named in `serialize` alone,
and the package is held to its line budget (ROADMAP aim 2).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "normgraph"
CORE = {"zmod", "intmat"}
LIFTED = {"_from_howell", "_lifted", "scales", "lcm_modulus"}
LINE_BUDGET = 4450


def imported(tree: ast.AST) -> set[str]:
    """The last dotted part of every module the tree imports, and every
    name it imports from the package itself (`from . import zmod`)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add((node.module or "").rsplit(".", 1)[-1])
            if node.level and not node.module:
                names.update(alias.name for alias in node.names)
    return names


def named(tree: ast.AST) -> set[str]:
    """Every attribute, name and imported name the tree mentions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_only_subgroups_uses_the_linear_algebra_core_and_lifted_rows():
    modules = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    assert {"subgroups", "zmod", "intmat", "analysis", "duality",
            "realization"} <= modules.keys()
    importers = {name for name, tree in modules.items() if imported(tree) & CORE}
    assert importers == {"subgroups"}
    # alphabets defines the lcm modulus and the scales of a product space
    lifting = {name for name, tree in modules.items()
               if name not in CORE and named(tree) & LIFTED}
    assert lifting == {"subgroups", "alphabets"}


def test_only_serialize_names_json():
    """Reading a document loads no `json` (it brings `re` and `enum`), so
    `json` and its C scanner `_json` are imported, or named, in `serialize`
    alone, which scans with the one and writes with the other."""
    def json_names(tree: ast.AST) -> set[str]:
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module.split(".")[0])
            elif isinstance(node, ast.Name):
                names.add(node.id)
        return names & {"json", "_json"}

    modules = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    assert {name: json_names(tree) for name, tree in modules.items()
            if json_names(tree)} == {"serialize": {"json", "_json"}}


def test_the_package_stays_within_its_line_budget():
    """`src/normgraph/*.py` in at most 4,450 lines, counted as `cat
    src/normgraph/*.py | wc -l` counts them: newline characters."""
    lines = sum(path.read_text().count("\n") for path in SRC.glob("*.py"))
    assert lines <= LINE_BUDGET, f"{lines} lines, {lines - LINE_BUDGET} over the budget"
