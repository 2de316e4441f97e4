"""The module layout: slow and definitional routes live in ``altexp.oracles``,
apart from the fast paths, and only ``verify`` imports them."""

import ast
from pathlib import Path

import pytest

import altexp

SRC = Path(altexp.__file__).parent
ORACLES = {"adft_forward_naive", "discrete_gram", "remap_index", "remap_beta_to_c",
           "alt_interpolate_remap", "canonicalize", "is_semidominant"}


def parse(name):
    return ast.parse((SRC / name).read_text())


def imported(tree) -> set:
    """Every module, and every module-qualified name, that ``tree`` imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:      # relative to the altexp package
                base = "altexp" + (f".{node.module}" if node.module else "")
            else:
                base = node.module
            out.add(base)
            out.update(f"{base}.{a.name}" for a in node.names)
    return out


def test_only_verify_imports_the_oracles():
    users = {p.name for p in SRC.glob("*.py")
             if any(m == "altexp.oracles" or m.startswith("altexp.oracles.")
                    for m in imported(parse(p.name)))}
    assert users == {"verify.py"}


@pytest.mark.parametrize("name", ["transform.py", "interpolation.py"])
def test_fast_paths_do_not_import_functions(name):
    assert not [m for m in imported(parse(name))
                if m == "altexp.functions" or m.startswith("altexp.functions.")]


def test_oracles_are_defined_in_one_module():
    owners = {}
    for p in SRC.glob("*.py"):
        for node in parse(p.name).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in ORACLES:
                owners.setdefault(node.name, set()).add(p.name)
    assert owners == {name: {"oracles.py"} for name in ORACLES}
    assert not ORACLES & set(dir(altexp))
