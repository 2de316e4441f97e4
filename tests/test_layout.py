"""The module layout: slow and definitional routes live in ``altexp.oracles``,
apart from the fast paths, and only ``verify`` imports them; the coefficient
index range is decided by ``CoefficientSet`` alone, and the lattice shift by
``GridSpec._shift``; every verification check
is ``check(rng)``, and importing the CLI loads none of the verifier; no module
imports a name it never uses."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import altexp
from altexp import domain, interpolation, transform
from altexp.verify import ALL_CHECKS, run_suite

SRC = Path(altexp.__file__).parent
TESTS = Path(__file__).parent
ORACLES = {"adft_forward_naive", "discrete_gram", "remap_index", "remap_beta_to_c",
           "canonicalize", "is_semidominant", "std_coefficient_cube"}
# the range pickers the interpolation must leave to the coefficient set
RANGE_PICKERS = {"altexp.transform._require_odd", "altexp.domain.domain_table"}
# the tables and steps of the alternating path, which the std oracle must not use
ALTERNATING_STEPS = {"_shift", "_unit_axis", "_phases", "_lattice_table", "_separable",
                     "_forward", "domain_table", "table", "axis", "flat", "pos", "weight",
                     "_dense_cube"}


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


def called(node) -> set:
    """The names of the functions and methods called anywhere under ``node``."""
    return {c.func.id if isinstance(c.func, ast.Name) else c.func.attr
            for c in ast.walk(node) if isinstance(c, ast.Call)
            and isinstance(c.func, (ast.Name, ast.Attribute))}


def function(tree, name):
    return next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)


def test_only_the_coefficient_set_picks_the_index_range():
    interp = parse("interpolation.py")
    assert "domain_table" not in called(interp)
    assert not RANGE_PICKERS & imported(interp)
    for module, name in (("oracles.py", "remap_beta_to_c"), ("io.py", "read_coefficients_json")):
        assert not {"domain_table", "_require_odd"} & called(function(parse(module), name))


def test_the_std_oracle_shares_no_step_with_the_alternating_path():
    body = function(parse("oracles.py"), "std_coefficient_cube")
    used = {n.id for n in ast.walk(body) if isinstance(n, ast.Name)}
    used |= {n.attr for n in ast.walk(body) if isinstance(n, ast.Attribute)}
    assert not used & ALTERNATING_STEPS


def test_the_layout_checks_name_what_exists():
    # a renamed step would otherwise leave a check above that can never fail
    owners = (transform, interpolation, domain, domain.DomainTable, transform.CoefficientSet,
              domain.GridSpec)

    def exists(name):   # a dotted name must be found in its own module
        module, _, attr = name.rpartition(".")
        return any(hasattr(o, attr) for o in ([sys.modules[module]] if module else owners))

    assert [n for n in sorted(RANGE_PICKERS | ALTERNATING_STEPS) if not exists(n)] == []


def test_transform_takes_exponentials_only_in_the_lattice_table():
    # transform holds the exact lattice phases alone; the interpolant's phases
    # at any point are built in interpolation, never from the lattice table
    def exps(node):     # np.exp, math.exp or a bare exp
        return [c for c in ast.walk(node) if isinstance(c, ast.Call)
                and getattr(c.func, "attr", getattr(c.func, "id", None)) == "exp"]

    tree = parse("transform.py")
    assert len(exps(tree)) == len(exps(function(tree, "_lattice_table"))) > 0
    assert "_lattice_table" not in called(parse("interpolation.py"))


def test_the_shift_is_computed_only_by_the_grid():
    # a/T + b/N is made exact in GridSpec._shift alone, from the ratios of the doubles;
    # the transforms, the unit axis and the remap oracle read it, and none takes Fractions
    def ratio_calls(node):
        return len([c for c in ast.walk(node) if isinstance(c, ast.Call)
                    and getattr(c.func, "attr", None) == "as_integer_ratio"])

    grid = next(n for n in parse("domain.py").body
                if isinstance(n, ast.ClassDef) and n.name == "GridSpec")
    calls = {p.name: ratio_calls(parse(p.name)) for p in SRC.glob("*.py")}
    assert {name: k for name, k in calls.items() if k} == {
        "domain.py": ratio_calls(function(grid, "_shift"))}
    assert calls["domain.py"] > 0
    assert not [p.name for p in SRC.glob("*.py")
                if {"fractions", "decimal"} & {m.split(".")[0] for m in imported(parse(p.name))}]
    assert {"_shift"} <= called(function(parse("transform.py"), "_lattice_table"))
    assert {"_shift"} <= called(function(parse("oracles.py"), "remap_beta_to_c"))
    assert {"_shift"} <= called(function(grid, "_unit_axis"))


def test_every_check_takes_only_rng():
    params = {check.__name__: list(inspect.signature(check).parameters)
              for checks in ALL_CHECKS.values() for check in checks}
    assert params == {name: ["rng"] for name in params}
    assert list(inspect.signature(run_suite).parameters) == ["suite", "seed"]


def loaded_on_import(module: str, names: set) -> str:
    """The sorted list of ``names`` that a fresh interpreter holds after importing ``module``."""
    code = f"import sys, {module}; print(sorted(set({sorted(names)!r}) & set(sys.modules)))"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    return done.stdout


def test_importing_the_cli_loads_none_of_the_verifier():
    verifier = {"mpmath", "altexp.verify", "altexp.c3", "altexp.oracles"}
    assert loaded_on_import("altexp.cli", verifier) == "[]\n"


def test_importing_the_package_loads_no_rational_arithmetic():
    assert loaded_on_import("altexp", {"fractions", "decimal"}) == "[]\n"


def unused_imports(tree) -> list:
    """Names ``tree`` imports and never reads; ``import x as x`` marks a re-export."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            bound.update(((a.asname or a.name).split(".")[0], node.lineno)
                         for a in node.names if a.asname != a.name)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_no_unused_imports():
    # package re-exports are exempt: __init__ imports only to export
    paths = [p for p in (*SRC.glob("*.py"), *TESTS.glob("*.py")) if p.name != "__init__.py"]
    found = {p.name: unused_imports(ast.parse(p.read_text())) for p in paths}
    assert {name: lines for name, lines in found.items() if lines} == {}
