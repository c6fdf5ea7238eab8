"""The import layering and exactness of `src/nonion`, read statically
with `ast`.

- `_zj`, the raw integer kernels, imports nothing from `nonion`.
- No module imports an underscore name from another module of the
  package, at module level or inside a function.
- The layers that set-up runs import none of the Clifford, fixture,
  report and CLI layers, so `import nonion` cannot load them.
- No module imports `fractions`, `decimal` or `cmath`: `FieldElem` is the
  one number type.
- Floats are for display only: a float or complex literal, a `float()` or
  `complex()` call, or a `math` function other than the integer ones
  appears only inside `cli._fe_json`.
- Public names: each top-level name without a leading underscore in a
  public module (all but `_zj`, `_clifford_matrix` and `_version`) is in
  its module's `__all__` or on `NOT_EXPORTED`.
- Library callers: each public function, class and public method of a
  public module that nothing in `src/nonion` calls is on `UNCALLED`.  A
  reference counts when it lies outside the name's own body and outside
  every other uncalled name, so a helper that only dead code calls is
  dead too.  References are matched by name alone, so a method shares
  the callers of every function and method of the same name
  (`Mat3.conjugate_j` those of `FieldElem.conjugate_j`).

Both lists fail the test when an entry goes stale.
"""

import ast
import shutil
from functools import lru_cache
from pathlib import Path

import pytest

import nonion

SRC = Path(nonion.__file__).parent
SETUP_LAYERS = ("_zj", "field", "matrix", "bases", "poly", "cubic")
LATER_LAYERS = {"clifford", "_clifford_matrix", "bracket", "roots", "fixtures", "report", "cli"}


@lru_cache(maxsize=None)
def _parse(text: str) -> ast.Module:
    return ast.parse(text)


def _tree(path: Path) -> ast.Module:
    """The syntax tree of a source file, shared by every rule (read only)."""
    return _parse(path.read_text(encoding="utf-8"))


def _package_imports(path: Path):
    """(line, module, names) of each import from the package, at any
    depth: `from .m import a` gives ("m", ["a"]), `from . import m` gives
    ("", ["m"]) and `import nonion.m` gives ("m", [])."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "nonion":
                    continue
                module = module.partition(".")[2]
            yield node.lineno, module, [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "nonion":
                    yield node.lineno, alias.name.partition(".")[2], []


def layering_violations(src: Path) -> list[str]:
    out = []
    for path in sorted(src.glob("*.py")):
        for line, module, names in _package_imports(path):
            where = f"{path.name}:{line}"
            if path.stem == "_zj":
                out.append(f"{where}: _zj imports from nonion")
            for name in names:
                dunder = name.startswith("__") and name.endswith("__")
                submodule = not module and (src / f"{name}.py").exists()
                if name.startswith("_") and not (dunder or submodule):
                    out.append(f"{where}: imports the private name {name}")
            targets = {module.split(".")[0]} if module else set(names)
            if path.stem in SETUP_LAYERS and targets & LATER_LAYERS:
                out.append(f"{where}: set-up layer imports {sorted(targets & LATER_LAYERS)}")
    return out


NUMBER_MODULES = {"fractions", "decimal", "cmath"}
INTEGER_MATH = {"gcd", "lcm", "factorial", "isqrt", "comb"}
FLOAT_HOME = ("cli", "_fe_json")


def exactness_violations(src: Path) -> list[str]:
    out = []
    for path in sorted(src.glob("*.py")):
        tree = _tree(path)
        display = {
            id(inner)
            for node in tree.body
            if (path.stem, getattr(node, "name", None)) == FLOAT_HOME
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            what = None
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
                if node.module == "math":
                    what = ", ".join(
                        f"math.{a.name}" for a in node.names if a.name not in INTEGER_MATH
                    ) or None
            else:
                modules = []
            for module in modules:
                if module.split(".")[0] in NUMBER_MODULES:
                    out.append(f"{path.name}:{node.lineno}: imports {module}")
            if id(node) in display:
                continue
            if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
                what = f"literal {node.value!r}"
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("float", "complex"):
                what = f"{node.func.id}()"
            elif (
                isinstance(node, ast.Attribute)
                and getattr(node.value, "id", None) == "math"
                and node.attr not in INTEGER_MATH
            ):
                what = f"math.{node.attr}"
            if what:
                out.append(f"{path.name}:{node.lineno}: {what} outside cli._fe_json")
    return out


def _public(path: Path) -> bool:
    """A module whose name has no leading underscore, or `__init__`."""
    return path.stem == "__init__" or not path.stem.startswith("_")


# Public names outside their module's __all__, each with why it stays public.
NOT_EXPORTED = {
    "field.sum_terms": "kernel of the sparse sums in bracket, cubic, poly and clifford",
    "field.common_numerators": "kernel of the pairwise Clifford product",
    "field.sum_of_products": "kernel of the Mat3 product, determinant and pairing",
    "matrix.LABELS": "the nonion label table, which bases reads",
    "bases.TWIST_EXPONENTS": "the phase-twist table, which cubic reads",
    "bases.CLAIMED_TILDE_EXPONENTS": "the printed tilde phases, which the tests read",
    "bracket.Basis": "the basis type of structure_row and structure_table",
    "clifford.MAX_GENERATORS": "the generator bound, which cli checks",
    "clifford.Terms": "the terms type, which _clifford_matrix imports",
    "report.REPORT_SCHEMA": "the schema tag of every report",
    "report.render_markdown": "the Markdown view of emit_report, which the tests read",
}


def public_name_violations(src: Path) -> list[str]:
    unexported = {}
    for path in filter(_public, sorted(src.glob("*.py"))):
        tree = _tree(path)
        exported = {
            c.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for c in ast.walk(node.value)
            if isinstance(c, ast.Constant)
        }
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            for name in names:
                if not name.startswith("_") and name not in exported:
                    unexported[f"{path.stem}.{name}"] = f"{path.name}:{node.lineno}"
    return [
        f"{where}: {key.partition('.')[2]} is not in __all__"
        for key, where in unexported.items()
        if key not in NOT_EXPORTED
    ] + [f"{key} is on NOT_EXPORTED but is not a public name outside __all__"
         for key in NOT_EXPORTED if key not in unexported]


# Public callables that nothing in src/nonion calls, each with why it stays.
TRACED = "perfbench/tracing.py METHODS wraps it through cls.__dict__"
UNCALLED = {
    "matrix.Mat3.transpose": TRACED,
    "matrix.Mat3.dagger": TRACED,
    "matrix.Mat3.trace": TRACED,
    "matrix.Mat3.commutes_with": TRACED,
    "poly.MPoly.evaluate": "the norm_field workload of perfbench calls it",
    "clifford.normal_order_product": "the paper's monomial product; perfbench counts its calls",
    "bracket.s3_bracket": "the bracket on matrices: the tests' reference for structure_row",
}


def library_caller_violations(src: Path) -> list[str]:
    defs = []  # (key, where, name) of each public function, class and method
    refs: dict[str, list[frozenset]] = {}  # name -> the defs around each reference

    def visit(node, path, prefix, around):
        for child in ast.iter_child_nodes(node):
            inner, child_prefix = around, None
            if (
                prefix is not None
                and isinstance(child, (ast.FunctionDef, ast.ClassDef))
                and not child.name.startswith("_")
            ):
                key = f"{path.stem}.{prefix}{child.name}"
                defs.append((key, f"{path.name}:{child.lineno}", child.name))
                inner = around | {len(defs) - 1}
                if isinstance(child, ast.ClassDef) and not prefix:
                    child_prefix = f"{child.name}."
            elif isinstance(child, (ast.Name, ast.Attribute)):
                refs.setdefault(getattr(child, "id", None) or child.attr, []).append(around)
            visit(child, path, child_prefix, inner)

    for path in sorted(src.glob("*.py")):
        visit(_tree(path), path, "" if _public(path) else None, frozenset())
    called: set[int] = set()
    grew = True
    while grew:
        grew = False
        for i, (_, _, name) in enumerate(defs):
            if i not in called and any(i not in a and a <= called for a in refs.get(name, ())):
                called.add(i)
                grew = True
    uncalled = {key: where for i, (key, where, _) in enumerate(defs) if i not in called}
    return [
        f"{where}: {key.partition('.')[2]} has no caller in src/nonion"
        for key, where in uncalled.items()
        if key not in UNCALLED
    ] + [f"{key} is on UNCALLED but has a caller or no definition"
         for key in UNCALLED if key not in uncalled]


RULES = (layering_violations, exactness_violations, public_name_violations,
         library_caller_violations)


def test_package_keeps_its_layering():
    assert layering_violations(SRC) == []


def test_floats_only_in_the_cli_display():
    assert exactness_violations(SRC) == []


def test_public_names_are_exported_or_listed():
    assert public_name_violations(SRC) == []


def test_public_callables_have_a_library_caller_or_are_listed():
    assert library_caller_violations(SRC) == []


VIOLATIONS = [
    pytest.param("_zj.py", "from .field import FieldElem\n", "_zj imports from nonion", id="zj-relative"),
    pytest.param("_zj.py", "import nonion.field\n", "_zj imports from nonion", id="zj-absolute"),
    pytest.param("matrix.py", "from .field import _gcd\n", "imports the private name _gcd",
                 id="private-module-level"),
    pytest.param("report.py", "def _f():\n    from .poly import _horner_plan\n",
                 "imports the private name _horner_plan", id="private-in-function"),
    pytest.param("cubic.py", "from . import _DEFERRED\n", "imports the private name _DEFERRED",
                 id="private-from-package"),
    pytest.param("bases.py", "from .clifford import CliffElement\n",
                 "set-up layer imports ['clifford']", id="layer-module-level"),
    pytest.param("matrix.py", "def _f():\n    from . import report\n",
                 "set-up layer imports ['report']", id="layer-in-function"),
    pytest.param("field.py", "from nonion._clifford_matrix import matrix_product\n",
                 "set-up layer imports ['_clifford_matrix']", id="layer-absolute"),
    pytest.param("matrix.py", "_x = 0.5\n", "literal 0.5 outside cli._fe_json", id="float-literal"),
    pytest.param("report.py", "def _f():\n    from fractions import Fraction\n",
                 "imports fractions", id="fractions-in-function"),
    pytest.param("field.py", "math.sqrt(2)\n", "math.sqrt outside cli._fe_json", id="math-sqrt"),
    pytest.param("poly.py", "_y = complex(1, 2)\n", "complex() outside cli._fe_json",
                 id="complex-call"),
    pytest.param("cli.py", "from math import pi, gcd\n", "math.pi outside cli._fe_json",
                 id="math-import-in-cli"),
    pytest.param("cubic.py", "import decimal\n", "imports decimal", id="decimal-import"),
    pytest.param("matrix.py", "SCALE = 2\n", "SCALE is not in __all__", id="public-assignment"),
    pytest.param("poly.py", "def _use():\n    return helper()\ndef helper(): return 1\n",
                 "helper is not in __all__", id="public-def"),
    pytest.param("roots.py", "__all__ = [*__all__, 'helper']\ndef helper(): return 1\n",
                 "helper has no caller in src/nonion", id="uncalled-function"),
    pytest.param("matrix.py", "__all__ = [*__all__, 'helper']\ndef helper(m): return m.trace()\n",
                 "helper has no caller in src/nonion", id="uncalled-caller-of-uncalled"),
]


@pytest.mark.parametrize("file, text, message", VIOLATIONS)
def test_each_rule_catches_a_violation(tmp_path, file, text, message):
    src = tmp_path / "nonion"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / file
    source = path.read_text(encoding="utf-8") + text
    path.write_text(source, encoding="utf-8")
    # the violation is the last line of the text
    violations = [v for rule in RULES for v in rule(src)]
    assert violations == [f"{file}:{source.count(chr(10))}: {message}"]
