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
"""

import ast
import shutil
from pathlib import Path

import pytest

import nonion

SRC = Path(nonion.__file__).parent
SETUP_LAYERS = ("_zj", "field", "matrix", "bases", "poly", "cubic")
LATER_LAYERS = {"clifford", "_clifford_matrix", "bracket", "roots", "fixtures", "report", "cli"}


def _package_imports(path: Path):
    """(line, module, names) of each import from the package, at any
    depth: `from .m import a` gives ("m", ["a"]), `from . import m` gives
    ("", ["m"]) and `import nonion.m` gives ("m", [])."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
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
        tree = ast.parse(path.read_text(encoding="utf-8"))
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


def test_package_keeps_its_layering():
    assert layering_violations(SRC) == []


def test_floats_only_in_the_cli_display():
    assert exactness_violations(SRC) == []


VIOLATIONS = [
    pytest.param("_zj.py", "from .field import FieldElem\n", "_zj imports from nonion", id="zj-relative"),
    pytest.param("_zj.py", "import nonion.field\n", "_zj imports from nonion", id="zj-absolute"),
    pytest.param("matrix.py", "from .field import _gcd\n", "imports the private name _gcd",
                 id="private-module-level"),
    pytest.param("report.py", "def f():\n    from .poly import _horner_plan\n",
                 "imports the private name _horner_plan", id="private-in-function"),
    pytest.param("cubic.py", "from . import _DEFERRED\n", "imports the private name _DEFERRED",
                 id="private-from-package"),
    pytest.param("bases.py", "from .clifford import CliffElement\n",
                 "set-up layer imports ['clifford']", id="layer-module-level"),
    pytest.param("matrix.py", "def f():\n    from . import report\n",
                 "set-up layer imports ['report']", id="layer-in-function"),
    pytest.param("field.py", "from nonion._clifford_matrix import matrix_product\n",
                 "set-up layer imports ['_clifford_matrix']", id="layer-absolute"),
    pytest.param("matrix.py", "x = 0.5\n", "literal 0.5 outside cli._fe_json", id="float-literal"),
    pytest.param("report.py", "def f():\n    from fractions import Fraction\n",
                 "imports fractions", id="fractions-in-function"),
    pytest.param("field.py", "math.sqrt(2)\n", "math.sqrt outside cli._fe_json", id="math-sqrt"),
    pytest.param("poly.py", "y = complex(1, 2)\n", "complex() outside cli._fe_json",
                 id="complex-call"),
    pytest.param("cli.py", "from math import pi, gcd\n", "math.pi outside cli._fe_json",
                 id="math-import-in-cli"),
    pytest.param("cubic.py", "import decimal\n", "imports decimal", id="decimal-import"),
]


@pytest.mark.parametrize("file, text, message", VIOLATIONS)
def test_each_rule_catches_a_violation(tmp_path, file, text, message):
    src = tmp_path / "nonion"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / file
    source = path.read_text(encoding="utf-8") + text
    path.write_text(source, encoding="utf-8")
    # the violation is the last line of the text
    violations = layering_violations(src) + exactness_violations(src)
    assert violations == [f"{file}:{source.count(chr(10))}: {message}"]
