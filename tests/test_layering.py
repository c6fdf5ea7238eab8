"""The import layering of `src/nonion`, read statically with `ast`.

- `_zj`, the raw integer kernels, imports nothing from `nonion`.
- No module imports an underscore name from another module of the
  package, at module level or inside a function.
- The layers that set-up runs import none of the Clifford, fixture,
  report and CLI layers, so `import nonion` cannot load them.
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


def test_package_keeps_its_layering():
    assert layering_violations(SRC) == []


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
]


@pytest.mark.parametrize("file, text, message", VIOLATIONS)
def test_each_rule_catches_a_violation(tmp_path, file, text, message):
    src = tmp_path / "nonion"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / file
    source = path.read_text(encoding="utf-8") + text
    path.write_text(source, encoding="utf-8")
    # the violation is the last line of the text
    assert layering_violations(src) == [f"{file}:{source.count(chr(10))}: {message}"]
