import importlib

import pytest

# The layers of the library; each declares its public names in __all__.
MODULES = (
    "field", "matrix", "bases", "bracket", "poly", "cubic",
    "roots", "clifford", "fixtures", "report", "cli",
)


@pytest.mark.parametrize("name", ["nonion"] + [f"nonion.{m}" for m in MODULES])
def test_public_names_resolve_once(name):
    module = importlib.import_module(name)
    names = module.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []
