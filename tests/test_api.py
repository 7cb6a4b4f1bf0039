"""Every name a module exports in __all__ resolves."""

import importlib
from pathlib import Path

import pytest

import hilferbvp

MODULES = sorted(p.stem for p in Path(hilferbvp.__file__).parent.glob("*.py")
                 if p.stem != "__init__")


@pytest.mark.parametrize("name", ["hilferbvp"]
                         + [f"hilferbvp.{m}" for m in MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(module.__all__) == len(set(module.__all__))
