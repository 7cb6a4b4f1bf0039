"""Every name a module exports in __all__ resolves."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hilferbvp

SRC = Path(hilferbvp.__file__).parent.parent
MODULES = sorted(p.stem for p in Path(hilferbvp.__file__).parent.glob("*.py")
                 if p.stem != "__init__")


@pytest.mark.parametrize("name", ["hilferbvp"]
                         + [f"hilferbvp.{m}" for m in MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(module.__all__) == len(set(module.__all__))


def test_import_needs_no_scipy():
    code = "import sys, hilferbvp; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert out.stdout == "False\n"
