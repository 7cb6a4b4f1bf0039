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


def test_solve_loads_no_numpy_polynomial():
    """The Gauss-Legendre rule comes from the same Golub-Welsch as the
    Gauss-Jacobi ones, so an integral never imports numpy.polynomial."""
    code = ("import sys, numpy as np; "
            "from hilferbvp.fracops import rl_integral; "
            "from hilferbvp.gridfn import Grid, WeightedGridFunction; "
            "g = WeightedGridFunction(Grid(0.0, 1.0, 256, 2.0), 1 / 3, "
            "np.ones(257)); rl_integral(0.5, g); "
            "print('numpy.polynomial' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert out.stdout == "False\n"
