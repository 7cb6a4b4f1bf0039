"""Graded meshes and weighted grid functions.

A solution of a weakly singular problem behaves like (t - a)^(-sigma) near
the left endpoint, so plain samples are useless there.  A
WeightedGridFunction stores w_i = (t_i - a)^sigma z(t_i) instead, with w_0
holding the (finite) limit value.  Norms, boundary data, and the fixed-point
iteration all live in this weighted representation; unweighted samples are
recovered on demand away from the endpoint.

The mesh is graded toward a: t_i = a + (b - a) (i/N)^q, q >= 1, which
buys algebraic singularities back their convergence order.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

__all__ = [
    "Grid", "WeightedGridFunction", "GridError", "weighted_norm", "write_csv",
]


class GridError(ValueError):
    """Invalid mesh parameters (or a mesh that collapses in float arithmetic)."""


@dataclass(frozen=True)
class Grid:
    """Graded mesh on [a, b] with N panels: t_i = a + (b-a) (i/N)^q."""

    a: float
    b: float
    n_panels: int
    grading: float
    # derived, so equality and hash (fracops' cache keys) leave it out
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.b > self.a):
            raise GridError(f"need b > a, got [{self.a}, {self.b}]")
        if not np.isfinite(float(self.b) - float(self.a)):
            raise GridError(
                f"interval length b - a overflows, got [{self.a}, {self.b}]")
        n = self.n_panels
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise GridError(f"n_panels must be an integer, got {n!r}")
        # a numpy integer is stored as int: fracops calls int.bit_length
        object.__setattr__(self, "n_panels", int(n))
        if self.n_panels < 1:
            raise GridError(f"need at least one panel, got {self.n_panels}")
        if not self.grading >= 1.0:
            raise GridError(f"grading must be >= 1, got {self.grading}")
        i = np.arange(self.n_panels + 1, dtype=float)
        nodes = self.a + (self.b - self.a) * (i / self.n_panels) ** self.grading
        nodes[-1] = self.b
        if not np.all(np.diff(nodes) > 0.0):
            raise GridError(
                "mesh collapsed: adjacent nodes equal at this (N, grading) "
                "in float arithmetic")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def n_nodes(self) -> int:
        return self.n_panels + 1

    def offsets(self) -> np.ndarray:
        """t_i - a for every node."""
        return self.nodes - self.a


@dataclass(frozen=True)
class WeightedGridFunction:
    """Samples w_i = (t_i - a)^sigma z(t_i); w_0 stores lim_{t->a+}.
    values is an owned read-only copy of the array passed in."""

    grid: Grid
    sigma: float
    values: np.ndarray

    def __post_init__(self):
        if not (0.0 <= self.sigma < 1.0):
            raise GridError(f"sigma must be in [0, 1), got {self.sigma}")
        v = np.array(self.values, dtype=float)
        if v.shape != (self.grid.n_nodes,):
            raise GridError(
                f"need {self.grid.n_nodes} values, got shape {v.shape}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def unweighted(self) -> np.ndarray:
        """z(t_i) for i >= 1 (index 0 of the result is node 1)."""
        tau = self.grid.offsets()[1:]
        return self.values[1:] * tau ** (-self.sigma)


def weighted_norm(g: WeightedGridFunction) -> float:
    """Discrete weighted sup norm: max_i |w_i|."""
    return float(np.abs(g.values).max())


def write_csv(g: WeightedGridFunction, out: TextIO | str) -> None:
    """Write nodes as CSV rows t,w,z, 512 rows per write.

    The z column is g.unweighted() from t_1 on; at t_0 it is w_0 when
    sigma = 0 and empty when sigma > 0 (the sample is unbounded there).
    Floats are rendered with repr so rereading loses nothing.  Only one
    chunk of rows is ever held as Python floats and strings.
    """
    if isinstance(out, str):
        with open(out, "w", encoding="utf-8") as fh:
            write_csv(g, fh)
        return
    t0, w0 = float(g.grid.nodes[0]), float(g.values[0])
    out.write(f"t,w,z\n{t0!r},{w0!r},{'' if g.sigma > 0.0 else repr(w0)}\n")
    cols = (g.grid.nodes[1:], g.values[1:], g.unweighted())
    for lo in range(0, g.grid.n_panels, 512):
        rows = zip(*(c[lo:lo + 512].tolist() for c in cols))
        out.write("".join(f"{t!r},{w!r},{z!r}\n" for t, w, z in rows))

