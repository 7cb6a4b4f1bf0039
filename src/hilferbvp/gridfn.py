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
    """Samples w_i = (t_i - a)^sigma z(t_i); w_0 stores lim_{t->a+}."""

    grid: Grid
    sigma: float
    values: np.ndarray

    def __post_init__(self):
        if not (0.0 <= self.sigma < 1.0):
            raise GridError(f"sigma must be in [0, 1), got {self.sigma}")
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_nodes,):
            raise GridError(
                f"need {self.grid.n_nodes} values, got shape {v.shape}")
        if not v.flags.writeable:
            object.__setattr__(self, "values", v)
        else:
            v = v.copy()
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
    """Write nodes as CSV rows t,w,z.

    The z column is g.unweighted() from t_1 on; at t_0 it is w_0 when
    sigma = 0 and empty when sigma > 0 (the sample is unbounded there).
    Floats are rendered with repr so rereading loses nothing.
    """
    if isinstance(out, str):
        with open(out, "w", encoding="utf-8") as fh:
            write_csv(g, fh)
        return
    out.write("t,w,z\n")
    z = ["" if g.sigma > 0.0 else repr(float(g.values[0]))]
    z += map(repr, g.unweighted().tolist())
    for t, w, zc in zip(g.grid.nodes.tolist(), g.values.tolist(), z):
        out.write(f"{t!r},{w!r},{zc}\n")

