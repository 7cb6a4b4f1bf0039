"""Tests for graded grids and weighted grid functions."""

import io

import numpy as np
import pytest

from hilferbvp.gridfn import (
    Grid,
    GridError,
    WeightedGridFunction,
    weighted_norm,
    write_csv,
)


def csv_text(fn):
    buf = io.StringIO()
    write_csv(fn, buf)
    return buf.getvalue()


def test_grid_basic_properties():
    g = Grid(0.0, 1.0, 8, 2.0)
    assert g.nodes.shape == (9,)
    assert g.n_nodes == 9
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 1.0
    assert np.all(np.diff(g.nodes) > 0)


def test_grid_matches_power_law():
    g = Grid(0.0, 2.0, 10, 3.0)
    for i in range(11):
        assert g.nodes[i] == pytest.approx(2.0 * (i / 10.0) ** 3.0, abs=1e-15)


def test_grid_uniform_when_grading_one():
    g = Grid(1.0, 3.0, 4, 1.0)
    assert np.allclose(g.nodes, [1.0, 1.5, 2.0, 2.5, 3.0])


def test_grid_endpoints_exact():
    g = Grid(0.25, 0.75, 7, 2.5)
    assert g.nodes[0] == 0.25
    assert g.nodes[-1] == 0.75


def test_grid_offsets():
    g = Grid(2.0, 5.0, 6, 2.0)
    assert np.allclose(g.offsets(), g.nodes - 2.0)
    assert g.offsets()[0] == 0.0


def test_grid_strictly_increasing_large():
    # heavy grading near the left endpoint must not collapse nodes
    g = Grid(0.0, 1.0, 1_000_000, 4.0)
    assert np.all(np.diff(g.nodes) > 0)


def test_grid_validation():
    with pytest.raises(GridError):
        Grid(1.0, 1.0, 8, 2.0)
    with pytest.raises(GridError):
        Grid(1.0, 0.0, 8, 2.0)
    with pytest.raises(GridError):
        Grid(0.0, 1.0, 0, 2.0)
    with pytest.raises(GridError):
        Grid(0.0, 1.0, 8, 0.0)
    with pytest.raises(GridError):
        Grid(0.0, 1.0, 8, -1.0)


def test_grid_rejects_overflowing_length():
    # b - a = inf turns every node into inf or nan
    with pytest.raises(GridError, match="overflows"):
        Grid(-1e308, 1e308, 8, 2.0)
    with pytest.raises(GridError, match="overflows"):
        Grid(0.0, np.inf, 8, 2.0)


def test_grid_rejects_collapsed_mesh():
    # (i/N)^10 steps near a fall below the spacing of floats near 1e6
    with pytest.raises(GridError, match="mesh collapsed"):
        Grid(1e6, 1e6 + 1, 1000, 10.0)


@pytest.mark.parametrize("n_panels", [64.5, 64.0, True, "64", None])
def test_grid_rejects_non_integer_panel_count(n_panels):
    with pytest.raises(GridError, match="n_panels must be an integer"):
        Grid(0.0, 1.0, n_panels, 2.0)


def test_grid_stores_numpy_panel_count_as_int():
    from hilferbvp.fracops import _operator

    g = Grid(0.0, 1.0, np.int64(64), 2.0)
    assert type(g.n_panels) is int and g.n_nodes == 65
    assert g == Grid(0.0, 1.0, 64, 2.0)
    assert hash(g) == hash(Grid(0.0, 1.0, 64, 2.0))
    assert _operator(g, 0.5, 1.0 / 3.0).n == 65


def test_grid_equality_and_hash():
    g1 = Grid(0.0, 1.0, 8, 2.0)
    g2 = Grid(0.0, 1.0, 8, 2.0)
    g3 = Grid(0.0, 1.0, 16, 2.0)
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1 != g3


def test_weighted_values_round_trip():
    g = Grid(0.0, 1.0, 16, 2.0)
    sigma = 1.0 / 3.0
    w = np.linspace(1.0, 2.0, 17)
    fn = WeightedGridFunction(g, sigma, w)
    assert np.allclose(fn.values, w)
    z = fn.unweighted()
    assert z.shape == (16,)
    tau = g.nodes[1:] - g.nodes[0]
    assert np.allclose(z, w[1:] / tau**sigma)


def test_sigma_zero_identity_weight():
    g = Grid(0.0, 1.0, 8, 1.0)
    vals = np.sin(g.nodes)
    fn = WeightedGridFunction(g, 0.0, vals)
    assert np.array_equal(fn.unweighted(), vals[1:])


def test_weighted_norm_properties():
    g = Grid(0.0, 1.0, 32, 2.0)
    rng = np.random.default_rng(5)
    u = WeightedGridFunction(g, 0.3, rng.normal(size=33))
    v = WeightedGridFunction(g, 0.3, rng.normal(size=33))
    nu = weighted_norm(u)
    nv = weighted_norm(v)
    assert nu == pytest.approx(np.max(np.abs(u.values)))
    # homogeneity
    u3 = WeightedGridFunction(g, 0.3, 3.0 * u.values)
    assert weighted_norm(u3) == pytest.approx(3.0 * nu, rel=1e-15)
    # triangle inequality
    s = WeightedGridFunction(g, 0.3, u.values + v.values)
    assert weighted_norm(s) <= nu + nv + 1e-15


def test_values_read_only():
    g = Grid(0.0, 1.0, 8, 2.0)
    fn = WeightedGridFunction(g, 0.5, np.ones(9))
    with pytest.raises(ValueError):
        fn.values[3] = 7.0


def test_constructor_does_not_alias_input():
    g = Grid(0.0, 1.0, 8, 2.0)
    src = np.ones(9)
    fn = WeightedGridFunction(g, 0.5, src)
    src[2] = 99.0
    assert fn.values[2] == 1.0


def test_constructor_copies_read_only_input():
    """A read-only view and a broadcast 0-d array are copied too: writing
    their base afterwards leaves values alone."""
    g = Grid(0.0, 1.0, 8, 2.0)
    base = np.ones(9)
    view = base[:]
    view.setflags(write=False)
    scalar = np.array(2.0)
    for src, owner in ((view, base), (np.broadcast_to(scalar, (9,)), scalar)):
        fn = WeightedGridFunction(g, 0.5, src)
        want = fn.values.copy()
        owner[...] = 99.0
        assert np.array_equal(fn.values, want)
        assert not fn.values.flags.writeable


def test_constructor_validation():
    g = Grid(0.0, 1.0, 8, 2.0)
    with pytest.raises(GridError):
        WeightedGridFunction(g, -0.1, np.ones(9))
    with pytest.raises(GridError):
        WeightedGridFunction(g, 1.0, np.ones(9))
    with pytest.raises(GridError):
        WeightedGridFunction(g, 0.5, np.ones(8))


def test_csv_header_and_shape():
    g = Grid(0.0, 1.0, 4, 2.0)
    fn = WeightedGridFunction(g, 0.5, np.arange(5.0))
    lines = csv_text(fn).strip().split("\n")
    assert lines[0] == "t,w,z"
    assert len(lines) == 6
    # node 0 has no finite unweighted value when sigma > 0
    first = lines[1].split(",")
    assert first[2] == ""
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.0


def test_csv_round_trips_floats():
    g = Grid(0.0, 1.0, 8, 2.0)
    rng = np.random.default_rng(17)
    fn = WeightedGridFunction(g, 1.0 / 3.0, rng.normal(size=9))
    lines = csv_text(fn).strip().split("\n")[1:]
    z = fn.unweighted()
    for i, line in enumerate(lines):
        t_s, w_s, z_s = line.split(",")
        assert float(t_s) == fn.grid.nodes[i]
        assert float(w_s) == fn.values[i]
        if i > 0:
            assert float(z_s) == z[i - 1]


def test_csv_sigma_zero_has_all_z():
    g = Grid(0.0, 1.0, 4, 1.0)
    fn = WeightedGridFunction(g, 0.0, np.ones(5))
    lines = csv_text(fn).strip().split("\n")[1:]
    assert [float(line.split(",")[2]) for line in lines] == fn.values.tolist()


def test_write_csv_path_and_stream(tmp_path):
    g = Grid(0.0, 1.0, 4, 2.0)
    fn = WeightedGridFunction(g, 0.5, np.ones(5))
    path = tmp_path / "out.csv"
    write_csv(fn, str(path))
    assert path.read_text() == csv_text(fn)


def _ref_csv(fn):
    """The whole-list writer: every row formatted from full Python lists."""
    z = ["" if fn.sigma > 0.0 else repr(float(fn.values[0]))]
    z += map(repr, fn.unweighted().tolist())
    rows = zip(fn.grid.nodes.tolist(), fn.values.tolist(), z)
    return "t,w,z\n" + "".join(f"{t!r},{w!r},{zc}\n" for t, w, zc in rows)


@pytest.mark.parametrize("n,sigma", [
    (1, 0.0), (1, 0.5), (3, 0.5), (511, 0.0), (512, 1.0 / 3.0),
    (513, 0.0), (1025, 0.2), (8192, 1.0 / 3.0),
])
def test_csv_streamed_matches_reference(n, sigma):
    """The 512-row chunks write what one pass over whole lists writes, byte
    for byte, across chunk edges and for values spanning the float range."""
    rng = np.random.default_rng(n)
    v = rng.normal(size=n + 1) * 10.0 ** rng.integers(-300, 300, size=n + 1)
    fn = WeightedGridFunction(Grid(0.0, 1.0, n, 2.0), sigma, v)
    assert csv_text(fn) == _ref_csv(fn)
