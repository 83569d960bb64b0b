"""Grid construction: orderings, counts, areas, point evaluation."""

import dataclasses
import re

import numpy as np
import pytest

from dirichlet_fem import (
    Mesh,
    ProblemData,
    assemble_system,
    build_rect_mesh,
    eval_p1,
    nodal_values,
    solve,
)
from tests.conftest import boundary_indices, interior_indices, triangles


@pytest.mark.parametrize("nx,ny", [(2, 2), (3, 5), (8, 8), (16, 4)])
def test_counts(nx, ny):
    mesh = build_rect_mesh(0.0, 0.0, 1.0, 1.0, nx, ny)
    assert mesh.node_count == (nx + 1) * (ny + 1)
    assert triangles(mesh).shape == (2 * nx * ny, 3)
    assert int(np.sum(mesh.boundary_mask)) == 2 * (nx + ny)
    assert mesh.interior_count == (nx - 1) * (ny - 1)
    assert len(boundary_indices(mesh)) + len(interior_indices(mesh)) == (
        mesh.node_count
    )


def test_row_major_ordering():
    mesh = build_rect_mesh(0.0, 0.0, 1.0, 1.0, 2, 2)
    expected = [
        (0.0, 0.0), (0.5, 0.0), (1.0, 0.0),
        (0.0, 0.5), (0.5, 0.5), (1.0, 0.5),
        (0.0, 1.0), (0.5, 1.0), (1.0, 1.0),
    ]
    assert np.allclose(mesh.nodes, expected, atol=0.0)
    assert tuple(mesh.nodes[4].tolist()) == (0.5, 0.5)


def test_first_cell_split():
    # cell (0,0) splits along its lower-left -> upper-right diagonal
    mesh = build_rect_mesh(0.0, 0.0, 1.0, 1.0, 2, 2)
    assert triangles(mesh)[0].tolist() == [0, 1, 4]
    assert triangles(mesh)[1].tolist() == [0, 4, 3]


def test_triangles_follow_cell_order():
    nx, ny = 4, 3
    mesh = build_rect_mesh(0.0, 0.0, 1.0, 1.0, nx, ny)
    want = []
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            want += [(a, a + 1, a + nx + 2), (a, a + nx + 2, a + nx + 1)]
    assert triangles(mesh).tolist() == [list(t) for t in want]


def test_interior_star_size():
    # each interior node touches 6 triangles under the fixed split
    mesh = build_rect_mesh(0.0, 0.0, 1.0, 1.0, 4, 4)
    for node in interior_indices(mesh):
        star = np.sum(np.any(triangles(mesh) == node, axis=1))
        assert star == 6


def test_area_sum(skewed6x5):
    mesh = skewed6x5.mesh
    p = mesh.nodes[triangles(mesh)]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    assert np.all(areas > 0.0)
    total = float(np.sum(areas))
    exact = (3.0 - (-1.0)) * (4.5 - 2.0)
    assert abs(total - exact) <= 1e-12 * exact


def test_boundary_mask_matches_coordinates(skewed6x5):
    mesh = skewed6x5.mesh
    x0, y0, x1, y1 = mesh.domain
    on_edge = (
        np.isclose(mesh.nodes[:, 0], x0)
        | np.isclose(mesh.nodes[:, 0], x1)
        | np.isclose(mesh.nodes[:, 1], y0)
        | np.isclose(mesh.nodes[:, 1], y1)
    )
    assert np.array_equal(mesh.boundary_mask, on_edge)


def test_rebuild_is_bit_identical():
    a = build_rect_mesh(0.1, -0.3, 2.7, 1.9, 7, 3)
    b = build_rect_mesh(0.1, -0.3, 2.7, 1.9, 7, 3)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.boundary_mask, b.boundary_mask)
    assert np.array_equal(interior_indices(a), interior_indices(b))


@pytest.mark.parametrize(
    "args",
    [
        (0.0, 0.0, 0.0, 1.0, 2, 2),  # zero width
        (0.0, 0.0, 1.0, 0.0, 2, 2),  # zero height
        (1.0, 0.0, 0.0, 1.0, 2, 2),  # inverted corners
    ],
)
def test_degenerate_rectangle_rejected(args):
    with pytest.raises(ValueError, match="degenerate"):
        build_rect_mesh(*args)


@pytest.mark.parametrize(
    "args",
    [
        (0.0, 0.0, float("inf"), 1.0, 2, 2),
        (float("nan"), 0.0, 1.0, 1.0, 2, 2),
        (-1e308, 0.0, 1e308, 1.0, 2, 2),  # the extent overflows
    ],
)
def test_non_finite_rectangle_rejected(args):
    with pytest.raises(ValueError, match="must be finite"):
        build_rect_mesh(*args)


@pytest.mark.parametrize("nx,ny", [(1, 1), (1, 4), (5, 1), (0, 3)])
def test_no_interior_rejected(nx, ny):
    with pytest.raises(ValueError, match="interior"):
        build_rect_mesh(0.0, 0.0, 1.0, 1.0, nx, ny)


def test_node_count_cap_is_checked_before_allocating():
    # 10^10 nodes: the check must fire before any array is built
    with pytest.raises(ValueError, match="10000200001 nodes, over the cap"):
        build_rect_mesh(0.0, 0.0, 1.0, 1.0, 100000, 100000)


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: Mesh((0, 0, 1, 1), 1, 4), "grid 1x4 leaves no interior"),
        (lambda: Mesh((0, 0, 1, 1), 2000, 2000), "4004001 nodes, over the cap"),
        (lambda: Mesh((0, 0, 1e200, 1e200), 4, 4),
         "grid 4x4 gives cells of 2.5e+199 x 2.5e+199, whose squared sides"),
        (lambda: dataclasses.replace(build_rect_mesh(0, 0, 1, 1, 4, 4), nx=1),
         "grid 1x4 leaves no interior"),
    ],
    ids=["nx-1", "over-the-cap", "huge-cells", "replace"],
)
def test_every_construction_path_refuses_as_build_rect_mesh(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_mesh_is_its_grid():
    # three fields; after a solve only the two node lines are cached
    assert [f.name for f in dataclasses.fields(Mesh)] == ["domain", "nx", "ny"]
    mesh = Mesh((0, -1, 2, 1), 6, 5)
    assert mesh.domain == (0.0, -1.0, 2.0, 1.0)
    assert all(type(v) is float for v in mesh.domain)
    assert mesh == build_rect_mesh(0.0, -1.0, 2.0, 1.0, 6, 5)
    system = assemble_system(mesh)
    g = nodal_values(mesh, lambda x, y: x * y)
    solve(system, ProblemData(load=np.ones(mesh.node_count), g=g))
    assert sorted(vars(mesh)) == ["domain", "nx", "ny", "xs", "ys"]
    assert (len(mesh.xs), len(mesh.ys)) == (7, 6)
    assert mesh.cell_sides == (2.0 / 6, 2.0 / 5)


def test_nodal_values_order(unit4):
    mesh = unit4.mesh
    vals = nodal_values(mesh, lambda x, y: x + 10.0 * y)
    assert vals.shape == (mesh.node_count,)
    assert np.array_equal(vals, mesh.nodes[:, 0] + 10.0 * mesh.nodes[:, 1])
    # a callable returning a scalar is broadcast over the nodes
    assert np.array_equal(nodal_values(mesh, lambda x, y: 1.5), np.full(25, 1.5))


def test_eval_p1_reproduces_affine(skewed6x5):
    # P1 elements represent affine fields exactly, everywhere
    mesh = skewed6x5.mesh
    fn = lambda x, y: 2.0 - 3.0 * x + 0.5 * y
    vals = nodal_values(mesh, fn)
    rng = np.random.default_rng(11)
    x0, y0, x1, y1 = mesh.domain
    xs = rng.uniform(x0, x1, 200)
    ys = rng.uniform(y0, y1, 200)
    for x, y in zip(xs, ys):
        assert abs(eval_p1(mesh, vals, x, y) - fn(x, y)) <= 1e-12 * 10.0
    # one array call gives the point-by-point values
    at_once = eval_p1(mesh, vals, xs, ys)
    assert np.array_equal(at_once, [eval_p1(mesh, vals, x, y) for x, y in zip(xs, ys)])


def test_eval_p1_rejects_points_off_the_domain(unit4):
    mesh = unit4.mesh
    vals = np.arange(float(mesh.node_count))
    with pytest.raises(ValueError, match=r"point \(5.0, 5.0\) is not in the domain"):
        eval_p1(mesh, vals, 5.0, 5.0)
    with pytest.raises(ValueError, match=r"point \(nan, 0.5\)"):
        eval_p1(mesh, vals, float("nan"), 0.5)
    # the first bad point in row-major order is named
    with pytest.raises(ValueError, match=r"point \(0.5, -0.25\)"):
        eval_p1(mesh, vals, np.array([0.5, 0.5, 2.0]), np.array([0.5, -0.25, 0.5]))
    # a roundoff outside the rectangle is clamped onto it
    assert eval_p1(mesh, vals, 1.0 + 1e-15, -1e-15) == vals[4]


def test_eval_p1_at_nodes(unit4):
    mesh = unit4.mesh
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(mesh.node_count)
    for i in range(mesh.node_count):
        x, y = mesh.nodes[i]
        assert eval_p1(mesh, vals, float(x), float(y)) == pytest.approx(
            vals[i], abs=1e-14
        )
