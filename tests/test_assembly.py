"""Matrix assembly against symbolic and closed-form integral oracles."""

import dataclasses
import hashlib

import numpy as np
import pytest
import sympy as sp
from scipy.sparse import csr_matrix

from dirichlet_fem import (
    EvalError,
    InteriorSystem,
    SparseSymMatrix,
    as_function,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    assemble_system,
    build_rect_mesh,
    cg_solve,
    extend_by_zero,
    nodal_values,
    norm,
    parse,
    restrict_interior,
)
from dirichlet_fem import assembly
from dirichlet_fem.assembly import _ground_mode, stiffness_spectrum
from tests.conftest import (
    SINE_GRIDS,
    as_csr,
    boundary_indices,
    dense_sym,
    interior_indices,
    local_mass,
    local_stiffness,
    make_system,
    p1_field,
    triangle_order_sum,
    triangles,
)


def sympy_local(coords):
    """Exact local matrices by symbolic integration over one triangle.

    Builds the affine nodal basis from rational vertex coordinates and
    integrates via the map from the reference triangle, sharing no code
    with the closed-form implementation under test.
    """
    pts = [tuple(sp.Rational(str(c)) for c in v) for v in coords]
    x, y, xi, eta = sp.symbols("x y xi eta")
    V = sp.Matrix([[1, px, py] for px, py in pts])
    basis = []
    for i in range(3):
        e = sp.zeros(3, 1)
        e[i] = 1
        c = V.solve(e)
        basis.append(c[0] + c[1] * x + c[2] * y)

    (x1, y1), (x2, y2), (x3, y3) = pts
    xm = x1 + (x2 - x1) * xi + (x3 - x1) * eta
    ym = y1 + (y2 - y1) * xi + (y3 - y1) * eta
    jac = sp.Abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))

    def tri_integral(f):
        g = sp.expand(f.subs({x: xm, y: ym}, simultaneous=True)) * jac
        return sp.integrate(sp.integrate(g, (eta, 0, 1 - xi)), (xi, 0, 1))

    K = np.empty((3, 3))
    M = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            gi = sp.diff(basis[i], x) * sp.diff(basis[j], x) + sp.diff(
                basis[i], y
            ) * sp.diff(basis[j], y)
            K[i, j] = float(tri_integral(gi))
            M[i, j] = float(tri_integral(basis[i] * basis[j]))
    return K, M


def test_reference_triangle_hand_values():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    K = local_stiffness(coords)
    M = local_mass(coords)
    K_hand = 0.5 * np.array([[2.0, -1, -1], [-1, 1, 0], [-1, 0, 1]])
    M_hand = np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
    assert np.allclose(K, K_hand, atol=1e-15)
    assert np.allclose(M, M_hand, atol=1e-17)


@pytest.mark.parametrize(
    "coords",
    [
        [(0, 0), (1, 0), (0, 1)],
        [(0, 0), (2, 0), (1, 3)],
        [(-1, 1), (3, 0), (0, 2)],
        [(0.5, -0.25), (1.5, 0.25), (0.75, 1.5)],
    ],
)
def test_local_matrices_match_symbolic(coords):
    K_ref, M_ref = sympy_local(coords)
    arr = np.asarray(coords, dtype=float)
    assert np.allclose(local_stiffness(arr), K_ref, rtol=1e-13, atol=1e-15)
    assert np.allclose(local_mass(arr), M_ref, rtol=1e-13, atol=1e-17)


def test_local_rejects_degenerate_and_clockwise():
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    clockwise = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    for coords in (flat, clockwise):
        with pytest.raises(ValueError):
            local_stiffness(coords)
        with pytest.raises(ValueError):
            local_mass(coords)


def test_symmetry_is_exact(skewed6x5):
    for mat in (skewed6x5.A, skewed6x5.M):
        arr = mat.toarray()
        assert np.array_equal(arr, arr.T)


def test_stiffness_kernel_contains_constants(skewed6x5):
    # row sums vanish: constants have zero gradient
    mesh, A = skewed6x5.mesh, skewed6x5.A
    ones = np.ones(mesh.node_count)
    scale = float(np.max(np.abs(A.toarray())))
    assert np.max(np.abs(A.apply(ones))) <= 1e-12 * scale


def test_mass_total_is_area(skewed6x5):
    mesh, M = skewed6x5.mesh, skewed6x5.M
    area = 4.0 * 2.5
    total = float(np.ones(mesh.node_count) @ M.apply(np.ones(mesh.node_count)))
    assert abs(total - area) <= 1e-12 * area


def test_galerkin_exactness_affine(skewed6x5):
    # for nodal interpolants of affine fields the discrete brackets
    # reproduce the analytic integrals
    mesh, A, M = skewed6x5.mesh, skewed6x5.A, skewed6x5.M
    x0, y0, x1, y1 = mesh.domain
    area = (x1 - x0) * (y1 - y0)
    u_fn = lambda x, y: 1.0 + 2.0 * x - 3.0 * y
    w_fn = lambda x, y: -0.5 + 1.5 * x + 0.25 * y
    u = nodal_values(mesh, u_fn)
    w = nodal_values(mesh, w_fn)

    grad_exact = area * (2.0 * 1.5 + (-3.0) * 0.25)
    got = float(u @ A.apply(w))
    assert abs(got - grad_exact) <= 1e-12 * abs(grad_exact)

    xs, ys = sp.symbols("xs ys")
    u_sym = 1 + 2 * xs - 3 * ys
    w_sym = sp.Rational(-1, 2) + sp.Rational(3, 2) * xs + sp.Rational(1, 4) * ys
    l2_exact = float(
        sp.integrate(
            sp.integrate(u_sym * w_sym, (xs, x0, x1)), (ys, y0, y1)
        )
    )
    got = float(u @ M.apply(w))
    assert abs(got - l2_exact) <= 1e-12 * abs(l2_exact)


def test_interior_positive_definite(unit8):
    A_int = unit8.A_int
    rng = np.random.default_rng(1)
    for _ in range(100):
        v = rng.standard_normal(A_int.dimension)
        assert A_int.quad_form(v) > 0.0


# anisotropic cells at an offset: hx = 2/9, hy = 0.7
ANISO9x4 = (-0.3, 0.1, 1.7, 2.9, 9, 4)


def test_assembly_is_the_triangle_order_sum_of_local_matrices(skewed6x5):
    # reference: add each triangle's upper nominal local entries, from the
    # cell sides, into a dict, in triangle order; both triangles of the
    # assembly must match it bit for bit, on grids whose node lines are
    # not dyadic too
    for system in (skewed6x5, make_system(*ANISO9x4)):
        mesh, A, M = system.mesh, system.A, system.M
        for assembled, local in ((A, local_stiffness), (M, local_mass)):
            want = triangle_order_sum(mesh, local)
            assert assembled.toarray().tobytes() == want.tobytes()


def triangle_order_load(mesh, f) -> np.ndarray:
    """Load vector added up one triangle and one Python float at a time.

    Midpoint k of edge (k, k+1) is 0.5 (p_k + p_{k+1}); vertex k gets
    area/3 * 1/2 (f_k + f_{k-1}) from the two midpoints on its edges.
    The signed area is 1/2 ((y1 - y2)(x0 - x2) - (y2 - y0)(x2 - x1)),
    the operations the assembly does.
    """
    load = [0.0] * mesh.node_count
    nodes = mesh.nodes.tolist()
    for tri in triangles(mesh).tolist():
        (x0, y0), (x1, y1), (x2, y2) = p = [nodes[v] for v in tri]
        area = 0.5 * ((y1 - y2) * (x0 - x2) - (y2 - y0) * (x2 - x1))
        mids = [[0.5 * (a + b) for a, b in zip(p[k], p[(k + 1) % 3])] for k in range(3)]
        fm = [f(x, y) for x, y in mids]
        for k in range(3):
            load[tri[k]] += area / 3.0 * 0.5 * (fm[k] + fm[k - 1])
    return np.array(load)


def test_load_is_the_triangle_order_sum(skewed6x5):
    # only +, -, * and /, so f gives the same bits on arrays and floats
    def f(x, y):
        return x * x - 3.0 * x * y + y / (1.0 + x * x) - 0.7

    for mesh in (skewed6x5.mesh, build_rect_mesh(*ANISO9x4)):
        want = triangle_order_load(mesh, f)
        assert assemble_load(mesh, f).tobytes() == want.tobytes()


# reorderings of a node's terms: the first two sit on 0.0, and
# 0.0 + a + b = 0.0 + b + a, so only the other two can change a sum
REORDERINGS = {
    "reversed": (lambda terms: terms[::-1], False),
    "last-two-swapped": (lambda terms: terms[:-2] + terms[:-3:-1], False),
    "first-two-swapped": (lambda terms: terms[1::-1] + terms[2:], True),
}


@pytest.mark.parametrize("name", sorted(REORDERINGS))
def test_triangle_order_oracles_see_the_summation_order(monkeypatch, skewed6x5, name):
    # the slice sums, given their terms in another order, must fail both
    # triangle-order oracles unless the order cannot matter; on skewed6x5
    # both reorderings that can matter move stiffness bits, though every
    # cell has the same local entries
    reorder, same = REORDERINGS[name]
    slice_sum = assembly._slice_sum

    def reordered(ny, nx, terms, local):
        return slice_sum(ny, nx, reorder(list(terms)), local)

    monkeypatch.setattr(assembly, "_slice_sum", reordered)
    mesh = skewed6x5.mesh

    def f(x, y):
        return x * x - 3.0 * x * y + y / (1.0 + x * x) - 0.7

    stiffness = assemble_stiffness(mesh).toarray().tobytes()
    assert (stiffness == triangle_order_sum(mesh, local_stiffness).tobytes()) is same
    load = assemble_load(mesh, f).tobytes()
    assert (load == triangle_order_load(mesh, f).tobytes()) is same


def test_assembly_deterministic(unit8):
    mesh, A, M = unit8.mesh, unit8.A, unit8.M
    A2 = assemble_stiffness(mesh)
    M2 = assemble_mass(mesh)
    assert A == A2 and M == M2
    assert A != M


def test_load_constant_source():
    mesh = build_rect_mesh(0.0, 0.0, 1.0, 1.0, 2, 2)
    load = assemble_load(mesh, lambda x, y: 1.0)
    assert abs(float(np.sum(load)) - 1.0) <= 1e-14
    # center node owns one third of its 6-triangle star
    assert abs(load[4] - 0.25) <= 1e-15


def test_load_sums_exactly_for_quadratics(skewed6x5):
    # midpoint rule integrates quadratics exactly; the basis sums to 1,
    # so the load total equals the integral of f
    mesh = skewed6x5.mesh
    x0, y0, x1, y1 = mesh.domain
    fn = lambda x, y: x * x + 3.0 * x * y + y * y - x + 2.0
    load = assemble_load(mesh, fn)
    xs, ys = sp.symbols("xs ys")
    exact = float(
        sp.integrate(
            sp.integrate(
                xs**2 + 3 * xs * ys + ys**2 - xs + 2, (xs, x0, x1)
            ),
            (ys, y0, y1),
        )
    )
    assert abs(float(np.sum(load)) - exact) <= 1e-12 * abs(exact)


def test_load_of_interpolant_is_mass_apply(unit8):
    # for P1 sources the quadrature load coincides with M f_h
    mesh, M = unit8.mesh, unit8.M
    rng = np.random.default_rng(7)
    f_vals = rng.standard_normal(mesh.node_count)
    load = assemble_load(mesh, p1_field(mesh, f_vals))
    want = M.apply(f_vals)
    assert np.allclose(load, want, rtol=0.0, atol=1e-15 * np.max(np.abs(want)))


def test_load_rejects_nonfinite_source(unit4):
    mesh = unit4.mesh
    # the first point f is called on: the midpoint of the first horizontal edge
    with pytest.raises(ValueError, match=r"nan at quadrature point \(0.125, 0.0\)"):
        assemble_load(mesh, lambda x, y: float("nan"))
    # horizontal edges come before vertical ones, so not (1.0, 0.875)
    with pytest.raises(ValueError, match=r"inf at quadrature point \(0.875, 1.0\)"):
        assemble_load(mesh, lambda x, y: np.where(x + y > 1.7, np.inf, 1.0))


def test_load_names_the_bad_point_a_parsed_source_names(unit4):
    # A parsed source raises EvalError at its first bad point; a numpy
    # callable returns nan there and assemble_load names the same point.
    with pytest.raises(EvalError) as parsed:
        assemble_load(unit4.mesh, as_function(parse("sqrt(1.7 - x - y)")))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError) as numeric:
        assemble_load(unit4.mesh, lambda x, y: np.sqrt(1.7 - x - y))
    assert type(numeric.value) is ValueError
    assert parsed.value.point == (0.875, 1.0)
    assert str(numeric.value).endswith(f"at quadrature point {parsed.value.point}")


def test_norms_of_affine_field(skewed6x5):
    mesh, A, M = skewed6x5.mesh, skewed6x5.A, skewed6x5.M
    x0, y0, x1, y1 = mesh.domain
    area = (x1 - x0) * (y1 - y0)
    u = nodal_values(mesh, lambda x, y: 2.0 * x - y + 0.5)

    grad = norm(u, A)
    assert abs(grad - np.sqrt(area * 5.0)) <= 1e-12 * grad

    xs, ys = sp.symbols("xs ys")
    l2_exact = float(
        sp.sqrt(
            sp.integrate(
                sp.integrate((2 * xs - ys + sp.Rational(1, 2)) ** 2, (xs, x0, x1)),
                (ys, y0, y1),
            )
        )
    )
    l2 = norm(u, M)
    assert abs(l2 - l2_exact) <= 1e-12 * l2
    w12 = norm(u, A, M)
    assert abs(w12 - np.hypot(l2, grad)) <= 1e-12 * w12


def test_norm_grad_of_constant_is_roundoff(unit4):
    # the true value is 0; anything at the quad-form roundoff scale passes
    mesh, A = unit4.mesh, unit4.A
    u = np.full(mesh.node_count, 3.7)
    scale = np.sqrt(np.finfo(float).eps * A.abs_quad_form(u))
    assert norm(u, A) <= scale


def grid(name):
    return SINE_GRIDS.get(name, (0.0, 0.0, 1.0, 1.0, 256, 256))


def interior_offsets(nx, ny, cell_diagonals):
    # interior rows hold nx - 1 nodes: a horizontal neighbour is 1 on,
    # a vertical one nx - 1 and a cell-diagonal one nx
    wide, tall = nx > 2, ny > 2
    pairs = ((1, wide), (nx - 1, tall), (nx, wide and tall and cell_diagonals))
    return sorted({0} | {k for k, present in pairs if present})


@pytest.mark.parametrize("name", sorted(SINE_GRIDS) + ["unit256"])
def test_stored_pattern(name):
    # A keeps the diagonal and both sides of every horizontal and
    # vertical edge (h and v of them); M also the nx * ny cell
    # diagonals, at offset nx + 2, where A is exactly zero and stores
    # nothing.  At 256^2 the sum is the benchmark's assembly.nnz.
    x0, y0, x1, y1, nx, ny = grid(name)
    system = make_system(x0, y0, x1, y1, nx, ny)
    A, M = system.A, system.M
    n, h, v = system.mesh.node_count, (ny + 1) * nx, (nx + 1) * ny
    assert type(A.nnz) is type(M.nnz) is int  # the benchmark writes it as JSON
    assert A.nnz == n + 2 * (h + v)
    assert M.nnz == n + 2 * (h + v + nx * ny)
    assert A.offsets.tolist() == [0, 1, nx + 1]
    assert M.offsets.tolist() == [0, 1, nx + 1, nx + 2]
    assert np.count_nonzero(M.bands[3]) == nx * ny
    a, m = as_csr(A).tocoo(), as_csr(M).tocoo()
    assert (a.nnz, m.nnz) == (A.nnz, M.nnz)
    assert not np.any(np.abs(a.col - a.row) == nx + 2)
    assert np.count_nonzero(np.abs(m.col - m.row) == nx + 2) == 2 * nx * ny
    if name == "unit256":
        assert A.nnz + M.nnz == 789506
    # restriction regroups by the interior offsets
    assert system.M_int.offsets.tolist() == interior_offsets(nx, ny, True)
    assert system.A_int.offsets.tolist() == interior_offsets(nx, ny, False)
    if nx > 2 and ny > 2:
        assert system.M_int.offsets.tolist() == [0, 1, nx - 1, nx]
        assert system.A_int.offsets.tolist() == [0, 1, nx - 1]


@pytest.mark.parametrize("name", sorted(SINE_GRIDS) + ["unit256"])
def test_products_have_the_bits_of_scipy(name):
    # the diagonals are added in column order, as csr_matvec does, so
    # every product has the same bits as the scipy CSR of the matrix
    system = make_system(*grid(name))
    rng = np.random.default_rng(17)
    for key in ("A", "M", "A_int", "M_int"):
        m = getattr(system, key)
        oracle = as_csr(m)
        assert m.nnz == oracle.nnz
        assert np.array_equal(m.bands[0], oracle.diagonal())
        for x in (rng.standard_normal(m.dimension), np.ones(m.dimension)):
            assert m.apply(x).tobytes() == (oracle @ x).tobytes(), key
            ax = np.abs(x)
            assert m.abs_quad_form(x) == float(np.dot(ax, abs(oracle) @ ax)), key


def test_equality_is_exact():
    a = np.array([[2.0, 0.1, 0.0], [0.1, 2.0, -1.0], [0.0, -1.0, 2.0]])
    m = dense_sym(csr_matrix(a))
    assert m == dense_sym(a.copy())
    assert m.offsets.tolist() == [0, 1]
    # one ulp off, in both triangles of an off-diagonal
    b = a.copy()
    b[0, 1] = b[1, 0] = np.nextafter(0.1, 1.0)
    assert m != dense_sym(b)
    # one ulp off on the main diagonal
    b = a.copy()
    b[2, 2] = np.nextafter(2.0, 3.0)
    assert m != dense_sym(b)
    # one more diagonal, holding the smallest subnormal
    c = a.copy()
    c[0, 2] = c[2, 0] = 5e-324
    assert dense_sym(c).offsets.tolist() == [0, 1, 2]
    assert m != dense_sym(c)
    # another shape, another object
    assert m != dense_sym(np.eye(4))
    assert m != object()


def test_form_sqrt_rejects_negative_forms():
    m = dense_sym(csr_matrix(-np.eye(3)))
    with pytest.raises(ValueError, match="negative"):
        norm(np.ones(3), m)


def test_sparse_matches_dense_oracle():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((12, 12))
    a = a + a.T
    a[np.abs(a) < 0.8] = 0.0  # keep it genuinely sparse
    a = (a + a.T) / 2.0
    m = dense_sym(csr_matrix(a))
    assert m == dense_sym(a)

    x = rng.standard_normal(12)
    assert np.allclose(m.apply(x), a @ x, rtol=1e-15, atol=1e-15)
    assert m.apply(x).tobytes() == (csr_matrix(a) @ x).tobytes()
    assert m.quad_form(x) == pytest.approx(x @ a @ x, rel=1e-13)
    assert m.abs_quad_form(x) == pytest.approx(
        np.abs(x) @ np.abs(a) @ np.abs(x), rel=1e-13
    )
    assert np.array_equal(m.bands[0], np.diag(a))
    assert np.array_equal(m.toarray(), a)
    # both triangles count, nonzeros only; the diagonals that hold one
    assert m.nnz == np.count_nonzero(a)
    assert m.offsets.tolist() == [
        k for k in range(12) if k == 0 or np.any(np.diagonal(a, k))
    ]
    dense = m.toarray()
    for i, j in ((0, 0), (3, 7), (7, 3), (11, 2)):
        assert dense[i, j] == dense[j, i] == a[i, j]


def test_constructor_refuses_asymmetric_and_non_square():
    with pytest.raises(ValueError, match="symmetric"):
        dense_sym(csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]])))
    with pytest.raises(ValueError, match="symmetric"):  # off by one ulp
        dense_sym(csr_matrix([[1.0, 0.1], [np.nextafter(0.1, 1.0), 1.0]]))
    with pytest.raises(ValueError, match="square"):
        dense_sym(csr_matrix(np.ones((2, 3))))
    with pytest.raises(ValueError, match="square"):
        dense_sym(np.ones(3))


def test_restrict_extend_round_trip(unit4):
    mesh = unit4.mesh
    rng = np.random.default_rng(9)
    v = rng.standard_normal(mesh.interior_count)
    full = extend_by_zero(mesh, v)
    assert np.array_equal(restrict_interior(mesh, full), v)
    assert np.all(full[boundary_indices(mesh)] == 0.0)
    with pytest.raises(ValueError):
        extend_by_zero(mesh, np.zeros(mesh.interior_count + 1))
    with pytest.raises(ValueError):
        restrict_interior(mesh, np.zeros(mesh.node_count - 1))


def random_grids(seed: int, count: int) -> dict:
    """Seeded grids of 2 to 39 cells a side on non-dyadic domains, the
    first with nx = 2 and the second with ny = 2."""
    rng = np.random.default_rng(seed)
    grids = {}
    for i in range(count):
        nx, ny = (int(n) for n in rng.integers(2, 40, 2))
        nx, ny = 2 if i == 0 else nx, 2 if i == 1 else ny
        (x0, y0), (w, h) = rng.uniform(-3.0, 3.0, 2), rng.uniform(0.1, 5.0, 2)
        grids[f"random{i}-{nx}x{ny}"] = (x0, y0, x0 + w, y0 + h, nx, ny)
    return grids


INTERIOR_GRIDS = {**SINE_GRIDS, **random_grids(25, 8)}


@pytest.mark.parametrize("name", sorted(INTERIOR_GRIDS))
def test_interior_system_holds_the_interior_blocks(name):
    # the principal block A[inner] of the full bracket, taken by scipy;
    # unit2x2 and unit2x7 add the bands whose interior offsets coincide
    system = make_system(*INTERIOR_GRIDS[name])
    mesh = system.mesh
    inner = interior_indices(mesh)
    for full, block in ((system.A, system.A_int), (system.M, system.M_int)):
        want = as_csr(full)[inner][:, inner]
        assert want.shape == (block.dimension,) * 2
        assert (want != as_csr(block)).nnz == 0
    # a reassembly gives the same bits
    again = assemble_system(mesh)
    for key in ("A", "M", "A_int", "M_int"):
        assert getattr(again, key) == getattr(system, key)
    assert system.A == assemble_stiffness(mesh)
    assert system.M == assemble_mass(mesh)


def test_interior_blocks_are_exactly_symmetric():
    # restrict does not re-check: a principal block of an exactly
    # symmetric matrix must come out exactly symmetric
    system = make_system(*SINE_GRIDS["skewed37x23"])
    inner = interior_indices(system.mesh)
    for full, block in ((system.A, system.A_int), (system.M, system.M_int)):
        oracle = as_csr(full)[inner][:, inner]
        assert (oracle != oracle.T).nnz == 0
        assert np.array_equal(block.toarray(), oracle.toarray())
        # dense_sym's symmetry check passes and stores the same
        assert dense_sym(oracle) == block
    assert system.A_int.inverse is not None
    assert system.M_int.inverse is None


# SHA-256 of each bracket's offsets (int64) and bands, as assembled from
# per-cell np.diff arrays before the brackets were built from the two cell
# sides.  The node lines of these grids are dyadic, so np.diff(xs) is hx
# and no bit may move.
DYADIC_BANDS = {
    "unit16": {
        "A": "ac195519b3c5a8a133065ee081293bb08cd33eaa6cbd75d21c5c2eacfbf14afc",
        "M": "17a7c211d6cf2e4aa3fbf1915fdf83b8ba8cff60ce0c7ad4e11f1eca9ca01ae7",
        "A_int": "6811f208ab4107a1800542d81aa862651561c0854249ac098ea41c334cd8e90c",
        "M_int": "846e2c13fee47ac16ac1f0734b7c9a8338ed672b145dc170ab4918d29d6d0b74",
    },
    "strip40x4": {
        "A": "5cc6b4b531ce4a0f77e39c910f4323e521f58f996f6b1a33e2267b0082469672",
        "M": "e828683efa2d0e7a76c963ae32a58a118e0150f71dbad37c1fa84e995cd661c9",
        "A_int": "432413eff07bf4c090c7b6c9c0edf3b68d7d99552dd92a0b1c2688c758c2d3f2",
        "M_int": "46ddfd882fa8a8d24763c4c9e2cdf78260590e8940f4e7c0c9347f60e8e75825",
    },
}


# node lines that are not dyadic: np.diff(xs) varies by ulps around hx
OFF_DYADIC = {
    "skewed37x23": SINE_GRIDS["skewed37x23"],
    "shifted63x41": (0.1, -0.3, 0.7, 0.2, 63, 41),
}

# The same digests of OFF_DYADIC's brackets, as assembled from the cell
# sides and stored as node-sized bands before the brackets became stencils.
OFF_DYADIC_BANDS = {
    "skewed37x23": {
        "A": "bdce458ed2b844f4a06182afc732e42a3804b1d8d96f7c6349b59bbb6468b9a2",
        "M": "4cb8157ef4697d9b5a88a927e218bc7e4932be48e2edac304f8932482420cf19",
        "A_int": "57dfae019ea2816e07cfa4fb49d73c31d5667a104f11c6a681131563ec648340",
        "M_int": "3a6fe02da9b45dfd24a759de9255c3fda8db43e4c08b44eb6a655cf44e3fe159",
    },
    "shifted63x41": {
        "A": "f3531164705b2ddb92d3d469598c1aaab4414d90f92f9f1b71ce2e03ea921bd8",
        "M": "a6febf75992c482d2109acfb6196d741f072e8e1ab0b5eef1b9be4e24d184457",
        "A_int": "03bcc888ed8b111bfbb4bc4aee88ceade6d509dae0f55b802a5872bfc8c7cd38",
        "M_int": "77712e2fffa62a3b2f6f7a50d6ea4b1df235257463d05ab55aacb3c1cba16378",
    },
}


@pytest.mark.parametrize("name", sorted(DYADIC_BANDS) + sorted(OFF_DYADIC_BANDS))
def test_dyadic_grids_keep_every_band_bit(name):
    system = make_system(*{**SINE_GRIDS, **OFF_DYADIC}[name])
    for key, want in {**DYADIC_BANDS, **OFF_DYADIC_BANDS}[name].items():
        m = getattr(system, key)
        digest = hashlib.sha256(np.asarray(m.offsets, dtype=np.int64).tobytes())
        for band in m.bands:
            digest.update(band.tobytes())
        assert digest.hexdigest() == want, key


@pytest.mark.parametrize("name", sorted(OFF_DYADIC))
def test_interior_brackets_are_exact_stencils_off_dyadic_grids(name):
    # every interior coupling of one kind is one float, so A_int is the
    # five-point operator of (hx, hy) that the sine inverse inverts
    system = make_system(*OFF_DYADIC[name])
    for m in (system.A_int, system.M_int):
        for band in m.bands:
            assert len(np.unique(band[band != 0.0])) == 1
    rng = np.random.default_rng(11)
    for _ in range(3):
        b = rng.standard_normal(system.A_int.dimension)
        assert cg_solve(system.A_int, b).iterations == 1


def test_norm_inf_is_the_largest_product_with_ones_computed_once():
    # the bits of |A| times ones, as scipy's CSR product adds them; the
    # product is formed on the first call and never again
    system = make_system(*ANISO9x4)
    for key in ("A", "M", "A_int", "M_int"):
        m = getattr(system, key)
        want = float((abs(as_csr(m)) @ np.ones(m.dimension)).max())
        calls = []
        product = m._product
        m._product = lambda bands, x: calls.append(1) or product(bands, x)
        assert m.norm_inf() == want and m.norm_inf() == want, key
        assert m.apply_error() == (2 * len(m.offsets) - 1) * np.finfo(float).eps * want
        assert len(calls) == 1, key


def test_a_kept_product_carries_the_row_sum_norm_over():
    # _Kept takes over its matrix's state, so a wrap of a matrix whose
    # norm_inf has run forms no second product with ones
    system = make_system(*ANISO9x4)
    for key in ("A", "M", "A_int", "M_int"):
        m = getattr(system, key)
        want = m.norm_inf()
        kept = assembly._Kept(m, x := np.ones(m.dimension))
        calls = []
        product = kept._product
        kept._product = lambda bands, x: calls.append(1) or product(bands, x)
        assert kept.norm_inf() == want and calls == [], key
        assert kept == m and kept.inverse is m.inverse, key
        assert np.array_equal(kept.apply(x), m.apply(x)) and calls == [], key


def stored_arrays(value):
    """Every numpy array a matrix holds, through its attributes, lists,
    tuples and dicts; functions, such as an inverse, are not entered."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from stored_arrays(item)
    elif isinstance(value, SparseSymMatrix):
        yield from stored_arrays(vars(value))


@pytest.mark.parametrize("name", ["unit300x20", "wide1000x2"])
def test_brackets_hold_no_array_longer_than_a_grid_line(name):
    # a bracket keeps scalars and lines of one grid row, never a node-sized
    # band, and its terms refuse a write; the sine inverse of A_int is a
    # function and keeps its own spectrum
    x0, y0, x1, y1, nx, ny = {**SINE_GRIDS, "wide1000x2": (0.0, 0.0, 1.0, 1.0, 1000, 2)}[name]
    system = make_system(x0, y0, x1, y1, nx, ny)
    for key in ("A", "M", "A_int", "M_int"):
        sizes = [array.size for array in stored_arrays(getattr(system, key))]
        assert sizes and max(sizes) <= max(nx, ny) + 1, key
        for array in stored_arrays(getattr(system, key).terms):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 7.0


def test_a_matrix_keeps_read_only_copies_of_its_terms():
    # a caller's array, and a band built from the matrix, can change
    # without changing the matrix or its remembered row-sum norm
    c, line = np.array([2.0, 2.0, 2.0]), np.array([-1.0, -1.0])
    m = SparseSymMatrix((1, 3), [(0, c, []), (1, 0.0, [(slice(0, 2), line)])])
    ones = np.ones(3)
    assert m.apply(ones).tolist() == [1.0, 0.0, 1.0] and m.norm_inf() == 4.0
    c[:], line[:] = 10.0, 5.0
    m.bands[0][:] = 7.0
    assert m.apply(ones).tolist() == [1.0, 0.0, 1.0] and m.norm_inf() == 4.0
    assert float((abs(as_csr(m)) @ ones).max()) == 4.0
    for _, value, fixes in m.terms:
        for array in (value, *(v for _, v in fixes)):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0


@pytest.mark.parametrize("name", sorted(SINE_GRIDS))
def test_sine_inverse_inverts_the_interior_stiffness(name):
    system = make_system(*SINE_GRIDS[name])
    rng = np.random.default_rng(5)
    for _ in range(3):
        r = rng.standard_normal(system.mesh.interior_count)
        z = system.A_int.inverse(r)
        assert np.linalg.norm(system.A_int.apply(z) - r) <= 1e-12 * np.linalg.norm(r)


@pytest.mark.parametrize("name", ["unit16", "skewed37x23", "unit300x20"])
def test_ground_mode_is_the_lowest_eigenvector(name):
    # the start vector of estimate_poincare: positive, the sine product
    # at the interior nodes, and A_int s = mu_1 s to roundoff
    system = make_system(*SINE_GRIDS[name])
    mesh = system.mesh
    s = _ground_mode(mesh)
    assert s.shape == (mesh.interior_count,)
    assert (s > 0.0).all()
    x0, y0, x1, y1 = mesh.domain
    x, y = mesh.nodes[interior_indices(mesh)].T
    sx, sy = np.sin(np.pi * (x - x0) / (x1 - x0)), np.sin(np.pi * (y - y0) / (y1 - y0))
    assert np.abs(s - sx * sy).max() <= 1e-14
    mu_1 = stiffness_spectrum(mesh).min()
    defect = system.A_int.apply(s) - mu_1 * s
    roundoff = 10 * np.finfo(float).eps * system.A_int.norm_inf() * np.linalg.norm(s)
    assert np.linalg.norm(defect) <= roundoff


def test_interior_system_rejects_matrices_of_another_mesh(unit4, unit8):
    with pytest.raises(ValueError, match="do not fit the mesh"):
        InteriorSystem(unit4.mesh, unit8.A, unit8.M, unit8.A_int, unit8.M_int)
    with pytest.raises(ValueError, match="do not fit the mesh"):
        InteriorSystem(unit4.mesh, unit4.A, unit4.M, unit4.A, unit4.M_int)


def test_interior_system_rejects_the_brackets_of_the_transposed_grid():
    # a 4x9 and a 9x4 grid both have 50 nodes and 24 interior nodes, so
    # only the brackets' grids tell them apart
    tall, wide = make_system(0.0, 0.0, 1.0, 1.0, 4, 9), make_system(0.0, 0.0, 1.0, 1.0, 9, 4)
    assert wide.A.dimension == tall.mesh.node_count
    assert wide.A_int.dimension == tall.mesh.interior_count
    with pytest.raises(ValueError, match="do not fit the mesh"):
        InteriorSystem(tall.mesh, wide.A, wide.M, wide.A_int, wide.M_int)
    for key in ("A", "M", "A_int", "M_int"):
        with pytest.raises(ValueError, match="do not fit the mesh"):
            dataclasses.replace(tall, **{key: getattr(wide, key)})

