import numpy as np
import pytest

from etdsplit.errors import ShapeError, ValidationError
from etdsplit.linsolve import assemble_full
from etdsplit.problems import ProblemSpec, discretize, make_problem
from etdsplit.spatial import AXIS_X, AXIS_Y, DIRICHLET, NEUMANN, Grid2D, axis_matrix
from helpers import (
    apply_axis,
    dense_axis_operator,
    dense_full_operator,
    full_matvec,
    loop_axis_operator,
)


def test_grid_properties():
    g = Grid2D(a=0.0, b=1.0, m=19, bc=DIRICHLET)
    assert g.h == pytest.approx(0.05)
    assert g.p1d == 19
    nodes = g.axis_nodes()
    assert nodes[0] == pytest.approx(0.05)
    assert nodes[-1] == pytest.approx(0.95)

    gn = Grid2D(a=-np.pi, b=np.pi, m=19, bc=NEUMANN)
    assert gn.p1d == 21
    assert gn.axis_nodes()[0] == pytest.approx(-np.pi)
    assert gn.axis_nodes()[-1] == pytest.approx(np.pi)


@pytest.mark.parametrize("kwargs", [
    dict(a=0.0, b=1.0, m=2, bc=DIRICHLET),
    dict(a=0.0, b=0.0, m=5, bc=DIRICHLET),
    dict(a=0.0, b=1.0, m=5, bc="periodic"),
])
def test_grid_validation(kwargs):
    with pytest.raises(ValidationError):
        Grid2D(**kwargs)


def _b(m, h, bc):
    """axis_matrix on the grid [0, (m+1) h] and that grid's 1/(12 h^2)."""
    grid = Grid2D(a=0.0, b=(m + 1) * h, m=m, bc=bc)
    return axis_matrix(grid), 1.0 / (12.0 * grid.h * grid.h)


def test_interior_row_coefficients():
    for bc, row in ((DIRICHLET, 3), (NEUMANN, 4)):
        b, scale = _b(8, 0.1, bc)
        np.testing.assert_allclose(
            b[row, row - 2: row + 3],
            np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) * scale, rtol=1e-14)


def test_dirichlet_edge_rows():
    b, scale = _b(6, 0.25, DIRICHLET)
    np.testing.assert_allclose(b[0, :4], np.array([-20.0, 6.0, 4.0, -1.0]) * scale,
                               rtol=1e-14)
    np.testing.assert_allclose(b[5, 2:], np.array([-1.0, 4.0, 6.0, -20.0]) * scale,
                               rtol=1e-14)
    # second row is the interior stencil with the boundary term dropped
    np.testing.assert_allclose(b[1, :4], np.array([16.0, -30.0, 16.0, -1.0]) * scale,
                               rtol=1e-14)


def test_neumann_rows_and_row_sums():
    b, scale = _b(6, 0.2, NEUMANN)
    np.testing.assert_allclose(b[0, :3], np.array([-30.0, 32.0, -2.0]) * scale,
                               rtol=1e-14)
    np.testing.assert_allclose(b[1, :4], np.array([16.0, -31.0, 16.0, -1.0]) * scale,
                               rtol=1e-14)
    np.testing.assert_allclose(b[-1, -3:], np.array([-2.0, 32.0, -30.0]) * scale,
                               rtol=1e-14)
    assert np.max(np.abs(b.sum(axis=1))) <= 1e-12 * scale


@pytest.mark.parametrize("m", [3, 4, 5, 8])
def test_neumann_constant_in_kernel(m):
    b, scale = _b(m, 0.125, NEUMANN)
    assert np.max(np.abs(b @ np.ones(m + 2))) <= 1e-12 * scale * 30


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
@pytest.mark.parametrize("m", [3, 5, 8])
def test_bandwidth_at_most_three(bc, m):
    row, col = np.nonzero(_b(m, 0.1, bc)[0])
    assert np.max(np.abs(row - col)) <= 3


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
@pytest.mark.parametrize("m", [*range(3, 41), 79, 319, 321])  # plus the benchmark grids
def test_build_axis_operator_bitwise_equals_loop_assembly(bc, m):
    # spatial.axis_matrix, the one statement of B, against the loop assembly
    grid = Grid2D(a=0.0, b=2.7, m=m, bc=bc)
    got = axis_matrix(grid)
    want = loop_axis_operator(m, grid.h, bc)
    assert got.shape == want.shape == (grid.p1d, grid.p1d) and got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_build_validation():
    # the grid checks its own size; discretize checks a spec's diffusion
    with pytest.raises(ValidationError):
        Grid2D(0.0, 1.0, 2, DIRICHLET)
    base = make_problem("enzyme")
    for diffusion in ((-2.0,), (0.0,), (float("nan"),), (float("inf"),), (1.0, 1.0), (), 1.0):
        spec = ProblemSpec(name="bad", a=base.a, b=base.b, bc=base.bc, species=1,
                           diffusion=diffusion, reaction=base.reaction, initial=base.initial,
                           exact=None, default_T=1.0)
        with pytest.raises(ValidationError, match="diffusion"):
            discretize(spec, 5)


def test_split_matches_brute_force_kron_m3():
    grid = Grid2D(a=0.0, b=1.0, m=3, bc=DIRICHLET)
    diffusion = (1.0,)
    # direct entrywise 2-D Laplacian assembly as the independent oracle
    b = axis_matrix(grid)
    p = 3
    lap = np.zeros((p * p, p * p))
    for iy in range(p):
        for ix in range(p):
            row = iy * p + ix
            for j in range(p):
                lap[row, iy * p + j] += b[ix, j]
                lap[row, j * p + ix] += b[iy, j]
    dense_sum = (dense_axis_operator(grid, diffusion, AXIS_X, 0)
                 + dense_axis_operator(grid, diffusion, AXIS_Y, 0))
    np.testing.assert_allclose(dense_sum, -lap, rtol=0, atol=1e-12 * np.max(np.abs(lap)))


@pytest.mark.parametrize("bc,m", [(DIRICHLET, 3), (DIRICHLET, 6), (NEUMANN, 4)])
def test_commutation(bc, m):
    grid, d = Grid2D(a=-1.0, b=2.0, m=m, bc=bc), (0.7,)
    rng = np.random.default_rng(42)
    p = grid.p1d
    u = rng.normal(size=(1, p, p))
    xy = apply_axis(grid, d, apply_axis(grid, d, u, AXIS_X, 0)[np.newaxis], AXIS_Y, 0)
    yx = apply_axis(grid, d, apply_axis(grid, d, u, AXIS_Y, 0)[np.newaxis], AXIS_X, 0)
    a_dense = dense_axis_operator(grid, d, AXIS_X, 0)
    bound = 1e-12 * np.max(np.abs(u)) * np.max(np.abs(a_dense)) ** 2
    assert np.max(np.abs(xy - yx)) <= bound


def test_apply_axis_cos_second_derivative():
    # -d * B applied to cos(x) converges to d*cos(x): fourth order away from
    # the walls; the one-sided Dirichlet edge rows are locally third order
    # (Taylor residual -h^3 w^(5)/12), so the max norm halves its order.
    errs_max, errs_int = [], []
    for m in (19, 39):
        grid = Grid2D(a=-np.pi / 2, b=np.pi / 2, m=m, bc=DIRICHLET)
        x, _ = grid.meshgrid()
        u = np.cos(x)[np.newaxis]
        res = np.abs(apply_axis(grid, (2.0,), u, AXIS_X, 0) - 2.0 * np.cos(x))
        errs_max.append(np.max(res))
        errs_int.append(np.max(res[:, 1:-1]))
    assert 16.0 * 0.8 <= errs_int[0] / errs_int[1] <= 16.0 * 1.2
    assert 8.0 * 0.8 <= errs_max[0] / errs_max[1] <= 8.0 * 1.2


def test_apply_axis_zero_and_shapes():
    grid, d = Grid2D(a=0.0, b=1.0, m=4, bc=DIRICHLET), (1.0,)
    z = np.zeros((1, 4, 4))
    assert np.all(apply_axis(grid, d, z, AXIS_X, 0) == 0)
    with pytest.raises(ShapeError):
        apply_axis(grid, d, np.zeros((1, 5, 4)), AXIS_X, 0)
    with pytest.raises(ValidationError):
        apply_axis(grid, d, z, "diagonal", 0)


@pytest.mark.parametrize("bc,domain,max_ratio", [
    # Dirichlet edge rows are locally third order, so the residual max norm
    # gains only 8x per halving; interior rows and the symmetric Neumann
    # closure (odd derivatives of cos vanish at the walls) gain the full 16x.
    (DIRICHLET, (-np.pi / 2, np.pi / 2), 8.0),
    (NEUMANN, (-np.pi, np.pi), 16.0),
])
def test_spatial_order_coscos(bc, domain, max_ratio):
    d = 1.0
    errs_max, errs_int = [], []
    for m in (15, 31):
        grid = Grid2D(a=domain[0], b=domain[1], m=m, bc=bc)
        x, y = grid.meshgrid()
        u = (np.cos(x) * np.cos(y))[np.newaxis]
        au = apply_axis(grid, (d,), u, AXIS_X, 0) + apply_axis(grid, (d,), u, AXIS_Y, 0)
        res = np.abs(au - 2.0 * d * u[0])
        errs_max.append(np.max(res))
        errs_int.append(np.max(res[1:-1, 1:-1]))
    assert max_ratio * 0.8 <= errs_max[0] / errs_max[1] <= max_ratio * 1.2
    assert 16.0 * 0.8 <= errs_int[0] / errs_int[1] <= 16.0 * 1.2


def test_full_equals_split_sum_m3():
    grid = Grid2D(a=0.0, b=1.0, m=3, bc=DIRICHLET)
    full = assemble_full(grid, (1.5,))
    dense_sum = (dense_axis_operator(grid, (1.5,), AXIS_X, 0)
                 + dense_axis_operator(grid, (1.5,), AXIS_Y, 0))
    np.testing.assert_allclose(full.blocks[0].toarray(), dense_sum, rtol=1e-14)


def test_full_neumann_annihilates_constants():
    grid = Grid2D(a=0.0, b=1.0, m=3, bc=NEUMANN)
    full = assemble_full(grid, (2.0,))
    const = np.full((1, grid.p1d, grid.p1d), 7.0)
    out = full_matvec(full, const)
    assert np.max(np.abs(out)) <= 1e-10


def test_full_eigenvalues_positive_real_part_m4():
    grid = Grid2D(a=0.0, b=1.0, m=4, bc=DIRICHLET)
    full = assemble_full(grid, (1.0,))
    eigs = np.linalg.eigvals(full.blocks[0].toarray())
    assert np.min(eigs.real) > 0


def test_full_matvec_matches_apply_axis():
    grid = Grid2D(a=-1.0, b=1.0, m=5, bc=NEUMANN)
    diffusion = (0.5, 2.0)
    full = assemble_full(grid, diffusion)
    rng = np.random.default_rng(3)
    u = rng.normal(size=(2, grid.p1d, grid.p1d))
    via_axis = np.stack([
        apply_axis(grid, diffusion, u, AXIS_X, s) + apply_axis(grid, diffusion, u, AXIS_Y, s)
        for s in range(2)
    ])
    np.testing.assert_allclose(full_matvec(full, u), via_axis, rtol=1e-13, atol=1e-13)


def test_operators_match_dense_helper():
    # helper loop assembly against the package's sparse kron assembly
    grid = Grid2D(a=0.0, b=2.0, m=4, bc=NEUMANN)
    full = assemble_full(grid, (1.25,))
    np.testing.assert_allclose(full.blocks[0].toarray(),
                               dense_full_operator(grid, (1.25,), 0), rtol=1e-14)
