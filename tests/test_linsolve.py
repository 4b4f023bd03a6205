import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from etdsplit.errors import ShapeError, SingularSystemError, ValidationError
from etdsplit.linsolve import (
    EIGEN_COND_MAX,
    TensorEigenSolver,
    axis_eigenbasis,
    factorize_axis,
    factorize_full,
    shifted_axis_matrix,
    solve_axis_system,
    solve_full,
    tensor_eigen_solver,
)
from etdsplit.spatial import (
    AXIS_X,
    AXIS_Y,
    DIRICHLET,
    NEUMANN,
    AxisOperator,
    FullOperator,
    Grid2D,
    assemble_full,
    assemble_split,
)
from etdsplit.steppers import PADE, SMOOTHER
from helpers import dense_axis_operator, dense_reference_solve

ALL_POLES = (PADE.c1, PADE.c2, SMOOTHER.e1, SMOOTHER.e2, SMOOTHER.f1, SMOOTHER.f2)


def _ops(bc=DIRICHLET, m=5, d=1.0, a=0.0, b=1.0):
    return assemble_split(Grid2D(a=a, b=b, m=m, bc=bc), (d,))


def _bands_to_dense(bands, kl=3, ku=3):
    n = bands.shape[1]
    out = np.zeros((n, n), dtype=bands.dtype)
    for j in range(n):
        for i in range(max(0, j - ku), min(n, j + kl + 1)):
            out[i, j] = bands[kl + ku + i - j, j]
    return out


def test_factorization_residual():
    ops = _ops(m=5)
    k = 0.1
    fact = factorize_axis(ops, k, PADE.c1, AXIS_X, 0)
    rng = np.random.default_rng(7)
    rhs = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    x = solve_axis_system(fact, rhs, AXIS_X)
    m_dense = k * dense_axis_operator(ops, AXIS_X, 0) - PADE.c1 * np.eye(25)
    resid = np.max(np.abs((m_dense @ x.ravel()).reshape(5, 5) - rhs))
    assert resid <= 1e-12 * np.max(np.abs(rhs))


def test_degenerate_zero_operator_is_identity():
    grid = Grid2D(a=0.0, b=1.0, m=4, bc=DIRICHLET)
    zero_op = AxisOperator(mat=sparse.dia_matrix((4, 4)), h=grid.h, bc=grid.bc)
    ops_zero = assemble_split(grid, (1.0,))
    ops_zero = type(ops_zero)(grid=grid, diffusion=(1.0,), axis_op=zero_op)
    fact = factorize_axis(ops_zero, 0.5, -1.0 + 0.0j, AXIS_Y, 0)
    rng = np.random.default_rng(0)
    rhs = rng.normal(size=(4, 4))
    x = solve_axis_system(fact, rhs, AXIS_Y)
    np.testing.assert_allclose(x, rhs, rtol=0, atol=1e-14)


def test_factorization_determinism():
    ops = _ops(m=6)
    f1 = factorize_axis(ops, 0.2, PADE.c2, AXIS_X, 0)
    f2 = factorize_axis(ops, 0.2, PADE.c2, AXIS_X, 0)
    assert np.array_equal(f1.lu, f2.lu)
    assert np.array_equal(f1.ipiv, f2.ipiv)
    rhs = np.full((6, 6), 0.3) + 0.1j
    assert np.array_equal(solve_axis_system(f1, rhs, AXIS_X),
                          solve_axis_system(f2, rhs, AXIS_X))


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("pole", ALL_POLES)
def test_axis_solve_matches_dense_kron(bc, m, pole):
    ops = _ops(bc=bc, m=m, d=0.7, a=-1.0, b=1.5)
    k = 0.25
    p = ops.grid.p1d
    rng = np.random.default_rng(m)
    rhs = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
    for axis in (AXIS_X, AXIS_Y):
        fact = factorize_axis(ops, k, pole, axis, 0)
        x = solve_axis_system(fact, rhs, axis)
        m_dense = k * dense_axis_operator(ops, axis, 0) - pole * np.eye(p * p)
        x_ref = np.linalg.solve(m_dense, rhs.ravel()).reshape(p, p)
        assert np.max(np.abs(x - x_ref)) <= 1e-10 * np.max(np.abs(x_ref))


def test_axis_solve_zero_rhs_and_inverse_composition():
    ops = _ops(bc=NEUMANN, m=4)
    k = 0.5
    p = ops.grid.p1d
    fact = factorize_axis(ops, k, PADE.c2, AXIS_X, 0)
    assert np.all(solve_axis_system(fact, np.zeros((p, p)), AXIS_X) == 0)

    rng = np.random.default_rng(11)
    y = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
    m_dense = k * dense_axis_operator(ops, AXIS_X, 0) - PADE.c2 * np.eye(p * p)
    rhs = (m_dense @ y.ravel()).reshape(p, p)
    x = solve_axis_system(fact, rhs, AXIS_X)
    assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))


def test_axis_solve_shape_mismatch():
    ops = _ops(m=4)
    fact = factorize_axis(ops, 0.1, PADE.c1, AXIS_X, 0)
    with pytest.raises(ShapeError):
        solve_axis_system(fact, np.zeros((5, 4)), AXIS_X)


def test_axis_validation():
    ops = _ops(m=4)
    with pytest.raises(ValidationError):
        factorize_axis(ops, 0.0, PADE.c1, AXIS_X, 0)
    with pytest.raises(ValidationError):
        factorize_axis(ops, 0.1, PADE.c1, "z", 0)


@pytest.mark.parametrize("k", [1e-3, 0.1, 1.0])
@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
def test_all_poles_nonsingular(k, bc):
    ops = _ops(bc=bc, m=5)
    for pole in ALL_POLES:
        factorize_axis(ops, k, pole, AXIS_X, 0)  # must not raise


def test_full_solve_matches_dense():
    grid = Grid2D(a=0.0, b=1.0, m=6, bc=DIRICHLET)
    full = assemble_full(grid, (0.4,))
    k = 0.1
    fact = factorize_full(full, k, PADE.c1)
    rng = np.random.default_rng(5)
    rhs = rng.normal(size=(1, 6, 6))
    x = solve_full(fact, rhs)
    m_dense = k * full.blocks[0].toarray() - PADE.c1 * np.eye(36)
    x_ref = np.linalg.solve(m_dense, rhs.ravel()).reshape(1, 6, 6)
    assert np.max(np.abs(x - x_ref)) <= 1e-10 * np.max(np.abs(x_ref))


def test_full_solve_shift_only():
    grid = Grid2D(a=0.0, b=1.0, m=3, bc=DIRICHLET)
    zero_block = sparse.csr_matrix((9, 9))
    op = FullOperator(grid=grid, diffusion=(1.0,), blocks=(zero_block,))
    fact = factorize_full(op, 1.0, -4.0)
    rhs = np.arange(9.0).reshape(1, 3, 3)
    np.testing.assert_allclose(fact.solve(rhs), rhs / 4.0, rtol=1e-14)


def test_full_solve_repeatable_and_real_shift():
    grid = Grid2D(a=0.0, b=1.0, m=4, bc=NEUMANN)
    full = assemble_full(grid, (1.0,))
    fact = factorize_full(full, 0.05, -1.0)  # (k A + I), real
    assert fact.dtype == np.dtype(float)
    rhs = np.linspace(0, 1, 36).reshape(1, 6, 6)
    x1 = fact.solve(rhs)
    x2 = fact.solve(rhs)
    assert np.array_equal(x1, x2)


def test_dense_reference_solve_basics():
    np.testing.assert_allclose(dense_reference_solve(np.eye(3), np.ones(3)), np.ones(3))
    np.testing.assert_allclose(
        dense_reference_solve(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 4.0])),
        np.array([1.0, 1.0]))
    with pytest.raises(SingularSystemError):
        dense_reference_solve(np.zeros((3, 3)), np.ones(3))
    with pytest.raises(ValidationError):
        dense_reference_solve(np.eye(65 * 65), np.ones(65 * 65))
    with pytest.raises(ShapeError):
        dense_reference_solve(np.ones((2, 3)), np.ones(2))


def test_dense_vs_banded_on_banded_input():
    # the 8x8 shifted axis matrix exercised through both solve paths
    ops = _ops(m=8, d=1.3)
    k = 0.3
    sam = shifted_axis_matrix(ops, k, PADE.c1, AXIS_X, 0)
    m_dense = _bands_to_dense(sam.bands)
    fact = factorize_axis(ops, k, PADE.c1, AXIS_X, 0)
    rng = np.random.default_rng(2)
    rhs = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    x_banded = fact.solve_columns(rhs)
    x_dense = dense_reference_solve(m_dense, rhs)
    assert np.max(np.abs(x_banded - x_dense)) <= 1e-12 * np.max(np.abs(x_dense))


def test_full_solver_species_blocks():
    grid = Grid2D(a=0.0, b=1.0, m=4, bc=NEUMANN)
    full = assemble_full(grid, (0.5, 2.0))
    fact = factorize_full(full, 0.2, PADE.c2)
    rng = np.random.default_rng(9)
    rhs = rng.normal(size=(2, 6, 6))
    x = fact.solve(rhs)
    for s in range(2):
        m_dense = 0.2 * full.blocks[s].toarray() - PADE.c2 * np.eye(36)
        x_ref = np.linalg.solve(m_dense, rhs[s].ravel()).reshape(6, 6)
        assert np.max(np.abs(x[s] - x_ref)) <= 1e-10 * np.max(np.abs(x_ref))
    with pytest.raises(ShapeError):
        fact.solve(rhs[:1])


# ---- tensor-product eigen-solves of the full operator ----

# (name, step multiple, shift) of every system the SBDF schemes and the
# presmoother solve with an eigen-solver.
EIGEN_SYSTEMS = (("sbdf4", 12.0, -25.0), ("sbdf1", 1.0, -1.0),
                 ("f1", 1.0, SMOOTHER.f1), ("f2", 1.0, SMOOTHER.f2),
                 ("e1", 1.0, SMOOTHER.e1), ("e2", 1.0, SMOOTHER.e2))

grids = st.builds(lambda bc, m: Grid2D(a=0.0, b=1.0, m=m, bc=bc),
                  st.sampled_from((DIRICHLET, NEUMANN)), st.integers(3, 8))
diffusions = st.lists(st.floats(0.1, 2.0), min_size=1, max_size=2).map(tuple)


def _eigen_and_sparse(grid, diffusion, k, shift):
    ops = assemble_split(grid, diffusion)
    solver = tensor_eigen_solver(axis_eigenbasis(ops.axis_op), ops.diffusion, k, shift)
    return solver, factorize_full(assemble_full(grid, diffusion), k, shift)


@settings(max_examples=60, deadline=None)
@given(grid=grids, diffusion=diffusions, k=st.floats(1e-4, 0.5),
       system=st.sampled_from(EIGEN_SYSTEMS), seed=st.integers(0, 2 ** 32 - 1))
def test_eigen_solve_matches_sparse_lu(grid, diffusion, k, system, seed):
    _, k_mult, shift = system
    solver, oracle = _eigen_and_sparse(grid, diffusion, k_mult * k, shift)
    p = grid.p1d
    rng = np.random.default_rng(seed)
    rhs = rng.normal(size=(len(diffusion), p, p))
    if np.iscomplexobj(shift):
        rhs = rhs + 1j * rng.normal(size=rhs.shape)
    want = oracle.solve(rhs)
    got = solver.solve(rhs)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=30, deadline=None)
@given(m=st.integers(3, 8), diffusion=diffusions, k=st.floats(1e-4, 0.5),
       system=st.sampled_from(EIGEN_SYSTEMS), value=st.floats(-10.0, 10.0))
def test_eigen_solve_preserves_constants_on_neumann_grids(m, diffusion, k, system, value):
    # A annihilates constants under zero-flux boundaries: (kA - shift) c = -shift c.
    _, k_mult, shift = system
    grid = Grid2D(a=0.0, b=1.0, m=m, bc=NEUMANN)
    ops = assemble_split(grid, diffusion)
    solver = tensor_eigen_solver(axis_eigenbasis(ops.axis_op), ops.diffusion,
                                 k_mult * k, shift)
    const = np.full((len(diffusion), grid.p1d, grid.p1d), value)
    got = solver.solve(const)
    assert np.max(np.abs(got - value / -shift)) <= 1e-12 * abs(value / shift)


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
def test_eigen_solve_real_shift_stays_real(bc):
    grid = Grid2D(a=0.0, b=1.0, m=5, bc=bc)
    solver, _ = _eigen_and_sparse(grid, (1.0,), 0.1, -1.0)
    out = solver.solve(np.ones((1, grid.p1d, grid.p1d)))
    assert out.dtype == np.dtype(float)


def test_eigen_solver_shape_and_step_validation():
    ops = _ops(m=4)
    basis = axis_eigenbasis(ops.axis_op)
    solver = tensor_eigen_solver(basis, ops.diffusion, 0.1, -1.0)
    assert isinstance(solver, TensorEigenSolver) and solver.shape == (1, 4, 4)
    with pytest.raises(ShapeError):
        solver.solve(np.zeros((1, 5, 4)))
    with pytest.raises(ValidationError):
        tensor_eigen_solver(basis, ops.diffusion, 0.0, -1.0)
    with pytest.raises(SingularSystemError):
        zero = AxisOperator(mat=sparse.dia_matrix((4, 4)), h=ops.grid.h, bc=DIRICHLET)
        tensor_eigen_solver(axis_eigenbasis(zero), (1.0,), 0.1, 0.0)


def test_eigenbasis_rejects_complex_eigenvalues():
    rotation = sparse.dia_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(SingularSystemError, match="complex"):
        axis_eigenbasis(AxisOperator(mat=rotation, h=1.0, bc=DIRICHLET))


def test_eigenbasis_rejects_ill_conditioned_eigenvectors():
    # Two nearly equal eigenvalues on a Jordan-like block: almost parallel
    # eigenvectors, cond(V) about 2e8.
    near_jordan = sparse.dia_matrix(np.array([[1.0, 1.0], [0.0, 1.0 + 1e-8]]))
    assert np.linalg.cond(np.linalg.eig(near_jordan.toarray())[1]) > EIGEN_COND_MAX
    with pytest.raises(SingularSystemError, match="ill-conditioned"):
        axis_eigenbasis(AxisOperator(mat=near_jordan, h=1.0, bc=DIRICHLET))
