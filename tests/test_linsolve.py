from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etdsplit.errors import ShapeError, SingularSystemError, ValidationError
from etdsplit.linsolve import (
    EIGEN_COND_MAX,
    FullOperator,
    TensorEigenSolver,
    assemble_full,
    axis_eigenbasis,
    axis_transform_basis,
    axis_transform_solver,
    factorize_full,
    tensor_eigen_solver,
)
from etdsplit.problems import discretize, make_problem
from etdsplit.spatial import (
    AXIS_X,
    AXIS_Y,
    DIRICHLET,
    NEUMANN,
    AxisOperator,
    Grid2D,
    assemble_split,
)
from etdsplit.steppers import ETDRK4P22IF, PADE, SMOOTHER, build_plan
from helpers import band_operator, dense_axis_operator, dense_reference_solve

ALL_POLES = (PADE.c1, PADE.c2, SMOOTHER.e1, SMOOTHER.e2, SMOOTHER.f1, SMOOTHER.f2)


def _ops(bc=DIRICHLET, m=5, d=1.0, a=0.0, b=1.0):
    return assemble_split(Grid2D(a=a, b=b, m=m, bc=bc), (d,))


def _axis_solve(ops, k, pole, axis, rhs):
    """(k*A_axis - pole*I)^-1 rhs for a complex (species, p, p) rhs.

    Built from the solver's real 2*Re(w ...) terms: weights 1/2 and -i/2
    recover the real and imaginary parts of the inverse applied to a real
    field.
    """
    basis = axis_transform_basis(ops.axis_op)
    solver = axis_transform_solver(basis, ops.diffusion, k, pole)
    re, im = basis.forward(rhs.real), basis.forward(rhs.imag)
    real = solver.terms(axis, (0.5, re), (0.5j, im))
    imag = solver.terms(axis, (-0.5j, re), (0.5, im))
    return basis.inverse(real) + 1j * basis.inverse(imag)


def _dense_axis_solve(ops, k, pole, axis, rhs):
    p = ops.grid.p1d
    out = np.empty(rhs.shape, dtype=complex)
    for s in range(ops.species):
        mat = k * dense_axis_operator(ops, axis, s) - pole * np.eye(p * p)
        out[s] = np.linalg.solve(mat, rhs[s].ravel()).reshape(p, p)
    return out


def _complex_field(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_factorization_residual():
    ops = _ops(m=5)
    k = 0.1
    rng = np.random.default_rng(7)
    rhs = _complex_field(rng, (1, 5, 5))
    x = _axis_solve(ops, k, PADE.c1, AXIS_X, rhs)
    m_dense = k * dense_axis_operator(ops, AXIS_X, 0) - PADE.c1 * np.eye(25)
    resid = np.max(np.abs((m_dense @ x.ravel()).reshape(1, 5, 5) - rhs))
    assert resid <= 1e-12 * np.max(np.abs(rhs))


def test_factorization_determinism():
    ops = _ops(m=6)
    basis = axis_transform_basis(ops.axis_op)
    f1 = axis_transform_solver(basis, ops.diffusion, 0.2, PADE.c2)
    f2 = axis_transform_solver(basis, ops.diffusion, 0.2, PADE.c2)
    assert np.array_equal(f1.inv_symbol, f2.inv_symbol)
    assert np.array_equal(f1.edge_in, f2.edge_in) and np.array_equal(f1.edge_out, f2.edge_out)
    rhs = basis.forward(np.full((1, 6, 6), 0.3))
    assert np.array_equal(f1.terms(AXIS_X, (PADE.w11, rhs)), f2.terms(AXIS_X, (PADE.w11, rhs)))


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("pole", ALL_POLES)
def test_axis_solve_matches_dense_kron(bc, m, pole):
    ops = _ops(bc=bc, m=m, d=0.7, a=-1.0, b=1.5)
    k = 0.25
    p = ops.grid.p1d
    rhs = _complex_field(np.random.default_rng(m), (1, p, p))
    for axis in (AXIS_X, AXIS_Y):
        x = _axis_solve(ops, k, pole, axis, rhs)
        x_ref = _dense_axis_solve(ops, k, pole, axis, rhs)
        assert np.max(np.abs(x - x_ref)) <= 1e-10 * np.max(np.abs(x_ref))


def test_axis_solve_zero_rhs_and_inverse_composition():
    ops = _ops(bc=NEUMANN, m=4)
    k = 0.5
    p = ops.grid.p1d
    assert np.all(_axis_solve(ops, k, PADE.c2, AXIS_X, np.zeros((1, p, p))) == 0)

    y = _complex_field(np.random.default_rng(11), (1, p, p))
    m_dense = k * dense_axis_operator(ops, AXIS_X, 0) - PADE.c2 * np.eye(p * p)
    rhs = (m_dense @ y.ravel()).reshape(1, p, p)
    x = _axis_solve(ops, k, PADE.c2, AXIS_X, rhs)
    assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))


def test_axis_solve_shape_mismatch():
    ops = _ops(m=4)
    solver = axis_transform_solver(axis_transform_basis(ops.axis_op), ops.diffusion,
                                   0.1, PADE.c1)
    for shape in ((1, 5, 4), (1, 4, 5), (2, 4, 4), (4, 4)):
        with pytest.raises(ShapeError):
            solver.terms(AXIS_X, (1.0, np.zeros(shape)))


def test_axis_validation():
    ops = _ops(m=4)
    basis = axis_transform_basis(ops.axis_op)
    with pytest.raises(ValidationError):
        axis_transform_solver(basis, ops.diffusion, 0.0, PADE.c1)
    solver = axis_transform_solver(basis, ops.diffusion, 0.1, PADE.c1)
    with pytest.raises(ValidationError):
        solver.terms("z", (1.0, np.zeros((1, 4, 4))))


@pytest.mark.parametrize("k", [1e-3, 0.1, 1.0])
@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
def test_all_poles_nonsingular(k, bc):
    ops = _ops(bc=bc, m=5)
    basis = axis_transform_basis(ops.axis_op)
    for pole in ALL_POLES:
        axis_transform_solver(basis, ops.diffusion, k, pole)  # must not raise


@settings(max_examples=80, deadline=None)
@given(bc=st.sampled_from((DIRICHLET, NEUMANN)), m=st.integers(3, 12),
       diffusion=st.lists(st.floats(0.1, 2.0), min_size=1, max_size=2, unique=True).map(tuple),
       pole=st.sampled_from((PADE.c1, PADE.c2)), axis=st.sampled_from((AXIS_X, AXIS_Y)),
       k=st.floats(0.01, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_transform_solve_matches_dense_shifted_solve(bc, m, diffusion, pole, axis, k, seed):
    ops = assemble_split(Grid2D(a=0.0, b=1.0, m=m, bc=bc), diffusion)
    p = ops.grid.p1d
    rhs = _complex_field(np.random.default_rng(seed), (len(diffusion), p, p))
    got = _axis_solve(ops, k, pole, axis, rhs)
    want = _dense_axis_solve(ops, k, pole, axis, rhs)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _perturbed(ops, row, col, delta):
    b = ops.axis_op.toarray()
    b[row, col] += delta * np.max(np.abs(b))
    axis_op = band_operator(b, h=ops.axis_op.h, bc=ops.axis_op.bc)
    return replace(ops, axis_op=axis_op)


@pytest.mark.parametrize("bc,row", [(DIRICHLET, 1), (DIRICHLET, 3), (NEUMANN, 0),
                                    (NEUMANN, 2), (NEUMANN, 7)])
def test_build_plan_rejects_operator_off_the_reflection_pattern(bc, row):
    disc = discretize(make_problem("model_dirichlet" if bc == DIRICHLET else "model_neumann"), 6)
    col = min(row + 1, disc.grid.p1d - 1)
    bad = replace(disc, ops=_perturbed(disc.ops, row, col, 1e-6))
    with pytest.raises(ValidationError, match="reflection"):
        build_plan(ETDRK4P22IF, bad, 0.1)
    build_plan(ETDRK4P22IF, disc, 0.1)  # the assembled operator passes


@pytest.mark.parametrize("row", [0, 4])
def test_dirichlet_edge_rows_come_from_the_assembled_operator(row):
    # any change to a Dirichlet edge row lands in the rank-2 correction
    ops = _perturbed(_ops(bc=DIRICHLET, m=5, d=0.9), row, 2, 0.3)
    rhs = _complex_field(np.random.default_rng(row), (1, 5, 5))
    for axis in (AXIS_X, AXIS_Y):
        got = _axis_solve(ops, 0.4, PADE.c2, axis, rhs)
        want = _dense_axis_solve(ops, 0.4, PADE.c2, axis, rhs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_full_solve_matches_dense():
    grid = Grid2D(a=0.0, b=1.0, m=6, bc=DIRICHLET)
    full = assemble_full(grid, (0.4,))
    k = 0.1
    fact = factorize_full(full, k, PADE.c1)
    rng = np.random.default_rng(5)
    rhs = rng.normal(size=(1, 6, 6))
    x = fact.solve(rhs)
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
@example(m=3, diffusion=(1.0,), k=0.5, system=EIGEN_SYSTEMS[1], value=5e-324)
def test_eigen_solve_preserves_constants_on_neumann_grids(m, diffusion, k, system, value):
    # A annihilates constants under zero-flux boundaries: (kA - shift) c = -shift c.
    # The absolute floor, 1e-12 * tiny, keeps the bound above the spacing of
    # subnormal values; for |value| >= 1e-300 it is under 1e-6 of the bound.
    _, k_mult, shift = system
    grid = Grid2D(a=0.0, b=1.0, m=m, bc=NEUMANN)
    ops = assemble_split(grid, diffusion)
    solver = tensor_eigen_solver(axis_eigenbasis(ops.axis_op), ops.diffusion,
                                 k_mult * k, shift)
    const = np.full((len(diffusion), grid.p1d, grid.p1d), value)
    got = solver.solve(const)
    bound = 1e-12 * abs(value / shift) + 1e-12 * np.finfo(float).tiny
    assert np.max(np.abs(got - value / -shift)) <= bound


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
        zero = AxisOperator(data=np.zeros((1, 4)), offsets=np.zeros(1, dtype=np.int32),
                            h=ops.grid.h, bc=DIRICHLET)
        tensor_eigen_solver(axis_eigenbasis(zero), (1.0,), 0.1, 0.0)


def test_eigenbasis_rejects_complex_eigenvalues():
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(SingularSystemError, match="complex"):
        axis_eigenbasis(band_operator(rotation))


def test_eigenbasis_rejects_ill_conditioned_eigenvectors():
    # Two nearly equal eigenvalues on a Jordan-like block: almost parallel
    # eigenvectors, cond(V) about 2e8.
    near_jordan = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-8]])
    assert np.linalg.cond(np.linalg.eig(near_jordan)[1]) > EIGEN_COND_MAX
    with pytest.raises(SingularSystemError, match="ill-conditioned"):
        axis_eigenbasis(band_operator(near_jordan))
