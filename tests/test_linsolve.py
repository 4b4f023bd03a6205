import contextvars
import os
import sys
import threading
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.fft
import scipy.sparse as sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

import etdsplit.linsolve as linsolve
from etdsplit.errors import ShapeError, SingularSystemError, ValidationError
from etdsplit.linsolve import (
    EIGEN_COND_MAX,
    GRID_SPACE_MAX_P,
    THREAD_MIN_P,
    FullOperator,
    TensorEigenSolver,
    assemble_full,
    axis_eigenbasis,
    axis_solver,
    factorize_full,
    fold_halves,
    tensor_eigen_solver,
)
from etdsplit.spatial import AXIS_X, AXIS_Y, DIRICHLET, NEUMANN, Grid2D, axis_matrix
from etdsplit.problems import discretize, make_problem
from etdsplit.steppers import (
    ETDRK4P22,
    ETDRK4P22IF,
    PADE,
    SBDF4,
    SMOOTHER,
    SMOOTHER_ONLY,
    SplitWork,
    build_plan,
    etdrk4p22if_step,
    integrate,
)
from helpers import dense_axis_operator, dense_reference_solve, eigen_solve, refined_inverse

ALL_POLES = (PADE.c1, PADE.c2, SMOOTHER.e1, SMOOTHER.e2, SMOOTHER.f1, SMOOTHER.f2)


def _grid(bc=DIRICHLET, m=5, a=0.0, b=1.0):
    return Grid2D(a=a, b=b, m=m, bc=bc)


def _maps(grid, diffusion, k, pole, *specs):
    """The axis maps of specs, (axis, w, shift) each, as a split run builds them."""
    solver = axis_solver(grid.p1d, diffusion, k, pole)
    return solver, solver.axis_maps(fold_halves(axis_matrix(grid)), *specs)


def _axis_solve(grid, diffusion, k, pole, axis, rhs):
    """(k*A_axis - pole*I)^-1 rhs for a complex (species, p, p) rhs.

    Built from the solver's real 2*Re(w ...) axis maps: weights 1/2 and -i/2
    recover the real and imaginary parts of the inverse applied to a real
    field.
    """
    solver, (re_re, im_re, re_im, im_im) = _maps(
        grid, diffusion, k, pole, *((axis, w, 0.0) for w in (0.5, 0.5j, -0.5j, 0.5)))
    re, im = solver.forward(rhs.real), solver.forward(rhs.imag)
    scratch = np.empty(rhs.shape)

    def part(on_re, on_im):
        return on_im(im, on_re(re, np.empty(rhs.shape), scratch), scratch, add=True)
    return solver.inverse(part(re_re, im_re)) + 1j * solver.inverse(part(re_im, im_im))


def _dense_axis_solve(grid, diffusion, k, pole, axis, rhs):
    p = grid.p1d
    out = np.empty(rhs.shape, dtype=complex)
    for s in range(len(diffusion)):
        mat = k * dense_axis_operator(grid, diffusion, axis, s) - pole * np.eye(p * p)
        out[s] = np.linalg.solve(mat, rhs[s].ravel()).reshape(p, p)
    return out


def _complex_field(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_factorization_residual():
    grid = _grid(m=5)
    k = 0.1
    rng = np.random.default_rng(7)
    rhs = _complex_field(rng, (1, 5, 5))
    x = _axis_solve(grid, (1.0,), k, PADE.c1, AXIS_X, rhs)
    m_dense = k * dense_axis_operator(grid, (1.0,), AXIS_X, 0) - PADE.c1 * np.eye(25)
    resid = np.max(np.abs((m_dense @ x.ravel()).reshape(1, 5, 5) - rhs))
    assert resid <= 1e-12 * np.max(np.abs(rhs))


def test_factorization_determinism():
    grid = _grid(m=6)
    spec = (AXIS_X, PADE.w11, 1.0)
    (s1, (m1,)), (s2, (m2,)) = (_maps(grid, (1.0,), 0.2, PADE.c2, spec) for _ in range(2))
    assert s1 == s2
    assert all(np.array_equal(a, b) for a, b in zip(m1.blocks, m2.blocks))
    rhs = s1.forward(np.full((1, 6, 6), 0.3))
    apply = lambda m: m(rhs, np.empty(rhs.shape), np.empty(rhs.shape))
    assert np.array_equal(apply(m1), apply(m2))


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("pole", ALL_POLES)
def test_axis_solve_matches_dense_kron(bc, m, pole):
    grid, d = _grid(bc=bc, m=m, a=-1.0, b=1.5), (0.7,)
    k = 0.25
    p = grid.p1d
    rhs = _complex_field(np.random.default_rng(m), (1, p, p))
    for axis in (AXIS_X, AXIS_Y):
        x = _axis_solve(grid, d, k, pole, axis, rhs)
        x_ref = _dense_axis_solve(grid, d, k, pole, axis, rhs)
        assert np.max(np.abs(x - x_ref)) <= 1e-10 * np.max(np.abs(x_ref))


def test_axis_solve_zero_rhs_and_inverse_composition():
    grid = _grid(bc=NEUMANN, m=4)
    k = 0.5
    p = grid.p1d
    assert np.all(_axis_solve(grid, (1.0,), k, PADE.c2, AXIS_X, np.zeros((1, p, p))) == 0)

    y = _complex_field(np.random.default_rng(11), (1, p, p))
    m_dense = k * dense_axis_operator(grid, (1.0,), AXIS_X, 0) - PADE.c2 * np.eye(p * p)
    rhs = (m_dense @ y.ravel()).reshape(1, p, p)
    x = _axis_solve(grid, (1.0,), k, PADE.c2, AXIS_X, rhs)
    assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))


def test_axis_solve_shape_mismatch(monkeypatch):
    # the axis maps check no shape, as a step applies them fifteen times;
    # every field they map lives in the run's SplitWork buffers, and the
    # split step checks its input once: a wrong-shaped u raises ShapeError
    # before any map is applied, in either basis
    calls = []
    monkeypatch.setattr(linsolve.AxisMap, "__call__", lambda self, *a, **kw: calls.append(a))
    disc = discretize(make_problem("brusselator"), 4)
    p = disc.grid.p1d
    for parity in (False, True):
        plan = build_plan(ETDRK4P22IF, disc, 0.1)
        plan = replace(plan, solvers={pole: replace(s, parity=parity)
                                      for pole, s in plan.solvers.items()})
        work = SplitWork(plan)
        for shape in ((2, p + 1, p), (2, p, p + 1), (1, p, p), (3, p, p), (p, p)):
            with pytest.raises(ShapeError):
                etdrk4p22if_step(plan, np.zeros(shape), 0.0, work)
    assert calls == []


def test_axis_validation():
    with pytest.raises(ValidationError):
        axis_solver(4, (1.0,), 0.0, PADE.c1)
    with pytest.raises(ValidationError):
        _maps(_grid(m=4), (1.0,), 0.1, PADE.c1, ("z", 1.0, 0.0))
    with pytest.raises(SingularSystemError):  # a zero even half at a zero pole
        axis_solver(4, (1.0,), 1.0, 0.0).axis_maps((np.zeros((2, 2)), np.eye(2)),
                                                   (AXIS_X, 1.0, 0.0))


@pytest.mark.parametrize("k", [1e-3, 0.1, 1.0])
@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
def test_all_poles_nonsingular(k, bc):
    for pole in ALL_POLES:
        _maps(_grid(bc=bc, m=5), (1.0,), k, pole, (AXIS_X, 1.0, 0.0))  # must not raise


@settings(max_examples=80, deadline=None)
@given(bc=st.sampled_from((DIRICHLET, NEUMANN)), m=st.integers(3, 12),
       diffusion=st.lists(st.floats(0.1, 2.0), min_size=1, max_size=2, unique=True).map(tuple),
       pole=st.sampled_from((PADE.c1, PADE.c2)), axis=st.sampled_from((AXIS_X, AXIS_Y)),
       k=st.floats(0.01, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_transform_solve_matches_dense_shifted_solve(bc, m, diffusion, pole, axis, k, seed):
    grid = _grid(bc=bc, m=m)
    p = grid.p1d
    rhs = _complex_field(np.random.default_rng(seed), (len(diffusion), p, p))
    got = _axis_solve(grid, diffusion, k, pole, axis, rhs)
    want = _dense_axis_solve(grid, diffusion, k, pole, axis, rhs)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=80, deadline=None)
@given(bc=st.sampled_from((DIRICHLET, NEUMANN)), m=st.integers(3, 40),
       diffusion=st.lists(st.floats(0.1, 2.0), min_size=1, max_size=2, unique=True).map(tuple),
       pole=st.sampled_from(ALL_POLES), k=st.floats(0.01, 1.0),
       w=st.complex_numbers(max_magnitude=10.0), shift=st.floats(-2.0, 2.0),
       call=st.sampled_from(("new", "add", "aliased")), seed=st.integers(0, 2 ** 32 - 1))
@example(bc=DIRICHLET, m=3, diffusion=(1.0,), pole=PADE.c1, k=0.5, w=1.0, shift=1.0,
         call="new", seed=0)
@example(bc=NEUMANN, m=40, diffusion=(2.0,), pole=SMOOTHER.e2, k=1.0, w=1.0, shift=0.0,
         call="new", seed=0)
def test_axis_map_matches_dense_oracle(bc, m, diffusion, pole, k, w, shift, call, seed):
    # axis maps on fields in the solver's space, grid space (one read-only
    # block) and its even/odd basis (an even and an odd read-only block),
    # are on grid values shift*f + 2*Re(w (k*A_axis - pole*I)^-1 f) along
    # either axis, into out, added to it, or written over their own input.
    # The reference is the 1-D inverse refined in long double: a
    # double-precision LU is itself 7.8e-13 off at the Neumann m=40 example
    grid = _grid(bc=bc, m=m)
    p, species = grid.p1d, len(diffusion)
    n, h = p // 2, p - p // 2
    b = axis_matrix(grid)
    rng = np.random.default_rng(seed)
    f, start = rng.normal(size=(2, species, p, p))
    solves = {axis: np.empty(f.shape, dtype=complex) for axis in (AXIS_X, AXIS_Y)}
    for s, d in enumerate(diffusion):
        inv = refined_inverse(-k * d * b - pole * np.eye(p))
        solves[AXIS_Y][s] = inv @ f[s]
        solves[AXIS_X][s] = (inv @ f[s].T).T
    solver = axis_solver(p, diffusion, k, pole)
    for parity, shapes in ((False, [(species, p, p)]), (True, [(species, h, h), (species, n, n)])):
        solver = replace(solver, parity=parity)
        for amap in solver.axis_maps(fold_halves(b), (AXIS_X, w, shift), (AXIS_Y, w, shift)):
            assert [blk.shape for blk in amap.blocks] == shapes
            assert not any(blk.flags.writeable for blk in amap.blocks)
            want = shift * f + 2.0 * (w * solves[amap.axis]).real
            f_hat, scratch = solver.forward(f), np.empty(f.shape)
            if call == "new":
                got = amap(f_hat, np.empty(f.shape), scratch)
            elif call == "add":
                want += start
                got = amap(f_hat, solver.forward(start), scratch, add=True)
            else:
                got = amap(f_hat, f_hat, scratch)
                assert got is f_hat
            err = np.max(np.abs(solver.inverse(got) - want))
            assert err <= 1e-12 * np.max(np.abs(want)), (parity, amap.axis)


def _butterfly(p):
    """The even/odd basis's 1-D forward as a matrix, built entry by entry."""
    n = p // 2
    t = np.zeros((p, p))
    for j in range(n):
        t[j, j] = t[j, p - 1 - j] = 1.0
        t[p - 1 - j, j], t[p - 1 - j, p - 1 - j] = 1.0, -1.0
    if p % 2:
        t[n, n] = 2.0
    return t


def _parity_blocks(p):
    """Rows of the even/odd basis that hold the even part, and those that hold the odd."""
    half = (p + 1) // 2
    return slice(0, half), slice(half, p)


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
@pytest.mark.parametrize("p", [5, 40, 128, 129])
@pytest.mark.parametrize("species", [1, 2])
def test_transform_paths_match_scipy(bc, p, species):
    # the basis is grid space up to the crossover and its even/odd basis
    # above it.  In grid space forward and inverse are the identity; in the
    # even/odd basis forward is T x T^T with T the butterfly, and inverse
    # its inverse.  Either writes a new array by default, leaving its input
    # alone, or the out it is given, which may be its input.  The even/odd
    # basis splits scipy.fft's type-1 spectrum of the boundary kind by
    # parity: with F that transform, G = F T^-1 sends the even rows only to
    # even modes and the odd rows only to odd modes, and F x F^T is
    # G forward(x) G^T
    for q in (p, GRID_SPACE_MAX_P, GRID_SPACE_MAX_P + 1):
        assert axis_solver(q, (1.0,), 0.1, PADE.c1).parity == (q > GRID_SPACE_MAX_P)
    t = _butterfly(p)
    t_inv = np.linalg.inv(t)
    x = np.random.default_rng(p).normal(size=(species, p, p))
    for parity in (False, True):
        path = replace(axis_solver(p, (1.0,), 0.1, PADE.c1), parity=parity)
        wants = (t @ x @ t.T, t_inv @ x @ t_inv.T) if parity else (x, x)
        for method, want in zip((path.forward, path.inverse), wants):
            kept = x.copy()
            got = method(x)
            assert np.array_equal(x, kept) and not np.shares_memory(got, x), parity
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), parity
            buf = np.empty_like(x)
            assert method(x, buf) is buf and np.array_equal(buf, got), parity
            assert np.array_equal(x, kept), parity
            buf = x.copy()
            assert method(buf, buf) is buf and np.array_equal(buf, got), parity

    fwd, inv = (scipy.fft.dstn, scipy.fft.idstn) if bc == DIRICHLET else \
        (scipy.fft.dctn, scipy.fft.idctn)
    transform = scipy.fft.dst if bc == DIRICHLET else scipy.fft.dct
    g = transform(np.eye(p), type=1, axis=0) @ t_inv
    even, odd = _parity_blocks(p)
    scale = np.max(np.abs(g))
    assert np.max(np.abs(g[0::2, odd]), initial=0.0) <= 1e-13 * scale
    assert np.max(np.abs(g[1::2, even]), initial=0.0) <= 1e-13 * scale
    path = replace(axis_solver(p, (1.0,), 0.1, PADE.c1), parity=True)
    spectrum = fwd(x, type=1, axes=(-2, -1))
    got = g @ path.forward(x) @ g.T
    assert np.max(np.abs(got - spectrum)) <= 1e-13 * np.max(np.abs(spectrum))
    g_inv = np.linalg.inv(g)
    want = inv(spectrum, type=1, axes=(-2, -1))
    got = path.inverse(g_inv @ spectrum @ g_inv.T)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


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
    solver = tensor_eigen_solver(axis_eigenbasis(axis_matrix(grid)), diffusion, k, shift)
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
    got = eigen_solve(solver, rhs)
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
    solver = tensor_eigen_solver(axis_eigenbasis(axis_matrix(grid)), diffusion,
                                 k_mult * k, shift)
    const = np.full((len(diffusion), grid.p1d, grid.p1d), value)
    got = eigen_solve(solver, const)
    bound = 1e-12 * abs(value / shift) + 1e-12 * np.finfo(float).tiny
    assert np.max(np.abs(got - value / -shift)) <= bound


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
def test_eigen_solve_real_shift_stays_real(bc):
    grid = Grid2D(a=0.0, b=1.0, m=5, bc=bc)
    solver, _ = _eigen_and_sparse(grid, (1.0,), 0.1, -1.0)
    out = eigen_solve(solver, np.ones((1, grid.p1d, grid.p1d)))
    assert out.dtype == np.dtype(float)


def test_eigen_solver_shape_and_step_validation():
    basis = axis_eigenbasis(axis_matrix(_grid(m=4)))
    solver = tensor_eigen_solver(basis, (1.0,), 0.1, -1.0)
    assert isinstance(solver, TensorEigenSolver) and solver.inv_symbol.shape == (1, 4, 4)
    assert all(a.flags.c_contiguous for a in (basis.v, basis.v_t, basis.v_inv, basis.v_inv_t))
    with pytest.raises(ValueError):  # the basis's products take no other grid
        eigen_solve(solver, np.zeros((1, 5, 4)))
    with pytest.raises(ValidationError):
        tensor_eigen_solver(basis, (1.0,), 0.0, -1.0)
    with pytest.raises(SingularSystemError):
        tensor_eigen_solver(axis_eigenbasis(np.zeros((4, 4))), (1.0,), 0.1, 0.0)


def _centrosymmetric(even, odd):
    """The 4 x 4 b whose even and odd blocks, A + C J and A - C J, are the given 2 x 2s.

    Built through the butterfly from its quadrants, b equals its 180-degree
    rotation bit for bit.
    """
    a, cj = (even + odd) / 2.0, (even - odd) / 2.0
    return np.block([[a, cj[:, ::-1]], [cj[::-1], a[::-1, ::-1]]])


def test_eigenbasis_rejects_complex_eigenvalues():
    # A rotation as the even block: eigenvalues +-i
    b = _centrosymmetric(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.diag([2.0, 3.0]))
    assert np.array_equal(b, b[::-1, ::-1])
    with pytest.raises(SingularSystemError, match="complex"):
        axis_eigenbasis(b)


def test_eigenbasis_rejects_ill_conditioned_eigenvectors():
    # Two nearly equal eigenvalues on a Jordan-like even block: almost
    # parallel eigenvectors, cond(V) about 2e8.
    near_jordan = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-8]])
    b = _centrosymmetric(near_jordan, np.diag([2.0, 3.0]))
    assert np.array_equal(b, b[::-1, ::-1])
    assert np.linalg.cond(np.linalg.eig(b)[1]) > EIGEN_COND_MAX
    with pytest.raises(SingularSystemError, match="ill-conditioned"):
        axis_eigenbasis(b)


def _nudged_axis_matrix():
    b = axis_matrix(_grid(m=6))
    b[0, 1] = np.nextafter(b[0, 1], np.inf)
    return b


@pytest.mark.parametrize("b", [
    pytest.param(np.array([[0.0, 1.0], [-1.0, 0.0]]), id="rotation"),
    pytest.param(_nudged_axis_matrix(), id="axis-matrix-one-ulp-off"),
    pytest.param(np.ones((2, 3)), id="not-square"),
    pytest.param(np.ones(4), id="not-2d"),
])
def test_eigenbasis_rejects_non_centrosymmetric_input(b):
    with pytest.raises(ValidationError, match="180-degree rotation"):
        axis_eigenbasis(b)


@settings(max_examples=60, deadline=None)
@given(bc=st.sampled_from((DIRICHLET, NEUMANN)), m=st.integers(3, 64),
       a=st.floats(-10.0, 10.0), length=st.floats(0.1, 10.0))
@example(bc=DIRICHLET, m=3, a=0.0, length=1.0)    # odd p, smallest grid
@example(bc=NEUMANN, m=64, a=-1.0, length=2.0)    # even p
def test_eigenbasis_from_halves_diagonalizes_b(bc, m, a, length):
    b = axis_matrix(Grid2D(a=a, b=a + length, m=m, bc=bc))
    assert np.array_equal(b, b[::-1, ::-1])
    basis = axis_eigenbasis(b)
    assert all(a.flags.c_contiguous for a in (basis.v, basis.v_t, basis.v_inv, basis.v_inv_t))
    assert np.array_equal(basis.v_t, basis.v.T) and np.array_equal(basis.v_inv_t, basis.v_inv.T)
    assert np.max(np.abs((basis.v * basis.lam) @ basis.v_inv - b)) <= 1e-12 * np.max(np.abs(b))
    assert np.max(np.abs(basis.v_inv @ basis.v - np.eye(len(b)))) <= 1e-12
    # The cond(V) the check uses, taken from the blocks, brackets numpy's
    # cond_2 of the assembled V within 1e-10 relative.
    cond = np.linalg.cond(basis.v)
    with mock.patch.object(linsolve, "EIGEN_COND_MAX", cond * (1.0 + 1e-10)):
        axis_eigenbasis(b)
    with mock.patch.object(linsolve, "EIGEN_COND_MAX", cond * (1.0 - 1e-10)):
        with pytest.raises(SingularSystemError, match="ill-conditioned"):
            axis_eigenbasis(b)


@pytest.fixture
def two_cpus(monkeypatch):
    """A worker of its own for the test, whatever CPUs the process may use."""
    monkeypatch.setattr(linsolve, "_tasks", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _threaded_plan(plan, threaded=True):
    """plan's split solvers in the even/odd basis, on two threads or one."""
    return replace(plan, solvers={pole: replace(s, parity=True, threaded=threaded)
                                  for pole, s in plan.solvers.items()})


@pytest.mark.parametrize("p", [9, 10])
@pytest.mark.parametrize("species", [1, 2])
def test_threaded_maps_and_butterflies_equal_inline_bit_for_bit(two_cpus, p, species):
    # each thread makes the same operations on its own elements, so the two
    # halves on two threads give the very bits of both halves inline: maps
    # along x and y, with and without add, into another buffer or in place,
    # and both 2-D butterflies
    diffusion = (1.0, 0.3)[:species]
    inline = replace(axis_solver(p, diffusion, 0.1, PADE.c1), parity=True, threaded=False)
    threaded = replace(inline, threaded=True)
    specs = ((AXIS_X, PADE.w11, 1.0), (AXIS_Y, PADE.w11, 1.0),
             (AXIS_X, 0.3 * PADE.w21, 0.0), (AXIS_Y, -PADE.w11, -1.0))
    halves = fold_halves(axis_matrix(_grid(m=p)))
    rng = np.random.default_rng(10 * p + species)
    f, g = (rng.normal(size=(species, p, p)) for _ in range(2))
    for one, two in zip(inline.axis_maps(halves, *specs), threaded.axis_maps(halves, *specs)):
        assert two.threaded and not one.threaded and len(two.blocks) == 2
        for add in (False, True):
            got = [amap(f, g.copy(), np.empty_like(f), add=add) for amap in (one, two)]
            assert np.array_equal(*got), (one.axis, add)
            got = []
            for amap in (one, two):
                h = f.copy()
                assert amap(h, h, np.empty_like(f), add=add) is h
                got.append(h)
            assert np.array_equal(*got), (one.axis, add, "in place")
    for method in ("forward", "inverse"):
        got = [getattr(s, method)(f) for s in (inline, threaded)]
        assert np.array_equal(*got), method
        in_place = [f.copy(), f.copy()]
        for s, h in zip((inline, threaded), in_place):
            assert getattr(s, method)(h, h) is h
        assert np.array_equal(*in_place) and np.array_equal(in_place[0], got[0]), method


@pytest.mark.parametrize("name,m", [("model_dirichlet", 11), ("brusselator", 10)])
def test_threaded_split_steps_equal_inline_bit_for_bit(two_cpus, name, m):
    disc = discretize(make_problem(name), m)
    plan = build_plan(ETDRK4P22IF, disc, 0.05)
    states = []
    for threaded in (False, True):
        path = _threaded_plan(plan, threaded)
        u, work = disc.initial(), SplitWork(path)
        assert all(amap.threaded == threaded for amap in work.maps)
        for step in range(3):
            u = etdrk4p22if_step(path, u, step * 0.05, work)
        states.append(u)
    assert np.array_equal(*states)


def test_axis_solver_runs_in_halves_from_thread_min_p():
    assert GRID_SPACE_MAX_P < THREAD_MIN_P
    for p in (GRID_SPACE_MAX_P, GRID_SPACE_MAX_P + 1, THREAD_MIN_P - 1, THREAD_MIN_P,
              THREAD_MIN_P + 1):
        solver = axis_solver(p, (1.0,), 0.1, PADE.c1)
        assert solver.threaded == (p >= THREAD_MIN_P), p


def test_halves_on_one_cpu_runs_both_here_and_starts_no_thread(monkeypatch):
    monkeypatch.setattr(linsolve, "_tasks", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    before = threading.active_count()
    seen = []
    for _ in range(2):
        linsolve._halves(lambda: seen.append(("a", threading.get_ident())),
                         lambda: seen.append(("b", threading.get_ident())))
    assert seen == [("a", threading.get_ident()), ("b", threading.get_ident())] * 2
    assert linsolve._tasks is False and threading.active_count() == before


def test_halves_runs_b_on_the_worker_in_the_callers_context(two_cpus):
    # np.errstate lives in a context variable: b sees the caller's, so a
    # diverging step warns on neither thread
    var = contextvars.ContextVar("var", default="unset")
    seen = {}

    def b():
        seen.update(thread=threading.get_ident(), var=var.get(), over=np.geterr()["over"])

    token = var.set("caller")
    try:
        with np.errstate(over="ignore"):
            linsolve._halves(lambda: None, b)
    finally:
        var.reset(token)
    assert seen["thread"] != threading.get_ident()
    assert (seen["var"], seen["over"]) == ("caller", "ignore")


def test_halves_returns_once_both_are_done_and_raises_the_first_error(two_cpus):
    done = []

    def slow():
        time.sleep(0.05)
        done.append("b")

    def fails(exc):
        def raising():
            raise exc
        return raising

    # an error in a, an interrupt too, reaches the caller only after b is done
    for exc in (ValueError("in a"), KeyboardInterrupt()):
        done.clear()
        with pytest.raises(type(exc)):
            linsolve._halves(fails(exc), slow)
        assert done == ["b"]
    # an error in b reaches the caller; with both failing, a's comes first
    with pytest.raises(KeyError, match="in b"):
        linsolve._halves(lambda: None, fails(KeyError("in b")))
    with pytest.raises(ValueError, match="in a"):
        linsolve._halves(fails(ValueError("in a")), fails(KeyError("in b")))
    # and the worker serves the next call
    ran = []
    linsolve._halves(lambda: ran.append("a"), lambda: ran.append("b"))
    assert sorted(ran) == ["a", "b"]


def test_halves_from_many_threads_runs_every_half_once(two_cpus):
    # callers on four threads share the one worker; with the interpreter
    # switching threads every microsecond, each call still runs both its
    # halves, once each, before it returns
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        wrong = []

        def caller(index):
            for call in range(200):
                ran = []
                linsolve._halves(lambda: ran.append("a"), lambda: ran.append("b"))
                if sorted(ran) != ["a", "b"]:
                    wrong.append((index, call, ran))

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_steps_on_a_worker_of_its_own(two_cpus):
    disc = discretize(make_problem("brusselator"), 8)
    plan = _threaded_plan(build_plan(ETDRK4P22IF, disc, 0.05))
    works = [SplitWork(plan), SplitWork(plan)]
    u = [etdrk4p22if_step(plan, disc.initial(), 0.0, w) for w in works]  # the worker runs
    want = etdrk4p22if_step(plan, u[1], 0.05, works[1])
    pid = os.fork()
    if pid == 0:  # the child: no worker thread came with it, so it needs one of its own
        code = 1
        try:
            got = etdrk4p22if_step(plan, u[0], 0.05, works[0])
            code = 0 if np.array_equal(got, want) else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's step did not finish")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.parametrize("scheme,m", [(ETDRK4P22IF, 9), (ETDRK4P22IF, 110), (SMOOTHER_ONLY, 9),
                                      (SBDF4, 9), (ETDRK4P22, 9)])
def test_runs_below_thread_min_p_start_no_thread(monkeypatch, scheme, m):
    # grid space, the even/odd basis below THREAD_MIN_P, the eigen family
    # and SuperLU all run on the caller's thread alone
    monkeypatch.setattr(linsolve, "_tasks", None)  # as if no worker had started
    before = threading.active_count()
    disc = discretize(make_problem("model_dirichlet"), m)
    integrate(disc, scheme, 0.1, 0.4)
    assert linsolve._tasks is None and threading.active_count() == before
