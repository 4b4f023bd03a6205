from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.fft
import scipy.sparse as sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

import etdsplit.linsolve as linsolve
import etdsplit.spatial as spatial
from etdsplit.errors import ShapeError, SingularSystemError, ValidationError
from etdsplit.linsolve import (
    EIGEN_COND_MAX,
    GRID_SPACE_MAX_P,
    FullOperator,
    TensorEigenSolver,
    assemble_full,
    axis_eigenbasis,
    axis_transform_basis,
    axis_transform_solver,
    factorize_full,
    tensor_eigen_solver,
)
from etdsplit.spatial import AXIS_X, AXIS_Y, DIRICHLET, NEUMANN, Grid2D, axis_matrix
from etdsplit.steppers import PADE, SMOOTHER
from helpers import PocketfftSolver, dense_axis_operator, dense_reference_solve

ALL_POLES = (PADE.c1, PADE.c2, SMOOTHER.e1, SMOOTHER.e2, SMOOTHER.f1, SMOOTHER.f2)


def _grid(bc=DIRICHLET, m=5, a=0.0, b=1.0):
    return Grid2D(a=a, b=b, m=m, bc=bc)


def _axis_solve(grid, diffusion, k, pole, axis, rhs):
    """(k*A_axis - pole*I)^-1 rhs for a complex (species, p, p) rhs.

    Built from the solver's real 2*Re(w ...) axis maps: weights 1/2 and -i/2
    recover the real and imaginary parts of the inverse applied to a real
    field.
    """
    basis = axis_transform_basis(grid)
    solver = axis_transform_solver(basis, diffusion, k, pole)
    re, im = basis.forward(rhs.real), basis.forward(rhs.imag)
    scratch = np.empty(rhs.shape)

    def part(w_re, w_im):
        out = solver.axis_map(axis, w_re)(re, np.empty(rhs.shape), scratch)
        return solver.axis_map(axis, w_im)(im, out, scratch, add=True)
    return basis.inverse(part(0.5, 0.5j)) + 1j * basis.inverse(part(-0.5j, 0.5))


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
    basis = axis_transform_basis(_grid(m=6))
    f1 = axis_transform_solver(basis, (1.0,), 0.2, PADE.c2)
    f2 = axis_transform_solver(basis, (1.0,), 0.2, PADE.c2)
    assert np.array_equal(f1.inv_symbol, f2.inv_symbol)
    assert np.array_equal(f1.edge_in, f2.edge_in) and np.array_equal(f1.edge_a, f2.edge_a)
    rhs = basis.forward(np.full((1, 6, 6), 0.3))
    apply = lambda f: f.axis_map(AXIS_X, PADE.w11)(rhs, np.empty(rhs.shape), np.empty(rhs.shape))
    assert np.array_equal(apply(f1), apply(f2))


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


def test_axis_solve_shape_mismatch():
    solver = axis_transform_solver(axis_transform_basis(_grid(m=4)), (1.0,), 0.1, PADE.c1)
    amap = solver.axis_map(AXIS_X, 1.0)
    good = np.zeros((1, 4, 4))
    for shape in ((1, 5, 4), (1, 4, 5), (2, 4, 4), (4, 4)):
        bad = np.zeros(shape)
        for args in ((bad, good, good.copy()), (good, bad, good.copy()), (good, good.copy(), bad)):
            with pytest.raises(ShapeError):
                amap(*args)


def test_axis_validation():
    basis = axis_transform_basis(_grid(m=4))
    with pytest.raises(ValidationError):
        axis_transform_solver(basis, (1.0,), 0.0, PADE.c1)
    solver = axis_transform_solver(basis, (1.0,), 0.1, PADE.c1)
    with pytest.raises(ValidationError):
        solver.axis_map("z", 1.0)


@pytest.mark.parametrize("k", [1e-3, 0.1, 1.0])
@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
def test_all_poles_nonsingular(k, bc):
    basis = axis_transform_basis(_grid(bc=bc, m=5))
    for pole in ALL_POLES:
        axis_transform_solver(basis, (1.0,), k, pole)  # must not raise


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
@given(bc=st.sampled_from((DIRICHLET, NEUMANN)), m=st.integers(3, 12),
       diffusion=st.lists(st.floats(0.1, 2.0), min_size=1, max_size=2, unique=True).map(tuple),
       pole=st.sampled_from(ALL_POLES), axis=st.sampled_from((AXIS_X, AXIS_Y)),
       k=st.floats(0.01, 1.0), w=st.complex_numbers(max_magnitude=10.0),
       shift=st.floats(-2.0, 2.0), call=st.sampled_from(("new", "add", "aliased")),
       parity=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_axis_map_matches_dense_oracle(bc, m, diffusion, pole, axis, k, w, shift, call,
                                       parity, seed):
    # axis_map(axis, w, shift) on fields in the basis's space, grid space or
    # its even/odd basis, is on grid values the dense shift*I + 2*Re(w
    # (k*A_axis - pole*I)^-1), into out, added to it, or written over its
    # own input
    grid = _grid(bc=bc, m=m)
    p = grid.p1d
    basis = replace(axis_transform_basis(grid), parity=parity)
    amap = axis_transform_solver(basis, diffusion, k, pole).axis_map(axis, w, shift)
    rng = np.random.default_rng(seed)
    f, start = rng.normal(size=(2, len(diffusion), p, p))
    want, eye = np.empty(f.shape), np.eye(p * p)
    for s in range(len(diffusion)):
        inv = np.linalg.inv(k * dense_axis_operator(grid, diffusion, axis, s) - pole * eye)
        want[s] = ((shift * eye + 2.0 * (w * inv).real) @ f[s].ravel()).reshape(p, p)
    f_hat, scratch = basis.forward(f), np.empty(f.shape)
    if call == "new":
        got = amap(f_hat, np.empty(f.shape), scratch)
    elif call == "add":
        want += start
        got = amap(f_hat, basis.forward(start), scratch, add=True)
    else:
        got = amap(f_hat, f_hat, scratch)
        assert got is f_hat
    assert np.max(np.abs(basis.inverse(got) - want)) <= 1e-12 * np.max(np.abs(want))


def _transform_residual(grid):
    """max |F^-1 diag(lam) F + U V^T - B| / max |B| for the grid's basis and B.

    F is the type-1 transform as a matrix; U and V come back from the basis's
    transformed u_hat = F U and v_hat = F^-T V.
    """
    basis = axis_transform_basis(grid)
    p = grid.p1d
    fwd, inv = (scipy.fft.dst, scipy.fft.idst) if grid.bc == DIRICHLET else \
        (scipy.fft.dct, scipy.fft.idct)
    f, f_inv = fwd(np.eye(p), type=1, axis=0), inv(np.eye(p), type=1, axis=0)
    rebuilt = f_inv @ (basis.lam[:, np.newaxis] * f)
    if basis.u_hat is not None:
        rebuilt += (f_inv @ basis.u_hat) @ (f.T @ basis.v_hat).T
    b = axis_matrix(grid)
    return np.max(np.abs(rebuilt - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
def test_transform_basis_rebuilds_the_axis_matrix(bc):
    # the transform path never builds B; this oracle checks what it derives
    # from the grid against spatial.axis_matrix, which it matches to a few
    # rounding errors
    for m in range(3, 41):
        assert _transform_residual(_grid(bc=bc, m=m, a=-0.3, b=2.1)) <= 1e-13


@pytest.mark.parametrize("module", [spatial, linsolve])
def test_transform_basis_oracle_sees_a_perturbed_dirichlet_edge(module, monkeypatch):
    # B's edge row and the transform's copy of it are read from one constant;
    # perturbing either side alone must break the identity.  The basis is
    # cached per grid, so no basis built before or during the perturbation
    # may outlive it.
    edge = list(spatial._DIRICHLET_EDGE)
    edge[1] += 1e-6
    axis_transform_basis.cache_clear()
    monkeypatch.setattr(module, "_DIRICHLET_EDGE", tuple(edge))
    try:
        assert _transform_residual(_grid(bc=DIRICHLET, m=8)) > 1e-13
        assert _transform_residual(_grid(bc=NEUMANN, m=8)) <= 1e-13
    finally:
        axis_transform_basis.cache_clear()


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


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
@pytest.mark.parametrize("p", [5, 40, 128, 129])
@pytest.mark.parametrize("species", [1, 2])
def test_transform_paths_match_scipy(bc, p, species):
    # the basis is grid space up to the crossover and its even/odd basis
    # above it.  In grid space forward and inverse are the identity; in the
    # even/odd basis forward is T x T^T with T the butterfly, and inverse
    # its inverse.  Either returns the field itself with overwrite_x and
    # leaves its input alone without it.  An even/odd field's even part
    # holds only scipy.fft's even wavenumbers, its odd part the odd ones
    def basis_of(p):
        return axis_transform_basis(_grid(bc=bc, m=p if bc == DIRICHLET else p - 2))

    for q in (p, GRID_SPACE_MAX_P, GRID_SPACE_MAX_P + 1):
        assert basis_of(q).parity == (q > GRID_SPACE_MAX_P)
    basis = basis_of(p)
    t = _butterfly(p)
    t_inv = np.linalg.inv(t)
    x = np.random.default_rng(p).normal(size=(species, p, p))
    for parity in (False, True):
        path = replace(basis, parity=parity)
        wants = (t @ x @ t.T, t_inv @ x @ t_inv.T) if parity else (x, x)
        for method, want in zip((path.forward, path.inverse), wants):
            kept = x.copy()
            got = method(x)
            assert np.array_equal(x, kept) and not np.shares_memory(got, x), parity
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), parity
            buf = x.copy()
            assert method(buf, overwrite_x=True) is buf and np.array_equal(buf, got), parity
    h = p - p // 2
    dst = scipy.fft.dstn if bc == DIRICHLET else scipy.fft.dctn
    for rows, cols in ((slice(0, h), slice(0, h)), (slice(0, h), slice(h, p)),
                       (slice(h, p), slice(0, h)), (slice(h, p), slice(h, p))):
        part = np.zeros_like(x)
        part[..., rows, cols] = x[..., rows, cols]
        spectrum = dst(replace(basis, parity=True).inverse(part), type=1, axes=(-2, -1))
        row_parity, col_parity = int(rows.start > 0), int(cols.start > 0)
        spectrum[..., row_parity::2, col_parity::2] = 0.0
        assert np.max(np.abs(spectrum)) <= 1e-13 * np.max(np.abs(x)), (rows, cols)


def _scipy_edge_terms(grid):
    """u_hat and v_hat as scipy.fft's DST-I of the edge unit vectors and edge rows builds them."""
    p, c, s = grid.p1d, 12.0 * grid.h * grid.h, spatial.INTERIOR_STENCIL
    n = min(p, 4)
    reflected, edge = np.zeros(p), np.zeros(p)
    reflected[:n] = (s[2] - s[0], s[3], s[4], 0.0)[:n]
    edge[:n] = spatial._DIRICHLET_EDGE[:n]
    first = (-reflected / c) + (edge / c)
    unit = np.zeros((p, 2))
    unit[0, 0] = unit[p - 1, 1] = 1.0
    return (scipy.fft.dst(unit, type=1, axis=0),
            scipy.fft.idst(np.stack([first, first[::-1]], axis=1), type=1, axis=0))


@settings(max_examples=80, deadline=None)
@given(bc=st.sampled_from((DIRICHLET, NEUMANN)), p=st.integers(3, 300),
       width=st.floats(0.01, 100.0))
@example(bc=DIRICHLET, p=3, width=1.0)
@example(bc=NEUMANN, p=3, width=1.0)
@example(bc=DIRICHLET, p=300, width=1.0)
@example(bc=NEUMANN, p=300, width=1.0)
def test_closed_form_transforms_match_scipy(bc, p, width):
    # the explicit type-1 matrix (and its inverse, over type1_norm) is
    # scipy.fft's dst/dct of the identity, any subset of its columns is
    # those columns, and the Dirichlet basis's closed-form edge terms are
    # the scipy.fft construction they replace
    fwd, inv = (scipy.fft.dst, scipy.fft.idst) if bc == DIRICHLET else \
        (scipy.fft.dct, scipy.fft.idct)
    f = linsolve.type1_matrix(bc, p)
    for got, want in ((f, fwd(np.eye(p), type=1, axis=0)),
                      (f / linsolve.type1_norm(bc, p), inv(np.eye(p), type=1, axis=0))):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    cols = np.r_[0:min(p, 4), p - min(p, 4):p]
    assert np.array_equal(linsolve.type1_matrix(bc, p, cols), f[:, cols])
    if bc == NEUMANN:
        if p >= 5:
            assert axis_transform_basis(_grid(bc=bc, m=p - 2, b=width)).u_hat is None
        return
    grid = _grid(bc=bc, m=p, b=width)
    basis = axis_transform_basis(grid)
    for got, want in zip((basis.u_hat, basis.v_hat), _scipy_edge_terms(grid)):
        assert got.shape == want.shape == (p, 2) and not got.flags.writeable
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@settings(max_examples=80, deadline=None)
@given(bc=st.sampled_from((DIRICHLET, NEUMANN)), m=st.integers(3, 40),
       diffusion=st.lists(st.floats(0.1, 2.0), min_size=1, max_size=2).map(tuple),
       pole=st.sampled_from(ALL_POLES), k=st.floats(0.01, 1.0),
       w=st.complex_numbers(max_magnitude=10.0), shift=st.floats(-2.0, 2.0),
       seed=st.integers(0, 2 ** 32 - 1))
@example(bc=DIRICHLET, m=3, diffusion=(1.0,), pole=PADE.c1, k=0.5, w=1.0, shift=1.0, seed=0)
@example(bc=NEUMANN, m=40, diffusion=(0.5, 1.5), pole=PADE.c2, k=0.5, w=1j, shift=0.0, seed=0)
def test_grid_space_maps_match_pocketfft_maps(bc, m, diffusion, pole, k, w, shift, seed):
    # a map of one read-only block in grid space, and of an even and an odd
    # read-only block in the even/odd basis, acts as the transform-space
    # oracle's inverse(map(forward(f))) along either axis, into out or added
    # to it.  The even/odd butterfly round trip is exact to rounding
    grid = _grid(bc=bc, m=m)
    p = grid.p1d
    n, h = p // 2, p - p // 2
    species = len(diffusion)
    grid_basis = axis_transform_basis(grid)
    assert not grid_basis.parity
    oracle = PocketfftSolver(axis_transform_solver(grid_basis, diffusion, k, pole))
    f, start = np.random.default_rng(seed).normal(size=(2, species, p, p))
    scratch = np.empty(f.shape)
    parity_basis = replace(grid_basis, parity=True)
    back = parity_basis.inverse(parity_basis.forward(f))
    assert np.max(np.abs(back - f)) <= 1e-15 * np.max(np.abs(f))
    fft = oracle.basis
    for basis, shapes in ((grid_basis, [(species, p, p)]),
                          (parity_basis, [(species, h, h), (species, n, n)])):
        solver = axis_transform_solver(basis, diffusion, k, pole)
        for axis in (AXIS_X, AXIS_Y):
            amap, tmap = solver.axis_map(axis, w, shift), oracle.axis_map(axis, w, shift)
            assert [b.shape for b in amap.blocks] == shapes
            assert not any(b.flags.writeable for b in amap.blocks)
            for add in (False, True):
                got = basis.inverse(amap(basis.forward(f), basis.forward(start), scratch, add=add))
                want = fft.inverse(tmap(fft.forward(f), fft.forward(start), scratch, add=add))
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), \
                    (basis.parity, axis, add)


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
    solver = tensor_eigen_solver(axis_eigenbasis(axis_matrix(grid)), diffusion,
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
    basis = axis_eigenbasis(axis_matrix(_grid(m=4)))
    solver = tensor_eigen_solver(basis, (1.0,), 0.1, -1.0)
    assert isinstance(solver, TensorEigenSolver) and solver.shape == (1, 4, 4)
    assert all(a.flags.c_contiguous for a in (basis.v, basis.v_t, basis.v_inv, basis.v_inv_t))
    with pytest.raises(ShapeError):
        solver.solve(np.zeros((1, 5, 4)))
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
