"""Shifted-operator solves.

Three solve paths exist, matching the scheme families:

* Axis maps for the split scheme.  A 2-D system (k*A_axis - c*I) x = rhs
  with A_axis = -d (B kron I) or -d (I kron B) decouples into independent
  1-D systems sharing the matrix M = -k*d*B - c*I.  B, the dense
  spatial.axis_matrix, is centrosymmetric, so the butterfly that pairs
  entry j with entry p-1-j folds it into an even and an odd half-size block
  (fold_halves; Cantoni & Butler, Linear Algebra Appl. 13 (1976) 275-288),
  and M^-1 is the pair of dense inverses of the folded halves of M.  A
  solver is applied only as an axis map, the real map
  f -> shift*f + 2*Re(w (k*A_axis - pole*I)^-1 f), every map of a run made
  from the same inverses (AxisSolver.axis_maps).  Up to GRID_SPACE_MAX_P
  unknowns per axis each map is one dense p x p matrix and no field is
  transformed (Trefethen, Spectral Methods in MATLAB, SIAM 2000).  Above
  it fields live in grid space's even/odd basis and each map is the two
  half-size blocks: applying them takes half the flops of one p x p
  product, and a 2-D transform is an O(p^2) butterfly.  A split plan is
  built, and steps, with numpy alone.

* Tensor-product eigen-solves of the full 2-D operator (k*A - shift*I) for
  the presmoother and the semi-implicit BDF schemes (fast diagonalization,
  Lynch, Rice & Thomas, Numer. Math. 6 (1964) 185-199).  With the real
  eigendecomposition B = V diag(lam) V^-1 of the dense spatial.axis_matrix,
  assembled from the eigenproblems of the same folded halves, forward is
  V^-1 R V^-T and inverse V X V^T per species block, two real p x p matrix
  products each, and there the inverse is the product with the symbol
  1 / (-k d (lam_i + lam_j) - shift).  Schemes keep fields transformed.

* Sparse LU of the full 2-D operator, block-diagonal over species, for the
  unsplit fourth-order scheme, the sparse-direct baseline the split scheme
  is measured against.  assemble_full converts the dense B to CSR.  No
  scipy module is imported with this module: only this family uses
  scipy.sparse, and assemble_full and factorize_full import it when called.

Solvers are built once per (step size, pole) and reused for every time
step; all kinds are immutable.  A split run builds its maps once, when it
starts.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ShapeError, SingularSystemError, ValidationError
from .spatial import AXIS_X, AXIS_Y, Grid2D, axis_matrix

# Eigenvalues of B with |imag| above this fraction of max |lam| are treated as
# genuinely complex; the fourth-order operator's are real to the last bit.
_EIG_IMAG_TOL = 1e-10

# Largest accepted condition number of the eigenvector matrix V; the solve's
# rounding error grows with it.  The fourth-order operator measures
# 1.41-1.63 for m = 3..319 on both boundary kinds.
EIGEN_COND_MAX = 1e3

# Largest p1d on which the split step's basis is grid space itself and each
# axis map one dense p x p matrix product.  Above it the basis is grid
# space's even/odd butterfly and each map two half-size blocks.  Measured by
# scripts/transform_crossover.py (BENCH_parity_maps.json, "crossover": warm
# steps, 2-core Xeon, one OpenBLAS thread): one block won or tied at every
# swept p up to 103 in two passes over p = 79..239, and two blocks won at
# every p from 111 to 143 in every case of a third, by 6-22%.
GRID_SPACE_MAX_P = 103


def fold_halves(b: np.ndarray) -> tuple:
    """The even and odd half blocks of the 1-D operator b, which both solver families use.

    b must equal its 180-degree rotation J b J, as both walls close the
    stencil alike, so the even/odd butterfly Q splits it into two half-size
    blocks (Cantoni & Butler, Linear Algebra Appl. 13 (1976) 275-288):
    b Q = Q diag(even, odd).  Q's column j < h = p - p//2 is the even vector
    with ones at j and p-1-j, its column h+j the odd one, 1 at j and -1 at
    p-1-j.  With quadrants A = b[:n, :n] and C = b[:n, p-n:], n = p//2, the
    odd block is A - C J and the even block A + C J, for odd p bordered by
    b's middle column and twice its middle row's first half.

    Raises ValidationError unless b is square and centrosymmetric.
    """
    b = np.asarray(b)
    if b.ndim != 2 or len(b) != b.shape[1] or not np.array_equal(b, b[::-1, ::-1]):
        raise ValidationError("1-D operator must be a square matrix equal to its "
                              "180-degree rotation")
    p = len(b)
    n, h = p // 2, p - p // 2
    folded = b[:h, ::-1][:, :n]  # C J; for odd p also the middle row's mirror half
    even = b[:h, :h] + np.pad(folded, ((0, 0), (0, h - n)))
    odd = b[:n, :n] - folded[:n]
    return even, odd


@dataclass(frozen=True)
class AxisSolver:
    """(k*A_axis - pole*I)^-1 along either axis, every species: one pole of a split plan.

    It holds k*d per species and the pole, no array: axis_maps builds a
    run's maps from B's folded halves when the run starts.

    forward and inverse take (species, p, p) fields to the space the maps
    act in: grid space itself, or with parity its even/odd basis.  There,
    along each axis, entry j < p//2 holds x_j + x_(p-1-j), entry p-1-j holds
    x_j - x_(p-1-j) and the middle entry of odd p is doubled: the even part
    fills the first p - p//2 entries, the odd part the rest, reversed.
    axis_solver sets parity above GRID_SPACE_MAX_P unknowns per axis.
    """

    kd: tuple       # k*d per species
    pole: complex
    parity: bool

    def forward(self, field: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """field in the basis, written to out (a new array by default), which may be field."""
        out = np.empty_like(field) if out is None else out
        if not self.parity:
            np.copyto(out, field)
            return out
        p = field.shape[-1]
        middle = slice(p // 2, p - p // 2)  # empty for even p
        _pair(field, out)
        out[..., middle, :] *= 2.0
        out[..., middle] *= 2.0
        return out

    def inverse(self, coeffs: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Inverse of forward, written to out (a new array by default), which may be coeffs."""
        out = np.empty_like(coeffs) if out is None else out
        if not self.parity:
            np.copyto(out, coeffs)
            return out
        _pair(coeffs, out)
        out *= 0.25
        return out

    def axis_maps(self, halves: tuple, *specs) -> tuple:
        """One AxisMap per (axis, w, shift) of specs, from halves = fold_halves(B).

        Each is f -> shift*f + 2*Re(w (k*A_axis - pole*I)^-1 f).  With Q
        fold_halves's butterfly, (-k d B - pole I)^-1 = Q diag(X_e, X_o) Q^-1
        with X = (-k d half - pole I)^-1, one dense complex inverse per
        species and half for every spec.  forward's 1-D butterfly T maps Q
        to the diagonal, the odd part reversed: T X T^-1 = diag(X_e, J X_o J).
        So in the even/odd basis a map's blocks are shift*I + 2 Re(w X_e) and
        the same of J X_o J.  In grid space X is unfolded once into one
        p x p block for every spec, and each map is one such block.  Along x
        a block is transposed, as the map applies f @ block.
        """
        species = len(self.kd)
        xs = []
        for half in halves:
            eye = np.eye(len(half))
            try:
                xs.append(np.linalg.inv(np.stack([-kd * half - self.pole * eye
                                                  for kd in self.kd])))
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError(
                    f"shifted axis operator is singular (pole={self.pole})") from exc
        h, n = len(halves[0]), len(halves[1])
        blocks = (xs[0], xs[1][:, ::-1, ::-1])  # the odd part is stored reversed
        if not self.parity:
            # T is symmetric and T^2 is 2I but 4 at the middle, and _pair
            # applies 4 T^-1 along both axes: X = T^-1 Y T = _pair(Y T^2 / 4)
            # for Y = diag(X_e, J X_o J).  Every scaling is exact.
            y = np.zeros((species, h + n, h + n), dtype=complex)
            y[:, :h, :h], y[:, h:, h:] = blocks
            y[..., :n] *= 0.5
            y[..., h:] *= 0.5
            blocks = (_pair(y, y),)
        along = {AXIS_Y: blocks,
                 AXIS_X: tuple(np.ascontiguousarray(np.swapaxes(x, 1, 2)) for x in blocks)}
        maps = []
        for axis, w, shift in specs:
            if axis not in along:
                raise ValidationError(f"unknown axis {axis!r}")
            mats = tuple(2.0 * (w * x).real + shift * np.eye(x.shape[-1]) for x in along[axis])
            _read_only(*mats)
            maps.append(AxisMap(axis, (species, h + n, h + n), mats))
        return tuple(maps)


def _pair(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Entries j and p-1-j, j < p//2, of x to their sum and difference along both last axes.

    The sum goes to entry j of out and the difference to entry p-1-j; out
    may be x.  Applied twice it gives twice the input, but for the middle
    of odd p.
    """
    n = x.shape[-1] // 2
    # Along y the reversed rows are contiguous, so x is read once and both
    # results go straight to out; along x numpy writes a reversed view
    # fastest by a plain copy, so the difference goes through a contiguous
    # temporary.
    head, tail = x[..., :n, :], x[..., ::-1, :][..., :n, :]
    if out is x:
        tail = tail.copy()
    else:
        middle = slice(n, x.shape[-2] - n)  # empty for even p
        out[..., middle, :] = x[..., middle, :]
    np.subtract(head, tail, out=out[..., ::-1, :][..., :n, :])
    np.add(head, tail, out=out[..., :n, :])
    head, tail = out[..., :n], out[..., ::-1][..., :n]
    kept = tail.copy()
    diff = head - kept
    head += kept
    tail[...] = diff
    return out


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False


def axis_solver(p: int, diffusion, k: float, pole) -> AxisSolver:
    """The split plan's solver of (k*A_axis - pole*I) on p unknowns per axis."""
    if not k > 0:
        raise ValidationError(f"need k > 0, got {k}")
    return AxisSolver(kd=tuple(k * float(d) for d in diffusion), pole=pole,
                      parity=p > GRID_SPACE_MAX_P)


@dataclass(frozen=True)
class AxisMap:
    """f -> shift*f + 2*Re(w (k*A_axis - pole*I)^-1 f) on fields in its solver's space.

    blocks holds the map's real matrix by its diagonal blocks, read-only:
    one (species, p, p) block in grid space, or in the even/odd basis an
    even block (species, h, h) and an odd block (species, n, n), with
    n = p//2 and h = p - n.  Each block maps its part of the field along
    the axis: f @ block along x, else block @ f.
    """

    axis: str
    shape: tuple    # (species, p, p)
    blocks: tuple

    def __call__(self, f: np.ndarray, out: np.ndarray, scratch: np.ndarray,
                 add: bool = False) -> np.ndarray:
        """out = map(f), or out += map(f) when add; out may be f, scratch neither."""
        for g in (f, out, scratch):
            if g.shape != self.shape:
                raise ShapeError(f"field shape {g.shape}, expected {self.shape}")
        along_x = self.axis == AXIS_X
        parts = [(f, out, scratch)]
        if len(self.blocks) == 2:  # the even part leads along the axis, the odd part follows
            h = self.blocks[0].shape[-1]
            halves = (slice(None, h), slice(h, None))
            parts = [tuple(g[..., half] if along_x else g[..., half, :] for g in parts[0])
                     for half in halves]
        for (f_part, out_part, scratch_part), block in zip(parts, self.blocks):
            left, right = (f_part, block) if along_x else (block, f_part)
            if add:
                np.add(out_part, np.matmul(left, right, out=scratch_part), out=out_part)
            else:
                np.matmul(left, right, out=out_part)  # numpy buffers f when out is f
        return out


@dataclass(frozen=True)
class FullOperator:
    """Unsplit 2-D operator A = A1 + A2, block-diagonal over species."""

    grid: Grid2D
    diffusion: tuple
    blocks: tuple  # csr matrices, one per species, each p1d^2 x p1d^2

    @property
    def species(self) -> int:
        return len(self.diffusion)


def assemble_full(grid: Grid2D, diffusion) -> FullOperator:
    """Assemble sparse A = A1 + A2 per species for the unsplit schemes."""
    import scipy.sparse as sparse

    b = sparse.csr_matrix(axis_matrix(grid))
    eye = sparse.identity(grid.p1d, format="csr")
    lap = sparse.kron(b, eye, format="csr") + sparse.kron(eye, b, format="csr")
    diffusion = tuple(diffusion)
    blocks = tuple((-d) * lap for d in diffusion)
    return FullOperator(grid=grid, diffusion=diffusion, blocks=blocks)


@dataclass(frozen=True)
class SparseFactorization:
    """Per-species sparse LU of (k*A - shift*I) for the full 2-D operator."""

    factors: tuple   # splu objects, one per species
    shape: tuple     # (species, p, p)
    dtype: np.dtype

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs)
        if rhs.shape != self.shape:
            raise ShapeError(f"rhs shape {rhs.shape}, expected {self.shape}")
        out = np.empty(self.shape, dtype=np.result_type(self.dtype, rhs.dtype))
        for i, f in enumerate(self.factors):
            out[i] = f.solve(rhs[i].ravel().astype(self.dtype)).reshape(self.shape[1:])
        return out


def factorize_full(op: FullOperator, k: float, shift) -> SparseFactorization:
    """Sparse LU of (k*A - shift*I), one factor per species block."""
    import scipy.sparse as sparse
    import scipy.sparse.linalg as spla

    if not k > 0:
        raise ValidationError(f"need k > 0, got {k}")
    dtype = np.dtype(complex) if np.iscomplexobj(np.asarray(shift)) else np.dtype(float)
    p = op.grid.p1d
    eye = sparse.identity(p * p, format="csr", dtype=dtype)
    factors = []
    for block in op.blocks:
        mat = (k * block.astype(dtype) - shift * eye).tocsc()
        try:
            # The stencil pattern is structurally symmetric, so the AT+A
            # ordering gives markedly less fill than the COLAMD default.
            factors.append(spla.splu(mat, permc_spec="MMD_AT_PLUS_A"))
        except RuntimeError as exc:  # SuperLU signals exact singularity this way
            raise SingularSystemError(str(exc)) from exc
    return SparseFactorization(factors=tuple(factors),
                               shape=(op.species, p, p), dtype=dtype)


@dataclass(frozen=True)
class AxisEigenbasis:
    """Real eigendecomposition B = V diag(lam) V^-1 of the 1-D operator.

    forward and inverse, the one way an eigen-family operator applies,
    take fields to and from it.  All four matrices are stored C-contiguous,
    the transposes too: a product with a contiguous right factor runs about
    a third faster than with a transposed view at p = 79.
    """

    lam: np.ndarray
    v: np.ndarray
    v_t: np.ndarray
    v_inv: np.ndarray
    v_inv_t: np.ndarray

    def forward(self, x: np.ndarray) -> np.ndarray:
        """V^-1 x V^-T over every (p, p) block of x."""
        return self.v_inv @ x @ self.v_inv_t

    def inverse(self, x: np.ndarray) -> np.ndarray:
        """V x V^T over every (p, p) block of x: the inverse of forward."""
        return self.v @ x @ self.v_t


def axis_eigenbasis(b: np.ndarray) -> AxisEigenbasis:
    """Diagonalize the dense 1-D operator b once; every pole and species of a plan shares it.

    The eigenproblems are those of fold_halves(b): V = Q diag(W_even,
    W_odd) and V^-1 = diag(W_even^-1, W_odd^-1) Q^-1, where Q's entries are
    0 and +-1 and Q^-1's 0, +-1/2 and 1, all exact, so V V^-1 carries no
    rounding bias.  Q is sqrt 2 times an orthogonal matrix but for its
    middle column, so cond_2(V) is the ratio of the extreme singular values
    of W_odd and of W_even with its middle row scaled by 1/sqrt 2.

    Raises ValidationError unless b is square and centrosymmetric, and
    SingularSystemError when B has complex eigenvalues or its eigenvector
    matrix is worse conditioned than EIGEN_COND_MAX.
    """
    even, odd = fold_halves(b)
    n = len(odd)
    (lam_e, w_e), (lam_o, w_o) = np.linalg.eig(even), np.linalg.eig(odd)
    lam = np.concatenate([lam_e, lam_o])
    scale = np.max(np.abs(lam), initial=0.0)
    imag = np.max(np.abs(lam.imag), initial=0.0)
    if imag > _EIG_IMAG_TOL * scale:
        raise SingularSystemError(
            f"1-D operator has complex eigenvalues (max |imag| {imag:.3g})")
    w_e, w_o = w_e.real, w_o.real
    sigma = np.concatenate([np.linalg.svd(w, compute_uv=False)
                            for w in (np.vstack([w_e[:n], w_e[n:] * np.sqrt(0.5)]), w_o)])
    cond = sigma.max() / sigma.min()
    if not cond <= EIGEN_COND_MAX:
        raise SingularSystemError(
            f"1-D eigenvector matrix too ill-conditioned (cond {cond:.3g} > {EIGEN_COND_MAX:g})")
    v = _butterfly(w_e, w_o, 1.0)
    v_inv_t = _butterfly(np.linalg.inv(w_e).T, np.linalg.inv(w_o).T, 0.5)
    return AxisEigenbasis(lam=lam.real, v=v, v_t=np.ascontiguousarray(v.T),
                          v_inv=np.ascontiguousarray(v_inv_t.T), v_inv_t=v_inv_t)


def _butterfly(even: np.ndarray, odd: np.ndarray, pair: float) -> np.ndarray:
    """Rows pair*[even, odd], [even's middle row, 0], pair*J [even, -odd], in C order.

    Q diag(even, odd) with pair = 1; (diag(W_even^-1, W_odd^-1) Q^-1)^T from
    the blocks' inverse transposes with pair = 1/2.
    """
    n = len(odd)
    top = np.hstack([even[:n], odd]) * pair
    bottom = np.hstack([even[:n], -odd])[::-1] * pair
    middle = np.hstack([even[n:], np.zeros((len(even) - n, n))])
    return np.ascontiguousarray(np.vstack([top, middle, bottom]))  # vstack keeps F order


@dataclass(frozen=True)
class TensorEigenSolver:
    """(k*A - shift*I)^-1 for the full 2-D operator: in basis, the product with inv_symbol.

    inv_symbol[s, i, j] = 1 / (-k d_s (lam_i + lam_j) - shift), species s's inverse eigenvalues.
    """

    basis: AxisEigenbasis
    inv_symbol: np.ndarray  # (species, p, p), real or complex with the shift


def tensor_eigen_solver(basis: AxisEigenbasis, diffusion, k: float, shift) -> TensorEigenSolver:
    """Eigen-solver of (k*A - shift*I), one eigenvalue grid per species."""
    if not k > 0:
        raise ValidationError(f"need k > 0, got {k}")
    lam_sum = basis.lam[:, np.newaxis] + basis.lam[np.newaxis, :]
    symbol = np.stack([-k * d * lam_sum - shift for d in diffusion])
    if np.any(symbol == 0):
        raise SingularSystemError(f"shifted operator is singular (shift={shift})")
    return TensorEigenSolver(basis=basis, inv_symbol=1.0 / symbol)
