"""Shifted-operator solves.

Three solve paths exist, matching the scheme families:

* Transform-space axis solves for the split scheme.  A 2-D system
  (k*A_axis - c*I) x = rhs with A_axis = -d (B kron I) or -d (I kron B)
  decouples into independent 1-D systems sharing the matrix
  M = -k*d*B - c*I.  B is the fourth-order stencil closed by reflection at
  both walls, so the type-1 sine (Dirichlet) or cosine (Neumann) transform
  diagonalizes it, apart from the two Dirichlet edge rows, which a rank-2
  Woodbury term with a 2 x 2 capacitance matrix restores (Buzbee, Golub &
  Nielson, SIAM J. Numer. Anal. 7 (1970); Buzbee, Dorr, George & Golub,
  SIAM J. Numer. Anal. 8 (1971)).  The symbol and the edge rows come from
  the grid and the stencil constants of spatial; B itself is never built.
  A solver is applied only as an axis map, axis_map(axis, w, shift): the
  real map f -> shift*f + 2*Re(w (k*A_axis - pole*I)^-1 f) as a dense
  grid-space matrix, built once with the explicit transform matrix
  type1_matrix (Trefethen, Spectral Methods in MATLAB, SIAM 2000).  Up to
  GRID_SPACE_MAX_P unknowns per axis each map is that p x p matrix and no
  field is transformed.  Above it fields live in grid space's even/odd
  basis: B is centrosymmetric, so the map is too, and the butterfly that
  pairs entry j with entry p-1-j splits it into an even and an odd
  half-size block (Cantoni & Butler, Linear Algebra Appl. 13 (1976)
  275-288).  Only the blocks are built; applying them takes half the flops
  of one p x p product, and a 2-D transform is an O(p^2) butterfly.  A
  split plan is built, and steps, with numpy alone.

* Tensor-product eigen-solves of the full 2-D operator (k*A - shift*I) for
  the presmoother and the semi-implicit BDF schemes (fast diagonalization,
  Lynch, Rice & Thomas, Numer. Math. 6 (1964) 185-199).  With the real
  eigendecomposition B = V diag(lam) V^-1 of the dense spatial.axis_matrix,
  assembled from the eigenproblems of its even and odd halves (B is
  centrosymmetric), forward is V^-1 R V^-T and inverse V X V^T per species
  block, and a solve is forward, times 1 / (-k d (lam_i + lam_j) - shift),
  then inverse: four real p x p matrix products.

* Sparse LU of the full 2-D operator, block-diagonal over species, for the
  unsplit fourth-order scheme, the sparse-direct baseline the split scheme
  is measured against.  assemble_full converts the dense B to CSR.  Only
  this family uses scipy.sparse: assemble_full and factorize_full import it
  when first called.

No scipy module is imported with this module: only the sparse baseline
loads scipy.sparse, and no path uses scipy.fft.

Solvers are built once per (step size, pole) and reused for every time
step; all kinds are immutable.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import ShapeError, SingularSystemError, ValidationError
from .spatial import (
    _DIRICHLET_EDGE,
    AXIS_X,
    AXIS_Y,
    DIRICHLET,
    INTERIOR_STENCIL,
    Grid2D,
    axis_matrix,
)

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


@dataclass(frozen=True)
class AxisTransformBasis:
    """B = F^-1 diag(lam) F + U V^T, with F a type-1 trigonometric transform.

    The 1-D operator B is the interior stencil closed by reflection at both
    walls, so the type-1 sine transform (odd reflection, Dirichlet) or cosine
    transform (even reflection, Neumann) diagonalizes it, with symbol
    lam_j = sum_o c_o cos(o theta_j) / (12 h^2) over the stencil c_o.  Even
    reflection reproduces the Neumann B exactly.  Odd reflection misses the
    Dirichlet edge rows: U = [e_0, e_(p-1)] and V^T holds their differences
    from the reflected rows, (9, -10, 5, -1)/(12 h^2) for m >= 4.  The
    low-rank term is kept transformed: u_hat = F U and v_hat = F^-T V.

    forward and inverse take (species, p, p) fields to the space the axis
    maps act in: grid space itself, or with parity (p above
    GRID_SPACE_MAX_P) its even/odd basis.  There, along each axis, entry
    j < p//2 holds x_j + x_(p-1-j), entry p-1-j holds x_j - x_(p-1-j) and
    the middle entry of odd p is doubled: the even part fills the first
    p - p//2 entries, the odd part the rest.
    Every array is read-only: one basis serves every plan on its grid.
    """

    bc: str
    lam: np.ndarray                  # (p,)
    u_hat: Optional[np.ndarray]      # (p, 2); None when B is exactly reflected
    v_hat: Optional[np.ndarray]      # (p, 2)
    parity: bool = False

    def forward(self, field: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
        """Take a (species, p, p) field to the basis; with overwrite_x, in place."""
        x = field if overwrite_x else np.array(field)
        if self.parity:
            p = x.shape[-1]
            middle = slice(p // 2, p - p // 2)  # empty for even p
            _pair(x)
            x[..., middle, :] *= 2.0
            x[..., middle] *= 2.0
        return x

    def inverse(self, coeffs: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
        """Inverse of forward."""
        x = coeffs if overwrite_x else np.array(coeffs)
        if self.parity:
            _pair(x)
            x *= 0.25
        return x


def _pair(x: np.ndarray) -> np.ndarray:
    """Entries j and p-1-j, j < p//2, to their sum and difference along both last axes, in place.

    The sum goes to entry j and the difference to entry p-1-j.  Applied
    twice it gives twice the input, but for the middle of odd p.
    """
    n = x.shape[-1] // 2
    # Along y the reversed rows are contiguous, so the difference is written
    # to them directly; along x numpy writes a reversed view fastest by a
    # plain copy, so the difference goes through a contiguous temporary.
    head, tail = x[..., :n, :], x[..., ::-1, :][..., :n, :]
    kept = tail.copy()
    np.subtract(head, kept, out=tail)
    head += kept
    head, tail = x[..., :n], x[..., ::-1][..., :n]
    kept = tail.copy()
    diff = head - kept
    head += kept
    tail[...] = diff
    return x


def _read_only(*arrays):
    for a in arrays:
        if a is not None:
            a.flags.writeable = False


def type1_matrix(bc: str, p: int, cols=None) -> np.ndarray:
    """Columns cols (default all) of the unnormalized 1-D type-1 transform F of length p.

    Dirichlet: the DST-I, F[j, k] = 2 sin(pi (j+1)(k+1) / (p+1)), symmetric.
    Neumann: the DCT-I, F[j, k] = 2 cos(pi j k / (p-1)) with its first and
    last columns halved.  These are scipy.fft's dst and dct of type 1, and
    F F = type1_norm(bc, p) I.  Every entry is the sine of an exact integer
    multiple of pi / (2(p-1)) or pi / (p+1), reduced by _sin_pi.
    """
    j = np.arange(p)[:, np.newaxis]
    k = np.arange(p) if cols is None else np.asarray(cols)
    if bc == DIRICHLET:
        return 2.0 * _sin_pi((j + 1) * (k + 1), p + 1)
    f = 2.0 * _sin_pi(p - 1 - 2 * j * k, 2 * (p - 1))  # cos x = sin(pi/2 - x)
    f[:, (k == 0) | (k == p - 1)] *= 0.5
    return f


def _sin_pi(t: np.ndarray, d: int) -> np.ndarray:
    """sin(pi t / d) for integer t, the angle reduced to [-pi/2, pi/2] before scaling by pi.

    Each entry is then within about an ulp of 2 of the exact value; an
    unreduced angle near 2 pi rounds to up to 8 times that.
    """
    t = t % (2 * d)
    t = np.where(t > 1.5 * d, t - 2 * d, np.where(t > 0.5 * d, d - t, t))
    return np.sin(np.pi * t / d)


@lru_cache(maxsize=16)
def _square_type1_matrix(bc: str, p: int) -> np.ndarray:
    """type1_matrix(bc, p), read-only and cached: a split run builds its ten maps from it."""
    f = type1_matrix(bc, p)
    _read_only(f)
    return f


def type1_norm(bc: str, p: int) -> int:
    """The type-1 transform's inverse is F / type1_norm: 2(p+1) (DST-I) or 2(p-1) (DCT-I)."""
    return 2 * (p + 1 if bc == DIRICHLET else p - 1)


@lru_cache(maxsize=16)
def axis_transform_basis(grid: Grid2D) -> AxisTransformBasis:
    """Diagonalize the grid's B by its type-1 transform; every pole and species shares it.

    Cached per grid, so every plan on one grid shares one basis.
    """
    p, h, bc = grid.p1d, grid.h, grid.bc
    if bc == DIRICHLET:
        theta = np.pi * np.arange(1, p + 1) / (p + 1)
    else:
        theta = np.pi * np.arange(p) / (p - 1)
    lam = sum(c * np.cos(off * theta) for off, c in zip(range(-2, 3), INTERIOR_STENCIL))
    lam /= 12.0 * h * h
    u_hat = v_hat = None
    if bc == DIRICHLET:
        # V's first column: B's first row minus the oddly reflected stencil's,
        # whose -2 tap folds onto the first unknown with its sign flipped:
        # (-29, 16, -1, 0).  Both truncate to p; the last column is the mirror.
        c = 12.0 * h * h
        s = INTERIOR_STENCIL
        n = min(p, 4)
        reflected = np.array((s[2] - s[0], s[3], s[4], 0.0)[:n])
        first = (-reflected / c) + (np.array(_DIRICHLET_EDGE[:n]) / c)
        # Only F's first n columns are formed, so the basis stays O(p).  F's
        # column p-1-k is (-1)^j times its column k, so the last unit vector
        # and the mirrored row follow from the first ones by row signs.  F is
        # symmetric, so F^-T = F^-1 = F / type1_norm.
        head = type1_matrix(bc, p, np.arange(n))
        signs = np.ones((p, 2))
        signs[1::2, 1] = -1.0
        u_hat = signs * head[:, :1]
        v_hat = signs * (head @ first / type1_norm(bc, p))[:, np.newaxis]
    _read_only(lam, u_hat, v_hat)
    return AxisTransformBasis(bc=bc, lam=lam, u_hat=u_hat, v_hat=v_hat,
                              parity=p > GRID_SPACE_MAX_P)


@dataclass(frozen=True)
class AxisMap:
    """f -> shift*f + 2*Re(w (k*A_axis - pole*I)^-1 f) on fields in a basis's space.

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
class AxisTransformSolver:
    """(k*A_axis - pole*I)^-1 along either axis, as axis maps in its basis's space.

    With mu = -k d lam - pole, the Woodbury identity gives, in transform
    space, M^-1 = diag(1/mu) - a q^T, a = diag(1/mu) Uk G, q = diag(1/mu)
    v_hat, where Uk = -k d u_hat and G = (I + v_hat^T diag(1/mu) Uk)^-1 is
    the 2 x 2 capacitance inverse.  edge_in = [Re q, Im q] projects a real
    field f to [Re; Im] of q^T f, and edge_a is a.  basis carries the
    space that fields must be in.
    """

    basis: AxisTransformBasis
    inv_symbol: np.ndarray            # (species, p) complex, 1/mu
    edge_in: Optional[np.ndarray] = None  # (species, p, 4) real
    edge_a: Optional[np.ndarray] = None   # (species, p, 2) complex

    def axis_map(self, axis: str, w, shift: float = 0.0) -> AxisMap:
        """f -> shift*f + 2*Re(w (k*A_axis - pole*I)^-1 f) as one AxisMap.

        Its grid-space matrix is F^-1 T F (transposed along x), with F the
        1-D type-1 transform matrix and T the transform-space map:
        diag(shift + 2 Re(w / mu)) plus, for Dirichlet, -2 Re(w a q^T) as
        a real rank-4 product.  On a parity basis only the blocks are
        formed, each from one half of F.  F's column p-1-j is (-1)^i times
        its column j in row i, and its row p-1-i is (-1)^j times its row i
        in column j.  So even wavenumbers (rows i = 0, 2, ...) see only the
        even part of a field and odd ones only the odd part.  The even block
        is then 2 F[:h, 0::2] T_ee F[0::2, :h] / norm and the odd block
        2 F[h:, 1::2] T_oo F[1::2, h:] / norm, with the middle column of
        F[0::2, :h] halved for odd p, where forward doubles that entry.
        """
        if axis not in (AXIS_X, AXIS_Y):
            raise ValidationError(f"unknown axis {axis!r}")
        species, p = self.inv_symbol.shape
        along_x = axis == AXIS_X
        diag = shift + 2.0 * (w * self.inv_symbol).real
        diag = (diag - shift)[:, np.newaxis, :] if along_x else (diag - shift)[:, :, np.newaxis]
        if self.edge_a is not None:
            # -2*Re(w a z) with z = q^T f = [Re z; Im z] = edge_in's projection of f
            wa = w * self.edge_a
            edge_in = self.edge_in
            edge_out = np.concatenate([-2.0 * wa.real, 2.0 * wa.imag], axis=-1)
            if along_x:
                edge_out = np.ascontiguousarray(np.swapaxes(edge_out, 1, 2))
            else:
                edge_in = np.ascontiguousarray(np.swapaxes(edge_in, 1, 2))
        fmat, norm = _square_type1_matrix(self.basis.bc, p), type1_norm(self.basis.bc, p)
        if self.basis.parity:  # (positions, wavenumbers, halve the middle) per block
            h = p - p // 2
            parts = ((slice(0, h), slice(0, p, 2), p % 2 == 1), (slice(h, p), slice(1, p, 2), False))
            norm /= 2.0
        else:
            parts = ((slice(0, p), slice(0, p), False),)
        blocks = []
        for cols, waves, middle in parts:
            # The identity transformed along the axis (I F^T along x, F I
            # along y), mapped by T less shift*I, transformed back; shift*I
            # is added exactly, as the transforms round relative to the rest.
            fin, fout = fmat[waves, cols], np.ascontiguousarray(fmat[cols, waves])
            if middle:
                fin = fin.copy()
                fin[:, -1] *= 0.5
            if along_x:
                f = np.array(np.broadcast_to(fin.T, (species, *fin.T.shape)))
                if self.edge_a is not None:
                    z = f @ np.ascontiguousarray(edge_in[:, waves])
                np.multiply(f, diag[..., waves], out=f)
                if self.edge_a is not None:
                    f += z @ np.ascontiguousarray(edge_out[..., waves])
                f = f @ fout.T
            else:
                f = np.array(np.broadcast_to(fin, (species, *fin.shape)))
                if self.edge_a is not None:
                    z = np.ascontiguousarray(edge_in[..., waves]) @ f
                np.multiply(f, diag[:, waves], out=f)
                if self.edge_a is not None:
                    f += np.ascontiguousarray(edge_out[:, waves]) @ z
                f = fout @ f
            blocks.append(f / norm + shift * np.eye(f.shape[-1]))
        _read_only(*blocks)
        return AxisMap(axis, (species, p, p), tuple(blocks))


def axis_transform_solver(basis: AxisTransformBasis, diffusion, k: float,
                          pole) -> AxisTransformSolver:
    """Transform-space inverse of (k*A_axis - pole*I), one symbol per species."""
    if not k > 0:
        raise ValidationError(f"need k > 0, got {k}")
    kd = k * np.asarray(diffusion, dtype=float)[:, np.newaxis]
    mu = (-kd * basis.lam - pole).astype(complex)
    if np.any(mu == 0):
        raise SingularSystemError(f"shifted axis operator is singular (pole={pole})")
    inv_symbol = 1.0 / mu
    if basis.u_hat is None:
        return AxisTransformSolver(basis=basis, inv_symbol=inv_symbol)
    a0 = -kd[:, :, np.newaxis] * basis.u_hat * inv_symbol[:, :, np.newaxis]
    cap = np.eye(2) + basis.v_hat.T @ a0
    try:
        a = a0 @ np.linalg.inv(cap)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"edge-row capacitance matrix is singular (pole={pole})") from exc
    q = basis.v_hat * inv_symbol[:, :, np.newaxis]
    return AxisTransformSolver(basis=basis, inv_symbol=inv_symbol,
                               edge_in=np.concatenate([q.real, q.imag], axis=-1), edge_a=a)


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

    forward and inverse, the one way an eigen solve applies, take fields to
    and from it.  All four matrices are stored C-contiguous, the transposes
    too: a product with a contiguous right factor runs about a third faster
    than with a transposed view at p = 79.
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

    b must equal its 180-degree rotation J b J, as both walls close the
    stencil alike, so the even/odd butterfly Q splits it into two half-size
    eigenproblems (Cantoni & Butler, Linear Algebra Appl. 13 (1976)
    275-288): with quadrants A = b[:n, :n] and C = b[:n, p-n:], the odd
    block A - C J and the even block A + C J, for odd p bordered by b's
    middle column and twice its middle row's first half.  V = Q diag(W_even,
    W_odd) and V^-1 = diag(W_even^-1, W_odd^-1) Q^-1, where Q's entries are
    0 and +-1 and Q^-1's 0, +-1/2 and 1, all exact, so V V^-1 carries no
    rounding bias.  Q is sqrt 2 times an orthogonal matrix but for its
    middle column, so cond_2(V) is the ratio of the extreme singular values
    of W_odd and of W_even with its middle row scaled by 1/sqrt 2.

    Raises ValidationError unless b is square and centrosymmetric, and
    SingularSystemError when B has complex eigenvalues or its eigenvector
    matrix is worse conditioned than EIGEN_COND_MAX.
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
    """(k*A - shift*I)^-1 for the full 2-D operator, applied in B's eigenbasis.

    inv_symbol[s, i, j] = 1 / (-k d_s (lam_i + lam_j) - shift) is the
    inverse of the operator's eigenvalue grid for species s.
    """

    basis: AxisEigenbasis
    inv_symbol: np.ndarray  # (species, p, p), real or complex with the shift

    @property
    def shape(self) -> tuple:
        return self.inv_symbol.shape

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs)
        if rhs.shape != self.shape:
            raise ShapeError(f"rhs shape {rhs.shape}, expected {self.shape}")
        return self.basis.inverse(self.basis.forward(rhs) * self.inv_symbol)


def tensor_eigen_solver(basis: AxisEigenbasis, diffusion, k: float,
                        shift) -> TensorEigenSolver:
    """Eigen-solver of (k*A - shift*I), one eigenvalue grid per species."""
    if not k > 0:
        raise ValidationError(f"need k > 0, got {k}")
    lam_sum = basis.lam[:, np.newaxis] + basis.lam[np.newaxis, :]
    symbol = np.stack([-k * d * lam_sum - shift for d in diffusion])
    if np.any(symbol == 0):
        raise SingularSystemError(f"shifted operator is singular (shift={shift})")
    return TensorEigenSolver(basis=basis, inv_symbol=1.0 / symbol)
