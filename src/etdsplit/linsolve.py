"""Shifted-operator factorizations and solves.

Three solve paths exist, matching the scheme families:

* Axis-structured banded solves for the split scheme.  A 2-D system
  (k*A_axis - c*I) x = rhs with A_axis = -d (B kron I) or -d (I kron B)
  decouples into p1d independent 1-D systems sharing the single banded
  matrix M = -k*d*B - c*I, solved with one LU factorization (LAPACK
  gbtrf/gbtrs with partial pivoting) and a matrix of right-hand sides.

* Tensor-product eigen-solves of the full 2-D operator (k*A - shift*I) for
  the presmoother and the semi-implicit BDF schemes (fast diagonalization,
  Lynch, Rice & Thomas, Numer. Math. 6 (1964) 185-199).  With the real
  eigendecomposition B = V diag(lam) V^-1, a species block solves as
  V ((V^-1 R V^-T) / (-k d (lam_i + lam_j) - shift)) V^T: four real p x p
  matrix products.

* Sparse LU of the full 2-D operator, block-diagonal over species, for the
  unsplit fourth-order scheme, the sparse-direct baseline the split scheme
  is measured against.

Factorizations are computed once per (step size, pole) and reused for every
time step; all kinds are immutable.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import ShapeError, SingularSystemError, ValidationError
from .spatial import AXIS_X, AXIS_Y, AxisOperator, FullOperator, SplitOperators

_BANDWIDTH = 3  # lower/upper bandwidth of the 1-D axis operator

# Eigenvalues of B with |imag| above this fraction of max |lam| are treated as
# genuinely complex; the fourth-order operator's are real to the last bit.
_EIG_IMAG_TOL = 1e-10

# Largest accepted condition number of the eigenvector matrix V; the solve's
# rounding error grows with it.  The fourth-order operator measures
# 1.41-1.63 for m = 3..319 on both boundary kinds.
EIGEN_COND_MAX = 1e3


@dataclass(frozen=True)
class ShiftedAxisMatrix:
    """Banded storage of M = -k*d*B - c*I for one (pole, species) pair.

    `bands` uses the LAPACK general-band layout with kl extra fill rows:
    bands[kl + ku + i - j, j] = M[i, j].
    """

    bands: np.ndarray
    pole: complex
    k: float
    species: int
    axis: str

    @property
    def n(self) -> int:
        return self.bands.shape[1]


def shifted_axis_matrix(ops: SplitOperators, k: float, pole: complex,
                        axis: str, species: int) -> ShiftedAxisMatrix:
    """Build the 1-D block of (k*A_axis - pole*I) in LAPACK band storage."""
    if not k > 0:
        raise ValidationError(f"need k > 0, got {k}")
    if axis not in (AXIS_X, AXIS_Y):
        raise ValidationError(f"unknown axis {axis!r}")
    d = ops.diffusion[species]
    b = ops.axis_op.mat.tocoo()
    n = b.shape[0]
    kl = ku = _BANDWIDTH
    bands = np.zeros((2 * kl + ku + 1, n), dtype=complex, order="F")
    bands[kl + ku, :] = -pole
    np.add.at(bands, (kl + ku + b.row - b.col, b.col), -k * d * b.data)
    return ShiftedAxisMatrix(bands=bands, pole=pole, k=k, species=species, axis=axis)


@dataclass(frozen=True)
class BandedFactorization:
    """Reusable LU factors (partial pivoting) of a ShiftedAxisMatrix."""

    lu: np.ndarray
    ipiv: np.ndarray
    kl: int
    ku: int
    pole: complex
    species: int

    @property
    def n(self) -> int:
        return self.lu.shape[1]

    def solve_columns(self, rhs: np.ndarray) -> np.ndarray:
        """Solve M X = RHS for a matrix of right-hand-side columns.

        RHS is copied exactly once and never modified: the solve overwrites
        either the complex Fortran-ordered conversion of RHS or, when RHS
        already is one, LAPACK's own copy of it.
        """
        if rhs.shape[0] != self.n:
            raise ShapeError(f"rhs has {rhs.shape[0]} rows, expected {self.n}")
        b = np.asfortranarray(rhs, dtype=complex)
        x, info = lapack.zgbtrs(self.lu, self.kl, self.ku, b, self.ipiv,
                                overwrite_b=not np.may_share_memory(b, rhs))
        if info != 0:
            raise SingularSystemError(f"banded back-substitution failed (info={info})")
        return x


def factorize_axis(ops: SplitOperators, k: float, pole: complex,
                   axis: str, species: int) -> BandedFactorization:
    """LU-factorize -k*d*B - pole*I for one axis/species; reused every step."""
    m = shifted_axis_matrix(ops, k, pole, axis, species)
    kl = ku = _BANDWIDTH
    lu, ipiv, info = lapack.zgbtrf(m.bands, kl, ku)
    if info != 0:
        raise SingularSystemError(
            f"factorization of axis system is singular (pole={pole}, info={info})"
        )
    return BandedFactorization(lu=lu, ipiv=ipiv, kl=kl, ku=ku,
                               pole=pole, species=species)


def solve_axis_system(fact: BandedFactorization, rhs: np.ndarray, axis: str) -> np.ndarray:
    """Solve (k*A_axis - pole*I) x = rhs for one species block.

    rhs has shape (p, p) with axes (y, x).  The x axis solves each y-row,
    the y axis each x-column; both reduce to one banded solve with p
    right-hand sides and agree with the dense solve of the Kronecker system.
    rhs is copied once, with no reordering when it is complex and in C order
    (x axis) or Fortran order (y axis).
    """
    rhs = np.asarray(rhs)
    n = fact.n
    if rhs.shape != (n, n):
        raise ShapeError(f"rhs shape {rhs.shape}, expected ({n}, {n})")
    if axis == AXIS_X:
        return fact.solve_columns(rhs.T).T
    if axis == AXIS_Y:
        return fact.solve_columns(rhs)
    raise ValidationError(f"unknown axis {axis!r}")


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


def solve_full(fact: SparseFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve the factorized full system for a field-shaped right-hand side."""
    return fact.solve(rhs)


@dataclass(frozen=True)
class AxisEigenbasis:
    """Real eigendecomposition B = V diag(lam) V^-1 of the 1-D operator.

    The transposes are stored contiguous: a product with a contiguous right
    factor runs about a third faster than with a transposed view at p = 79.
    """

    lam: np.ndarray
    v: np.ndarray
    v_t: np.ndarray
    v_inv: np.ndarray
    v_inv_t: np.ndarray


def axis_eigenbasis(axis_op: AxisOperator) -> AxisEigenbasis:
    """Diagonalize B once; every pole and species of a plan shares the result.

    Raises SingularSystemError when B has complex eigenvalues or its
    eigenvector matrix is worse conditioned than EIGEN_COND_MAX.
    """
    lam, v = np.linalg.eig(axis_op.toarray())
    scale = np.max(np.abs(lam), initial=0.0)
    imag = np.max(np.abs(lam.imag), initial=0.0)
    if imag > _EIG_IMAG_TOL * scale:
        raise SingularSystemError(
            f"1-D operator has complex eigenvalues (max |imag| {imag:.3g})")
    v = v.real
    cond = np.linalg.cond(v)
    if not cond <= EIGEN_COND_MAX:
        raise SingularSystemError(
            f"1-D eigenvector matrix too ill-conditioned (cond {cond:.3g} > {EIGEN_COND_MAX:g})")
    v_inv = np.linalg.inv(v)
    return AxisEigenbasis(lam=lam.real, v=v, v_t=np.ascontiguousarray(v.T),
                          v_inv=v_inv, v_inv_t=np.ascontiguousarray(v_inv.T))


def _congruence(m: np.ndarray, m_t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x @ m.T over every (p, p) block of x, with real products only."""
    if np.iscomplexobj(x):
        return _congruence(m, m_t, x.real) + 1j * _congruence(m, m_t, x.imag)
    return m @ x @ m_t


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
        b = self.basis
        w = _congruence(b.v_inv, b.v_inv_t, rhs) * self.inv_symbol
        return _congruence(b.v, b.v_t, w)


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
