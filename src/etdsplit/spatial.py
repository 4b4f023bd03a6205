"""Fourth-order finite-difference discretization of the Laplacian on [a,b]^2.

The square domain is partitioned in each direction into m+2 uniformly spaced
points x_j = a + j*h, j = 0..m+1, with mesh width h = (b-a)/(m+1) and m >= 3
interior nodes.  A single 1-D banded matrix B approximates d^2/dx^2 over the
unknowns of one axis; the 2-D operator splits into Kronecker factors

    A1 = -d (B kron I),   A2 = -d (I kron B),   A = A1 + A2 ~ -d*Laplacian

per species with diffusion coefficient d > 0.  A1 and A2 commute exactly.

Field ordering convention (fixed throughout the package): a state over s
species is an ndarray of shape (s, p, p) with axes (species, y, x) -- species
major, then y major, x fastest in memory.  p = p1d is m for homogeneous
Dirichlet boundaries (boundary values are known zeros and eliminated) and
m+2 for homogeneous Neumann boundaries (all nodes are unknowns).

Under this ordering, (B kron I) applies B along y (stride p) and (I kron B)
applies B along x (contiguous runs).

B is held as numpy arrays in diagonal storage; the sparse 2-D operator of
the unsplit scheme is assembled in linsolve, next to its factorization.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
BOUNDARY_KINDS = (DIRICHLET, NEUMANN)

AXIS_X = "x"
AXIS_Y = "y"

# 1-D stencil rows, in units of 1/(12 h^2).
INTERIOR_STENCIL = (-1.0, 16.0, -30.0, 16.0, -1.0)   # centered, offsets -2..2
_DIRICHLET_EDGE = (-20.0, 6.0, 4.0, -1.0)            # first unknown row, offsets 0..3
_NEUMANN_CORNER = (-30.0, 32.0, -2.0)                # boundary node row, offsets 0..2
_NEUMANN_EDGE = (16.0, -31.0, 16.0, -1.0)            # next-to-boundary row, offsets -1..2
_BANDWIDTH = 3                                       # widest row reach, the Dirichlet edge


@dataclass(frozen=True)
class Grid2D:
    """Uniform tensor-product grid on [a,b]^2 with m interior nodes per axis."""

    a: float
    b: float
    m: int
    bc: str

    def __post_init__(self):
        if self.bc not in BOUNDARY_KINDS:
            raise ValidationError(f"unknown boundary kind {self.bc!r}")
        if self.m < 3:
            raise ValidationError(f"need m >= 3 interior nodes per axis, got {self.m}")
        if not self.b > self.a:
            raise ValidationError(f"empty domain [{self.a}, {self.b}]")
        if self.p1d * self.p1d * 8 > np.iinfo(np.intp).max:
            raise ValidationError(f"m = {self.m} is too large: a {self.p1d} x {self.p1d} "
                                  "float64 field exceeds numpy's index range")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.m + 1)

    @property
    def p1d(self) -> int:
        """Unknowns per axis: m (Dirichlet) or m+2 (Neumann)."""
        return self.m if self.bc == DIRICHLET else self.m + 2

    def axis_nodes(self) -> np.ndarray:
        """Coordinates of the unknown nodes along one axis."""
        if self.bc == DIRICHLET:
            j = np.arange(1, self.m + 1)
        else:
            j = np.arange(0, self.m + 2)
        return self.a + j * self.h

    def meshgrid(self):
        """(X, Y) arrays of shape (p1d, p1d); X varies along the last axis."""
        x = self.axis_nodes()
        return np.meshgrid(x, x)


@dataclass(frozen=True)
class AxisOperator:
    """Banded 1-D matrix B ~ d^2/dx^2 over the unknowns of one axis.

    Diagonal storage, laid out as scipy's dia_matrix lays it out: data[k, j]
    holds entry (j - offsets[k], j) of the p x p matrix; lower/upper
    bandwidth <= 3.  For Neumann boundaries every row sums to zero exactly,
    so constants lie in the kernel.
    """

    data: np.ndarray     # (diagonals, p)
    offsets: np.ndarray  # (diagonals,) int32
    h: float
    bc: str

    @property
    def p1d(self) -> int:
        return self.data.shape[1]

    def toarray(self) -> np.ndarray:
        p = self.p1d
        dense = np.zeros((p, p))
        for off, diag in zip(self.offsets, self.data):
            dense += np.diag(diag[max(off, 0):p + min(off, 0)], off)
        return dense


def build_axis_operator(m: int, h: float, bc: str) -> AxisOperator:
    """Assemble the 1-D fourth-order operator for one axis.

    Interior rows carry the centered stencil (-1, 16, -30, 16, -1)/(12 h^2).
    Near-boundary rows close the stencil according to the boundary kind:
    homogeneous Dirichlet eliminates the known boundary values and uses a
    one-sided fourth-degree interpolation row next to each wall; homogeneous
    Neumann folds the ghost values back with even symmetry, keeping every
    node (including the wall nodes) as an unknown.
    """
    if m < 3:
        raise ValidationError(f"need m >= 3, got {m}")
    if not h > 0:
        raise ValidationError(f"need h > 0, got {h}")
    if bc not in BOUNDARY_KINDS:
        raise ValidationError(f"unknown boundary kind {bc!r}")

    # Stencil coefficients in units of 1/(12 h^2); only the band is touched.
    if bc == DIRICHLET:
        # Coefficients that fall on boundary columns multiply known zeros
        # and are dropped, which truncates the edge rows when m is small.
        p = m
        dense = np.zeros((p, p))
        _set_interior_rows(dense, np.arange(1, p - 1))
        edge = _DIRICHLET_EDGE[:p]
        dense[0, :len(edge)] = edge
        dense[p - 1, p - len(edge):] = edge[::-1]
    else:
        p = m + 2
        dense = np.zeros((p, p))
        _set_interior_rows(dense, np.arange(2, p - 2))
        dense[0, : len(_NEUMANN_CORNER)] = _NEUMANN_CORNER
        dense[p - 1, p - len(_NEUMANN_CORNER):] = _NEUMANN_CORNER[::-1]
        dense[1, 0:4] = _NEUMANN_EDGE
        dense[p - 2, p - 4: p] = _NEUMANN_EDGE[::-1]

    # Diagonal storage as dia_matrix(dense) lays it out; only offsets with a
    # nonzero are kept.
    offsets = np.arange(-_BANDWIDTH, _BANDWIDTH + 1)
    cols = np.broadcast_to(np.arange(p), (len(offsets), p))
    rows = cols - offsets[:, np.newaxis]
    inside = (rows >= 0) & (rows < p)
    data = np.zeros((len(offsets), p))
    data[inside] = dense[rows[inside], cols[inside]]
    keep = np.any(data != 0.0, axis=1)
    return AxisOperator(data=data[keep] / (12.0 * h * h),
                        offsets=offsets[keep].astype(np.int32), h=h, bc=bc)


def _set_interior_rows(dense, rows) -> None:
    """dense[i, i-2:i+3] = INTERIOR_STENCIL for every i in rows, clipped to the matrix."""
    rows, cols = np.broadcast_arrays(rows[:, np.newaxis], rows[:, np.newaxis] + np.arange(-2, 3))
    coeffs = np.broadcast_to(INTERIOR_STENCIL, cols.shape)
    inside = (cols >= 0) & (cols < dense.shape[1])
    dense[rows[inside], cols[inside]] = coeffs[inside]


@dataclass(frozen=True)
class SplitOperators:
    """Per-species split operators A1 = -d(B kron I), A2 = -d(I kron B).

    Held implicitly through the shared 1-D operator B and the diffusion
    coefficients; the Kronecker products are never densified.
    """

    grid: Grid2D
    diffusion: tuple
    axis_op: AxisOperator

    @property
    def species(self) -> int:
        return len(self.diffusion)


def assemble_split(grid: Grid2D, diffusion) -> SplitOperators:
    """Build split operators for every species on the given grid."""
    diffusion = tuple(float(d) for d in np.atleast_1d(diffusion))
    if any(d <= 0 for d in diffusion):
        raise ValidationError(f"diffusion coefficients must be positive, got {diffusion}")
    b_op = build_axis_operator(grid.m, grid.h, grid.bc)
    return SplitOperators(grid=grid, diffusion=diffusion, axis_op=b_op)
