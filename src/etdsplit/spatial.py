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

The grid is the discretization: B depends on nothing but the grid, and
axis_matrix is the one place its entries are written.  No operator object
is built per run; every solver family builds the dense B from the grid
when it needs it (the split scheme when a run starts, see linsolve), and
the diffusion coefficients stay with the problem.
"""

import mmap
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
BOUNDARY_KINDS = (DIRICHLET, NEUMANN)

AXIS_X = "x"
AXIS_Y = "y"

# 1-D stencil rows, in units of 1/(12 h^2).
_INTERIOR_STENCIL = (-1.0, 16.0, -30.0, 16.0, -1.0)  # centered, offsets -2..2
_DIRICHLET_EDGE = (-20.0, 6.0, 4.0, -1.0)            # first unknown row, offsets 0..3
_NEUMANN_CORNER = (-30.0, 32.0, -2.0)                # boundary node row, offsets 0..2
_NEUMANN_EDGE = (16.0, -31.0, 16.0, -1.0)            # next-to-boundary row, offsets -1..2


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
        nbytes = self.p1d * self.p1d * 8
        if nbytes > np.iinfo(np.intp).max:
            raise ValidationError(f"m = {self.m} is too large: a {self.p1d} x {self.p1d} "
                                  "float64 field exceeds numpy's index range")
        # Every run holds (p, p) fields: a grid whose field cannot be
        # allocated fails here, before any O(p) work.  The probe maps the
        # field's size as malloc would and unmaps it untouched, so it costs
        # no memory and stays off the Python heap.
        try:
            mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE).close()
        except OSError as exc:
            raise MemoryError(f"cannot allocate a {self.p1d} x {self.p1d} float64 field "
                              f"({nbytes / 2 ** 30:.3g} GiB)") from exc

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


def axis_matrix(grid: Grid2D) -> np.ndarray:
    """The 1-D fourth-order operator B ~ d^2/dx^2 over one axis, as a dense (p, p) array.

    The one statement of B's entries.  Interior rows carry the centered
    stencil (-1, 16, -30, 16, -1)/(12 h^2).  Near-boundary rows close the
    stencil according to the boundary kind: homogeneous Dirichlet eliminates
    the known boundary values and uses a one-sided fourth-degree
    interpolation row next to each wall; homogeneous Neumann folds the ghost
    values back with even symmetry, keeping every node (including the wall
    nodes) as an unknown, so every row sums to zero and constants lie in
    the kernel.  Bandwidth is at most 3.
    """
    p = grid.p1d
    b = np.zeros((p, p))
    # Stencil coefficients in units of 1/(12 h^2).
    if grid.bc == DIRICHLET:
        # Coefficients that fall on boundary columns multiply known zeros
        # and are dropped, which truncates the edge rows when m is small.
        _set_interior_rows(b, np.arange(1, p - 1))
        edge = _DIRICHLET_EDGE[:p]
        b[0, :len(edge)] = edge
        b[p - 1, p - len(edge):] = edge[::-1]
    else:
        _set_interior_rows(b, np.arange(2, p - 2))
        b[0, :len(_NEUMANN_CORNER)] = _NEUMANN_CORNER
        b[p - 1, p - len(_NEUMANN_CORNER):] = _NEUMANN_CORNER[::-1]
        b[1, 0:4] = _NEUMANN_EDGE
        b[p - 2, p - 4:p] = _NEUMANN_EDGE[::-1]
    return b / (12.0 * grid.h * grid.h)


def _set_interior_rows(dense, rows) -> None:
    """dense[i, i-2:i+3] = _INTERIOR_STENCIL for every i in rows, clipped to the matrix."""
    rows, cols = np.broadcast_arrays(rows[:, np.newaxis], rows[:, np.newaxis] + np.arange(-2, 3))
    coeffs = np.broadcast_to(_INTERIOR_STENCIL, cols.shape)
    inside = (cols >= 0) & (cols < dense.shape[1])
    dense[rows[inside], cols[inside]] = coeffs[inside]
