"""Benchmark reaction-diffusion problems.

Each problem describes du/dt = D*Lap(u) + f(u,t) on a square with homogeneous
Dirichlet or Neumann boundaries.  After discretization this becomes
dU/dt + A U = F(U,t) with A carrying diffusion only; the reaction evaluator
F keeps the whole right-hand side f, including any linear terms.

Registry:

* model_dirichlet -- u_t = Lap(u) - u on (-pi/2, pi/2)^2, u0 = cos(x)cos(y),
  exact solution exp(-3t) cos(x) cos(y).
* model_neumann   -- same equation and data on (-pi, pi)^2 with zero-flux
  boundaries; same exact solution.
* enzyme          -- u_t = 0.25*Lap(u) - u/(1+u) on (0,1)^2, Dirichlet,
  u0 = sin(pi x) sin(pi y).  No exact solution.
* enzyme_nonsmooth -- as enzyme with d = 1 and u0 = 1, which conflicts with
  the boundary data and excites spurious oscillations.
* brusselator     -- two-species oscillator on (0,1)^2 with zero-flux
  boundaries, diffusion 2e-3 for both species, kinetics parameters
  alpha = 1, beta = 3.4, u0 = 1/2 + y, v0 = 1 + 5x.

discretize binds a problem to a grid and builds no array: the grid and the
spec's diffusion coefficients are all a solver needs to derive its operator.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ShapeError, ValidationError
from .spatial import DIRICHLET, NEUMANN, Grid2D

BRUSSELATOR_ALPHA = 1.0
BRUSSELATOR_BETA = 3.4


@dataclass(frozen=True)
class ProblemSpec:
    """A benchmark problem: domain, boundaries, kinetics, and known solutions."""

    name: str
    a: float
    b: float
    bc: str
    species: int
    diffusion: tuple
    reaction: Callable          # (U, t) -> F, shape (species, p, p)
    initial: Callable           # (X, Y) -> field
    exact: Optional[Callable]   # (X, Y, t) -> field, or None
    default_T: float


def _model_reaction(u, t):
    return -u


def _model_initial(x, y):
    return (np.cos(x) * np.cos(y))[np.newaxis]


def _model_exact(x, y, t):
    return (np.exp(-3.0 * t) * np.cos(x) * np.cos(y))[np.newaxis]


def _enzyme_reaction(u, t):
    return -u / (1.0 + u)


def _enzyme_initial(x, y):
    return (np.sin(np.pi * x) * np.sin(np.pi * y))[np.newaxis]


def _flat_initial(x, y):
    return np.ones_like(x)[np.newaxis]


def _brusselator_reaction(w, t):
    u, v = w[0], w[1]
    uuv = u * u
    uuv *= v
    out = np.empty(w.shape, np.result_type(uuv, BRUSSELATOR_ALPHA))
    np.multiply(BRUSSELATOR_BETA + 1.0, u, out=out[1])  # out[1] holds (beta+1) u first
    np.subtract(np.add(BRUSSELATOR_ALPHA, uuv, out=out[0]), out[1], out=out[0])
    np.subtract(np.multiply(BRUSSELATOR_BETA, u, out=out[1]), uuv, out=out[1])
    return out


def _brusselator_initial(x, y):
    return np.stack([0.5 + y, 1.0 + 5.0 * x])


_REGISTRY = {
    "model_dirichlet": ProblemSpec(
        name="model_dirichlet", a=-np.pi / 2, b=np.pi / 2, bc=DIRICHLET,
        species=1, diffusion=(1.0,), reaction=_model_reaction,
        initial=_model_initial, exact=_model_exact, default_T=1.0),
    "model_neumann": ProblemSpec(
        name="model_neumann", a=-np.pi, b=np.pi, bc=NEUMANN,
        species=1, diffusion=(1.0,), reaction=_model_reaction,
        initial=_model_initial, exact=_model_exact, default_T=1.0),
    "enzyme": ProblemSpec(
        name="enzyme", a=0.0, b=1.0, bc=DIRICHLET,
        species=1, diffusion=(0.25,), reaction=_enzyme_reaction,
        initial=_enzyme_initial, exact=None, default_T=1.0),
    "enzyme_nonsmooth": ProblemSpec(
        name="enzyme_nonsmooth", a=0.0, b=1.0, bc=DIRICHLET,
        species=1, diffusion=(1.0,), reaction=_enzyme_reaction,
        initial=_flat_initial, exact=None, default_T=1.0),
    "brusselator": ProblemSpec(
        name="brusselator", a=0.0, b=1.0, bc=NEUMANN,
        species=2, diffusion=(2.0e-3, 2.0e-3), reaction=_brusselator_reaction,
        initial=_brusselator_initial, exact=None, default_T=2.0),
}

PROBLEM_NAMES = tuple(_REGISTRY)


def make_problem(name: str) -> ProblemSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown problem {name!r}; choose from {', '.join(PROBLEM_NAMES)}"
        ) from None


@dataclass(frozen=True)
class DiscretizedProblem:
    """A problem bound to a concrete grid; the grid is the discretization."""

    spec: ProblemSpec
    grid: Grid2D

    def reaction(self, u: np.ndarray, t: float) -> np.ndarray:
        """Pointwise reaction F(U, t) under the fixed field ordering.

        The one door every scheme calls the spec's reaction through, so the
        one check of what it returns: an array of u's shape (else
        ShapeError) with a real floating or integer dtype (else
        ValidationError).
        """
        u = np.asarray(u)
        if u.ndim != 3 or u.shape[0] != self.spec.species:
            raise ShapeError(f"field shape {u.shape} does not match "
                             f"{self.spec.species} species")
        f = self.spec.reaction(u, t)
        if not isinstance(f, np.ndarray) or f.shape != u.shape:
            raise ShapeError(f"reaction of {self.spec.name!r} returned {type(f).__name__} of "
                             f"shape {np.shape(f)}, expected an array of shape {u.shape}")
        if f.dtype.kind not in "fiu":
            raise ValidationError(f"reaction of {self.spec.name!r} returned dtype {f.dtype}, "
                                  "expected real floating or integer")
        return f

    def initial(self) -> np.ndarray:
        return self.spec.initial(*self.grid.meshgrid())

    def exact(self, t: float):
        """Exact solution sampled on the grid, or None when unavailable."""
        if self.spec.exact is None:
            return None
        return self.spec.exact(*self.grid.meshgrid(), t)


def discretize(spec: ProblemSpec, m: int) -> DiscretizedProblem:
    """Bind spec to its grid with m interior nodes per axis.

    A user-built spec is outside input, so its diffusion coefficients are
    checked here: one finite positive value per species.
    """
    grid = Grid2D(a=spec.a, b=spec.b, m=m, bc=spec.bc)
    d = spec.diffusion
    if np.shape(d) != (spec.species,) or not all(x > 0 and math.isfinite(x) for x in d):
        raise ValidationError(
            f"need {spec.species} finite positive diffusion coefficients, got {d!r}")
    return DiscretizedProblem(spec=spec, grid=grid)


def interior_count_for_h(spec: ProblemSpec, h_target: float) -> int:
    """Pick m so the realized mesh width (b-a)/(m+1) is closest to h_target."""
    if not (h_target > 0 and math.isfinite((spec.b - spec.a) / h_target)):
        raise ValidationError(f"need target h > 0 with (b-a)/h finite, got {h_target}")
    m = int(round((spec.b - spec.a) / h_target)) - 1
    if m < 3:
        raise ValidationError(f"target h {h_target} gives m = {m} < 3")
    return m
