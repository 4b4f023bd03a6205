"""Dense oracles shared across the test modules.

Everything here is built independently of the package's solve paths: a
size-capped dense solve, dense Kronecker assembly by explicit loops, dense
rational matrix functions from their numerator/denominator forms, and
dense-solver adapters that let the step kernels run against
numpy.linalg.solve instead of the banded, sparse or eigenbasis solves.
"""

import numpy as np

from etdsplit.errors import ShapeError, SingularSystemError, ValidationError
from etdsplit.problems import DiscretizedProblem, ProblemSpec, discretize
from etdsplit.spatial import AXIS_X, SplitOperators
from etdsplit.steppers import PADE, SMOOTHER


_DENSE_CAP = 64 * 64


def dense_reference_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Direct dense solve used as a test oracle (size-capped)."""
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"matrix shape {mat.shape} is not square")
    if mat.shape[0] > _DENSE_CAP:
        raise ValidationError(f"dense reference solver capped at {_DENSE_CAP}")
    try:
        return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc


def dense_axis_operator(ops: SplitOperators, axis: str, species: int) -> np.ndarray:
    """Dense A_axis = -d (B kron I) or -d (I kron B), assembled by loops."""
    b = ops.axis_op.toarray()
    p = b.shape[0]
    d = ops.diffusion[species]
    out = np.zeros((p * p, p * p))
    for iy in range(p):
        for ix in range(p):
            row = iy * p + ix
            if axis == AXIS_X:
                for jx in range(p):
                    out[row, iy * p + jx] = b[ix, jx]
            else:
                for jy in range(p):
                    out[row, jy * p + ix] = b[iy, jy]
    return -d * out


def dense_full_operator(ops: SplitOperators, species: int) -> np.ndarray:
    return (dense_axis_operator(ops, "x", species)
            + dense_axis_operator(ops, "y", species))


def dense_axis_solvers(ops: SplitOperators, k: float):
    """(solve_x, solve_y) mirroring the plan solvers via dense solves."""
    poles = {"c1": PADE.c1, "c2": PADE.c2}

    def make(axis):
        mats = {
            (name, s): k * dense_axis_operator(ops, axis, s) - pole * np.eye(ops.grid.p1d ** 2)
            for name, pole in poles.items() for s in range(ops.species)
        }

        def solve(pole, rhs):
            out = np.empty(rhs.shape, dtype=complex)
            for s in range(ops.species):
                out[s] = np.linalg.solve(
                    mats[(pole, s)], rhs[s].ravel()).reshape(rhs[s].shape)
            return out

        return solve

    return make("x"), make("y")


def dense_full_solver(ops: SplitOperators, k: float, poles: dict):
    """Full-operator solver (pole name, field) -> field via dense solves."""
    p2 = ops.grid.p1d ** 2
    mats = {
        (name, s): k * dense_full_operator(ops, s) - pole * np.eye(p2)
        for name, pole in poles.items() for s in range(ops.species)
    }

    def solve(pole, rhs):
        out = np.empty(rhs.shape, dtype=complex)
        for s in range(ops.species):
            out[s] = np.linalg.solve(mats[(pole, s)], rhs[s].ravel()).reshape(rhs[s].shape)
        return out

    return solve


ETD_POLES = {"c1": PADE.c1, "c2": PADE.c2}
SMOOTHER_POLES = {"f1": SMOOTHER.f1, "f2": SMOOTHER.f2,
                  "e1": SMOOTHER.e1, "e2": SMOOTHER.e2}


def rational_r22(m: np.ndarray) -> np.ndarray:
    """Pade(2,2) of exp(-M) in numerator/denominator form."""
    eye = np.eye(m.shape[0])
    num = 12.0 * eye - 6.0 * m + m @ m
    den = 12.0 * eye + 6.0 * m + m @ m
    return np.linalg.solve(den.T, num.T).T


def rational_r22_half(m: np.ndarray) -> np.ndarray:
    """Pade(2,2) of exp(-M/2)."""
    eye = np.eye(m.shape[0])
    num = 48.0 * eye - 12.0 * m + m @ m
    den = 48.0 * eye + 12.0 * m + m @ m
    return np.linalg.solve(den.T, num.T).T


def rational_r03(m: np.ndarray) -> np.ndarray:
    """Pade(0,3) of exp(-M)."""
    eye = np.eye(m.shape[0])
    den = 6.0 * eye + 6.0 * m + 3.0 * (m @ m) + m @ m @ m
    return 6.0 * np.linalg.inv(den)


def zero_reaction_problem(base: str = "model_dirichlet") -> ProblemSpec:
    """A problem with F = 0, for pure linear-propagation oracles."""
    from etdsplit.problems import make_problem

    spec = make_problem(base)
    return ProblemSpec(
        name=f"{base}_zero_reaction", a=spec.a, b=spec.b, bc=spec.bc,
        species=spec.species, diffusion=spec.diffusion,
        reaction=lambda u, t: np.zeros_like(u),
        initial=spec.initial, exact=None, default_T=1.0)


def zero_reaction_disc(base: str, m: int) -> DiscretizedProblem:
    return discretize(zero_reaction_problem(base), m)
