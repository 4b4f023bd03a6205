"""Dense oracles shared across the test modules.

Everything here is built independently of the package's solve paths: a
size-capped dense solve, the 1-D operator and dense Kronecker assembly by
explicit loops, the axis operators applied as dense products of
spatial.axis_matrix and the full operator as sparse ones, dense rational
matrix functions from their numerator/denominator forms, a fourth-order
exponential step with true matrix exponentials, the published
22-entry split-step sequence, the 12-entry presmoothing sequence, and
dense-solve stand-ins for a plan's solvers, so the step functions and the
two sequences run against numpy.linalg.solve instead of the axis-map,
sparse or eigenbasis solves; inverses refined in long double, and an sbdf4
run in long double through them.  Also a convergence report's CSV text and
its parse back to rows, a field CSV written in blocks of whole rows, the
way the CLI once wrote it, and eigen_solve, no oracle but the package's
eigen family applied as its schemes apply it, for that path's tests.
"""

import csv
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from etdsplit.errors import ShapeError, SingularSystemError, ValidationError
from etdsplit.linsolve import FullOperator
from etdsplit.problems import DiscretizedProblem, ProblemSpec, discretize
from etdsplit.spatial import AXIS_X, AXIS_Y, DIRICHLET, Grid2D, axis_matrix
from etdsplit.steppers import PADE, SBDF_STARTUP_SUBSTEPS, SMOOTHER


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


def loop_axis_operator(m: int, h: float, bc: str) -> np.ndarray:
    """The dense 1-D operator assembled row by row with explicit loops.

    Reference for spatial.axis_matrix: the same stencils, written one
    coefficient at a time.
    """
    interior = (-1.0, 16.0, -30.0, 16.0, -1.0)
    if bc == DIRICHLET:
        p = m
        dense = np.zeros((p, p))
        for off, c in enumerate((-20.0, 6.0, 4.0, -1.0)):
            if off < p:
                dense[0, off] = c
                dense[p - 1, p - 1 - off] = c
        for i in range(1, p - 1):
            for off, c in zip(range(-2, 3), interior):
                j = i + off
                if 0 <= j < p:
                    dense[i, j] = c
    else:
        p = m + 2
        dense = np.zeros((p, p))
        for off, c in enumerate((-30.0, 32.0, -2.0)):
            dense[0, off] = c
            dense[p - 1, p - 1 - off] = c
        for off, c in zip(range(-1, 3), (16.0, -31.0, 16.0, -1.0)):
            dense[1, 1 + off] = c
            dense[p - 2, p - 2 - off] = c
        for i in range(2, p - 2):
            for off, c in zip(range(-2, 3), interior):
                dense[i, i + off] = c
    dense /= 12.0 * h * h
    return dense


def _check_field(grid: Grid2D, diffusion, u: np.ndarray) -> np.ndarray:
    p, species = grid.p1d, len(diffusion)
    u = np.asarray(u)
    if u.shape != (species, p, p):
        raise ShapeError(
            f"field shape {u.shape} does not match (species, p, p) = "
            f"({species}, {p}, {p})"
        )
    return u


def apply_axis(grid: Grid2D, diffusion, u: np.ndarray, axis: str, species: int) -> np.ndarray:
    """Apply one split operator to a species block: returns -d * (B along axis).

    The x axis acts on contiguous x-runs, the y axis with stride p1d; the
    result is the (p, p) block for the requested species.
    """
    u = _check_field(grid, diffusion, u)
    d = diffusion[species]
    block = u[species]
    bmat = axis_matrix(grid)
    if axis == AXIS_Y:
        out = bmat @ block
    elif axis == AXIS_X:
        out = (bmat @ block.T).T
    else:
        raise ValidationError(f"axis must be {AXIS_X!r} or {AXIS_Y!r}, got {axis!r}")
    return -d * out


def full_matvec(op: FullOperator, u: np.ndarray) -> np.ndarray:
    """A u for the sparse full operator, species block by species block."""
    p = op.grid.p1d
    out = np.empty_like(u)
    for i, block in enumerate(op.blocks):
        out[i] = (block @ u[i].ravel()).reshape(p, p)
    return out


def dense_axis_operator(grid: Grid2D, diffusion, axis: str, species: int) -> np.ndarray:
    """Dense A_axis = -d (B kron I) or -d (I kron B), assembled by loops."""
    b = axis_matrix(grid)
    p = b.shape[0]
    d = diffusion[species]
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


def dense_full_operator(grid: Grid2D, diffusion, species: int) -> np.ndarray:
    return (dense_axis_operator(grid, diffusion, "x", species)
            + dense_axis_operator(grid, diffusion, "y", species))


def dense_axis_solvers(grid: Grid2D, diffusion, k: float):
    """(solve_x, solve_y) mirroring the plan solvers via dense solves."""
    poles = {"c1": PADE.c1, "c2": PADE.c2}
    species = len(diffusion)

    def make(axis):
        eye = np.eye(grid.p1d ** 2)
        mats = {
            (name, s): k * dense_axis_operator(grid, diffusion, axis, s) - pole * eye
            for name, pole in poles.items() for s in range(species)
        }

        def solve(pole, rhs):
            out = np.empty(rhs.shape, dtype=complex)
            for s in range(species):
                out[s] = np.linalg.solve(
                    mats[(pole, s)], rhs[s].ravel()).reshape(rhs[s].shape)
            return out

        return solve

    return make("x"), make("y")


@dataclass(frozen=True)
class DenseSolver:
    """(k*A - pole*I)^-1 per species by numpy.linalg.solve: a plan-solver stand-in."""

    mats: tuple  # one dense p^2 x p^2 matrix per species

    def solve(self, rhs):
        out = np.empty(rhs.shape, dtype=complex)
        for s, mat in enumerate(self.mats):
            out[s] = np.linalg.solve(mat, rhs[s].ravel()).reshape(rhs[s].shape)
        return out


def dense_full_solvers(grid: Grid2D, diffusion, k: float, poles: dict) -> dict:
    """Plan solvers {pole name: DenseSolver} of the full operator at step k."""
    eye = np.eye(grid.p1d ** 2)
    return {name: DenseSolver(tuple(k * dense_full_operator(grid, diffusion, s) - pole * eye
                                    for s in range(len(diffusion))))
            for name, pole in poles.items()}


def etdrk4p22if_kernel(u, t, k, reaction, solve_x, solve_y, pade=PADE):
    """One split fourth-order step: the verbatim 22-entry solve/set sequence.

    solve_x/solve_y solve (k*A2 - c*I) and (k*A1 - c*I) systems respectively
    (A2 acts along x, A1 along y), 14 solves per species.
    """
    c = pade
    fn = reaction(u, t)
    # stage a
    an1 = solve_x("c2", 2.0 * c.w11 * u + 24.0 * k * c.w51 * fn)
    an2 = u + 2.0 * an1.real
    an3 = solve_y("c2", 2.0 * c.w11 * an2)
    an = an2 + 2.0 * an3.real
    fa = reaction(an, t + 0.5 * k)
    # stage b
    bn1 = solve_x("c2", 2.0 * c.w11 * u)
    bn2 = solve_x("c2", 24.0 * k * c.w51 * fa)
    bn3 = u + 2.0 * bn1.real
    bn4 = solve_y("c2", 2.0 * c.w11 * bn3)
    bn = bn3 + 2.0 * bn4.real + 2.0 * bn2.real
    fb = reaction(bn, t + 0.5 * k)
    # stage c
    cn1 = solve_x("c2", 2.0 * c.w11 * an + 48.0 * k * c.w51 * fb)
    cn2 = solve_x("c2", 24.0 * k * c.w51 * fn)
    cs1 = an + 2.0 * cn1.real
    cs2 = 2.0 * cn2.real
    cn3 = solve_y("c2", 2.0 * c.w11 * cs1)
    cn4 = solve_y("c1", c.w11 * cs2)
    cn = cs1 + 2.0 * cn3.real - (cs2 + 2.0 * cn4.real)
    fc = reaction(cn, t + k)
    g = fa + fb
    # update
    un1 = solve_x("c1", c.w11 * u + k * c.w21 * fn)
    un2 = solve_x("c1", 4.0 * k * c.w31 * g)
    un3 = solve_x("c1", k * c.w41 * fc)
    us1 = u + 2.0 * un1.real
    us2 = 2.0 * un2.real
    us3 = 2.0 * un3.real
    un4 = solve_y("c1", c.w11 * us1)
    un5 = solve_y("c2", 2.0 * c.w11 * us2)
    return us1 + us2 + us3 + 2.0 * un4.real + 2.0 * un5.real


def smoother_kernel(u, t, k, reaction, solvers, sm=SMOOTHER):
    """One third-order presmoothing step: the 12-entry solve/set sequence.

    solvers maps the poles f1, f2, e1, e2 to objects whose .solve applies
    (k*A - pole*I)^-1, such as dense_full_solvers(..., SMOOTHER_POLES).  The
    f1/e1 solves are real (real pole, real weights); the f2/e2 solves are
    complex and folded back through 2*Re.
    """
    f1, f2, e1, e2 = (solvers[pole].solve for pole in ("f1", "f2", "e1", "e2"))
    fn = reaction(u, t)
    an1 = f1(2.0 * sm.s11 * u + k * sm.s51 * fn)
    an2 = f2(2.0 * sm.s12 * u + k * sm.s52 * fn)
    an = an1.real + 2.0 * an2.real
    fa = reaction(an, t + 0.5 * k)
    bn1 = f1(2.0 * sm.s11 * u + k * sm.s51 * fa)
    bn2 = f2(2.0 * sm.s12 * u + k * sm.s52 * fa)
    bn = bn1.real + 2.0 * bn2.real
    fb = reaction(bn, t + 0.5 * k)
    gn = 2.0 * fb - fn
    cn1 = f1(2.0 * sm.s11 * an + k * sm.s51 * gn)
    cn2 = f2(2.0 * sm.s12 * an + k * sm.s52 * gn)
    cn = cn1.real + 2.0 * cn2.real
    fc = reaction(cn, t + k)
    g = fa + fb
    un1 = e1(sm.s11 * u + k * sm.s21 * fn + 2.0 * k * sm.s31 * g + k * sm.s41 * fc)
    un2 = e2(sm.s12 * u + k * sm.s22 * fn + 2.0 * k * sm.s32 * g + k * sm.s42 * fc)
    return un1.real + 2.0 * un2.real


def _phi_matrices(m: np.ndarray):
    """exp(M) and the first three phi functions of a dense matrix.

    Evaluated jointly through the exponential of a 4x4 block companion
    embedding, which stays accurate for small and singular M alike.
    """
    n = m.shape[0]
    dtype = np.result_type(m.dtype, float)
    w = np.zeros((4 * n, 4 * n), dtype=dtype)
    w[:n, :n] = m
    idx = np.arange(n)
    for blk in range(3):
        w[blk * n + idx, (blk + 1) * n + idx] = 1.0
    e = scipy.linalg.expm(w)
    return e[:n, :n], e[:n, n:2 * n], e[:n, 2 * n:3 * n], e[:n, 3 * n:]


def exact_etdrk4_reference_step(a_dense: np.ndarray, u: np.ndarray, t: float,
                                k: float, reaction: Callable) -> np.ndarray:
    """One fourth-order exponential step with true dense matrix exponentials.

    State and reaction are flat vectors, a_dense the full dense operator
    (size-capped).  The stage-combination matrices come from phi functions
    of -kA, so singular operators (zero-flux boundaries) are handled without
    forming inverse powers.
    """
    a_dense = np.asarray(a_dense)
    n = a_dense.shape[0]
    if n > 64 * 64:
        raise ValidationError("dense reference step capped at 64^2 unknowns")
    em, phi1, phi2, phi3 = _phi_matrices(-k * a_dense)
    em2, phi1h, _, _ = _phi_matrices(-0.5 * k * a_dense)
    p_til = 0.5 * k * phi1h
    p1 = k * (phi1 - 3.0 * phi2 + 4.0 * phi3)
    p2 = k * (phi2 - 2.0 * phi3)
    p3 = k * (-phi2 + 4.0 * phi3)

    fn = reaction(u, t)
    a = em2 @ u + p_til @ fn
    fa = reaction(a, t + 0.5 * k)
    b = em2 @ u + p_til @ fa
    fb = reaction(b, t + 0.5 * k)
    c = em2 @ a + p_til @ (2.0 * fb - fn)
    fc = reaction(c, t + k)
    return em @ u + p1 @ fn + 2.0 * p2 @ (fa + fb) + p3 @ fc


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


def eigen_solve(solver, rhs: np.ndarray) -> np.ndarray:
    """(k*A - shift*I)^-1 rhs through an eigen-solver: forward, times inv_symbol, inverse."""
    return solver.basis.inverse(solver.basis.forward(rhs) * solver.inv_symbol)


def refined_inverse(mat: np.ndarray, steps: int = 2) -> np.ndarray:
    """mat^-1 in long double: numpy's inverse refined by Newton-Schulz steps.

    Each step X <- X (2I - mat X) squares the residual I - mat X, so two
    steps from a double-precision inverse reach long double's rounding.
    mat may be given in long double.  Returns np.longdouble, or
    np.clongdouble for a complex mat.
    """
    wide = np.asarray(mat).astype(np.clongdouble if np.iscomplexobj(mat) else np.longdouble)
    x = np.linalg.inv(wide.astype(complex if np.iscomplexobj(mat) else float)).astype(wide.dtype)
    two = 2.0 * np.eye(len(wide), dtype=wide.dtype)
    for _ in range(steps):
        x = x @ (two - wide @ x)
    return x


def sbdf4_long_double_reference(disc: DiscretizedProblem, k: float, T: float) -> np.ndarray:
    """An sbdf4 run to T in long double, through dense refined inverses.

    The same scheme as the package's run: three startup intervals of
    SBDF_STARTUP_SUBSTEPS substeps U' = (k0 A + I)^-1 (U + k0 F(U)), with
    k0 = k/SBDF_STARTUP_SUBSTEPS rounded as the plan rounds it, then main
    steps U' = (12 k A + 25 I)^-1 (48 U_3 - 36 U_2 + 16 U_1 - 3 U_0
    + k (48 F_3 - 72 F_2 + 48 F_1 - 12 F_0)).  A is the dense full operator
    per species.  Both shifted matrices are formed in long double, as
    I + k0 A rounded to double would lose the low digits of k0 A, and
    inverted by refined_inverse.  The reaction is evaluated in long double
    at t = 0, so only time-independent reactions apply.  Returns float64.
    """
    grid, diffusion = disc.grid, disc.spec.diffusion
    p, n = grid.p1d, grid.p1d ** 2
    k0, k4 = np.longdouble(k / SBDF_STARTUP_SUBSTEPS), np.longdouble(12.0 * k)
    eye = np.eye(n, dtype=np.longdouble)
    a = [dense_full_operator(grid, diffusion, s).astype(np.longdouble)
         for s in range(len(diffusion))]
    x1 = np.stack([refined_inverse(k0 * op + eye) for op in a])
    x4 = np.stack([refined_inverse(k4 * op + 25 * eye) for op in a])

    def reaction(u):
        return disc.spec.reaction(u.reshape(-1, p, p), 0.0).reshape(-1, n, 1)

    u = disc.initial().astype(np.longdouble).reshape(-1, n, 1)
    hist_u, hist_f = [], []
    for _ in range(round(T / k)):
        hist_u.append(u)
        hist_f.append(reaction(u))
        if len(hist_u) < 4:
            for _ in range(SBDF_STARTUP_SUBSTEPS):
                u = x1 @ (u + k0 * reaction(u))
            continue
        u = x4 @ (48 * hist_u[3] - 36 * hist_u[2] + 16 * hist_u[1] - 3 * hist_u[0]
                  + np.longdouble(k) * (48 * hist_f[3] - 72 * hist_f[2] + 48 * hist_f[1]
                                        - 12 * hist_f[0]))
        del hist_u[0], hist_f[0]
    return u.reshape(-1, p, p).astype(float)


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


def report_csv(report) -> str:
    """A ConvergenceReport's CSV text, as write_csv writes it."""
    buf = io.StringIO()
    report.write_csv(buf)
    return buf.getvalue()


def parse_report_csv(text: str) -> list:
    """Report CSV rows back as dicts with floats restored (None for blank orders)."""
    out = []
    for rec in csv.DictReader(io.StringIO(text)):
        out.append({
            "scheme": rec["scheme"], "problem": rec["problem"],
            "k": float(rec["k"]), "h": float(rec["h"]), "m": int(rec["m"]),
            "error": float(rec["error"]) if rec["error"] else None,
            "order": float(rec["order"]) if rec["order"] else None,
            "seconds": float(rec["seconds"]),
        })
    return out


# Rows formatted by one %-operation in block_field_csv.
_CSV_BLOCK_ROWS = 1024


def block_field_csv(grid: Grid2D, u: np.ndarray) -> str:
    """The field CSV with every cell of every node formatted, _CSV_BLOCK_ROWS rows at a time."""
    buf = io.StringIO()
    species = u.shape[0]
    names = ["u"] if species == 1 else [f"u{i + 1}" for i in range(species)]
    buf.write(",".join(["x", "y"] + names) + "\n")
    x, y = grid.meshgrid()
    table = np.column_stack([x.ravel(), y.ravel()] + [u[s].ravel() for s in range(species)])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    full_block = row * _CSV_BLOCK_ROWS
    for start in range(0, table.shape[0], _CSV_BLOCK_ROWS):
        block = table[start:start + _CSV_BLOCK_ROWS]
        fmt = full_block if len(block) == _CSV_BLOCK_ROWS else row * len(block)
        buf.write(fmt % tuple(block.ravel().tolist()))
    return buf.getvalue()
