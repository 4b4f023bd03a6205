"""Time-integration kernels.

Schemes:

* ``etdrk4p22if`` -- fourth-order exponential Runge-Kutta step whose matrix
  exponentials are replaced by Pade(2,2) rationals, with dimensional
  splitting so every linear solve is a family of 1-D systems along one
  axis.  The step is four stage equations in sine/cosine-transform space,
  with N the reaction at grid values:

      a  = Hy(Hx u + Px N(u))
      b  = Hy Hx u + Px N(a)
      c  = Hy(Hx a + 2 Px N(b)) - Ry Px N(u)
      u' = Ry(Rx u + Qx(k w21) N(u)) + Hy Qx(4k w31) (N(a) + N(b)) + Qx(k w41) N(c)

  H = I + 2Re(2 w11 (kA - c2)^-1), R = I + 2Re(w11 (kA - c1)^-1),
  P = 2Re(24 k w51 (kA - c2)^-1) and Q(w) = 2Re(w (kA - c1)^-1) along the
  subscript's axis are each one real axis map of linsolve, all species at
  once.  A run's first split step makes five forward and four inverse 2-D
  transforms; every later one starts from the transform the previous step
  kept and makes four of each.  The step's maps and field buffers
  (SplitWork) are made once per run, for that run and its plan only.
* ``etdrk4p22``   -- the same one-step scheme without splitting (8 steps,
  sparse 2-D solves).
* ``smoother-only`` / presmoothing -- a third-order step built from the
  L-damping Pade(0,3) rational, used for a few initial steps to kill
  oscillations from non-smooth initial data.  Always unsplit; its 2-D
  solves run in the eigenbasis of the 1-D operator.
* ``sbdf4``       -- fourth-order semi-implicit BDF baseline with a
  first-order semi-implicit startup (sbdf1_step) run at a 2000x finer
  substep; its 2-D solves also run in the 1-D eigenbasis.

All rational functions are applied through partial fractions: each becomes
"solve a shifted system at a complex pole, combine as U + 2*Re(...)", so a
step is a fixed sequence of factorized solves.  States stay real throughout.
One table, scheme_entry, maps each of the four scheme names to its solver
family, its shifted systems and start(plan), which begins one run and
returns its step(u, t); the step holds what the run carries between steps,
the split step's SplitWork or sbdf4's history.  A plan holds one solver per
pole in StepPlan.solvers.  check_run alone decides whether a run is valid
and gives its step count.  integrate is the one function that runs a
scheme: every scheme steps through its one loop, _march.

Every kernel runs on one thread; the only parallelism is whatever BLAS
uses inside its matrix products.  On grids up to
linsolve.DENSE_TRANSFORM_MAX_P unknowns per axis those include the split
step's 2-D transforms, which run there as dense matrix products.
"""

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from typing import Callable, Optional

import numpy as np

from .errors import DivergenceError, ValidationError
from .linsolve import (
    assemble_full,
    axis_eigenbasis,
    axis_transform_basis,
    axis_transform_solver,
    factorize_full,
    tensor_eigen_solver,
)
from .problems import DiscretizedProblem
from .spatial import AXIS_X, AXIS_Y, axis_matrix

ETDRK4P22IF = "etdrk4p22if"
ETDRK4P22 = "etdrk4p22"
SBDF4 = "sbdf4"
SMOOTHER_ONLY = "smoother-only"
SCHEMES = (ETDRK4P22IF, ETDRK4P22, SBDF4, SMOOTHER_ONLY)

SBDF_STARTUP_SUBSTEPS = 2000  # sbdf1 startup substeps per coarse interval

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class PadeConstants:
    """Poles and partial-fraction weights of the Pade(2,2) step functions.

    c1 is the upper-half-plane pole of the full-step rational R(z)
    approximating exp(-z); c2 = 2*c1 is the pole of the half-step rational.
    w11 weights both R's; w21, w31, w41 weight the three stage-combination
    functions and w51 the half-step stage function.
    """

    c1: complex = -3.0 + 1j * _SQRT3
    c2: complex = -6.0 + 2j * _SQRT3
    w11: complex = -(6.0 + 1j * 18.0 / _SQRT3)
    w21: complex = -(0.5 + 1j * 5.0 * _SQRT3 / 6.0)
    w31: complex = -1j * _SQRT3 / 6.0
    w41: complex = 0.5 + 1j * _SQRT3 / 6.0
    w51: complex = -1j * _SQRT3 / 12.0


PADE = PadeConstants()


@dataclass(frozen=True)
class SmootherConstants:
    """Poles and weights of the third-order Pade(0,3) presmoothing step.

    e1 (real) and e2 are the upper-half-plane poles of the full-step
    rational; f = 2*e are the half-step poles.  The s-weights are the
    partial-fraction residues of the stage and combination functions.
    """

    f1: float
    f2: complex
    e1: float
    e2: complex
    s11: float
    s12: complex
    s21: float
    s22: complex
    s31: float
    s32: complex
    s41: float
    s42: complex
    s51: float
    s52: complex


def _smoother_constants():
    f1 = -3.19214327596664
    f2 = -1.40392836201668 + 3.61467898890404j
    e1 = 0.5 * f1
    e2 = 0.5 * f2
    de2 = abs(e1 - e2) ** 2
    im2 = e2.imag
    return SmootherConstants(
        f1=f1, f2=f2, e1=e1, e2=e2,
        s11=6.0 / de2,
        s12=-3.0j / (im2 * (e2 - e1)),
        s21=(1.0 - e1) / de2,
        s22=1.0j * (e2 - 1.0) / (2.0 * im2 * (e2 - e1)),
        s31=(1.0 + e1) / de2,
        s32=-1.0j * (e2 + 1.0) / (2.0 * im2 * (e2 - e1)),
        s41=(1.0 + e1 ** 2) / de2,
        s42=-1.0j * (e2 ** 2 + 1.0) / (2.0 * im2 * (e2 - e1)),
        s51=(24.0 + 6.0 * f1 + f1 ** 2) / abs(f1 - f2) ** 2,
        s52=-1.0j * (24.0 + 6.0 * f2 + f2 ** 2) / (2.0 * f2.imag * (f2 - f1)),
    )


SMOOTHER = _smoother_constants()


@dataclass(frozen=True)
class StepPlan:
    """Cached solvers for one (scheme, step size, discretization).

    solvers maps each pole name of the scheme's table row to one solver of
    the row's family: a transform-space inverse covering both axes and every
    species (split scheme; each carries the shared transform as .basis and
    applies as .axis_map), a sparse LU factorization (etdrk4p22) or an
    eigen-solver sharing one 1-D eigenbasis (presmoother and SBDF schemes).
    The last two solve with .solve(rhs).  Plans are immutable.
    """

    k: float
    disc: DiscretizedProblem
    solvers: dict


def scheme_entry(scheme: str, k: float = 1.0) -> tuple:
    """Look a scheme up in the scheme table; the one unknown-scheme check.

    Returns (family, systems, start).  family is the solver of every system:
    "transform" (split, 1-D transforms), "sparse" (SuperLU) or "eigen" (1-D
    eigenbasis).  systems maps each pole name to the (step, shift) of its
    system (step*A - shift*I) at step size k.  start(plan) begins one run on
    a plan of this row and returns the run's step(u, t); each call starts a
    run of its own.  The table is built per call, so it holds the functions
    the module's names are bound to at that moment.
    """
    if scheme not in SCHEMES:
        raise ValidationError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    c, sm = PADE, SMOOTHER
    etd = {"c1": (k, c.c1), "c2": (k, c.c2)}
    return {
        ETDRK4P22IF: ("transform", etd,
                      lambda plan: partial(etdrk4p22if_step, plan, work=SplitWork(plan))),
        ETDRK4P22: ("sparse", etd, lambda plan: partial(etdrk4p22_step, plan)),
        SMOOTHER_ONLY: ("eigen", {"f1": (k, sm.f1), "f2": (k, sm.f2),
                                  "e1": (k, sm.e1), "e2": (k, sm.e2)},
                        lambda plan: partial(smoother_step, plan)),
        # Main solve (25 I + 12 k A); startup substep solve (I + k/2000 A).
        SBDF4: ("eigen", {"sbdf4": (12.0 * k, -25.0),
                          "sbdf1": (k / SBDF_STARTUP_SUBSTEPS, -1.0)}, _sbdf4_run),
    }[scheme]


def build_plan(scheme: str, disc: DiscretizedProblem, k: float) -> StepPlan:
    """Factorize every shifted system the scheme's step sequence solves."""
    _check_step(k)
    family, systems, _ = scheme_entry(scheme, k)
    grid, diffusion = disc.grid, disc.spec.diffusion
    if family == "transform":
        solver = partial(axis_transform_solver, axis_transform_basis(grid), diffusion)
    elif family == "sparse":
        solver = partial(factorize_full, assemble_full(grid, diffusion))
    else:
        solver = partial(tensor_eigen_solver, axis_eigenbasis(axis_matrix(grid)), diffusion)
    solvers = {pname: solver(k_sys, shift) for pname, (k_sys, shift) in systems.items()}
    return StepPlan(k=k, disc=disc, solvers=solvers)


class SplitWork:
    """What one run of the split step keeps between steps.

    maps holds the ten axis maps the step derives from plan's two solvers
    and fields five (species, p, p) buffers and the maps' scratch; a step on
    another plan rejects it.  state is the array the last step returned and
    state_hat its transform, kept in fields; a step from state starts at
    state_hat.  Each split run makes its own, so no two runs share.
    """

    def __init__(self, plan: StepPlan):
        s1, s2, k = plan.solvers["c1"], plan.solvers["c2"], plan.k
        w11, w51 = PADE.w11, 24.0 * k * PADE.w51
        self.maps = (s2.axis_map(AXIS_X, 2.0 * w11, 1.0), s2.axis_map(AXIS_Y, 2.0 * w11, 1.0),
                     s2.axis_map(AXIS_X, w51), s2.axis_map(AXIS_X, 2.0 * w51),
                     s1.axis_map(AXIS_X, w11, 1.0), s1.axis_map(AXIS_Y, w11, 1.0),
                     s1.axis_map(AXIS_Y, -w11, -1.0), s1.axis_map(AXIS_X, k * PADE.w21),
                     s1.axis_map(AXIS_X, 4.0 * k * PADE.w31), s1.axis_map(AXIS_X, k * PADE.w41))
        p = plan.disc.grid.p1d
        self.fields = [np.empty((plan.disc.spec.species, p, p)) for _ in range(6)]
        self.plan, self.state, self.state_hat = plan, None, None


def etdrk4p22if_step(plan: StepPlan, u: np.ndarray, t: float,
                     work: Optional[SplitWork] = None) -> np.ndarray:
    """Advance one step of the split scheme in transform space.

    The module docstring's four stage equations: fifteen applications of
    ten axis maps.  Every field is transformed along both axes, so x and y
    maps apply to it alike and a field goes back to grid values only where
    the reaction needs it.

    A step from grid values makes five forward and four inverse 2-D
    transforms.  Given the run's work, a step from the array the previous
    step returned starts from its kept transform: four forward and four
    inverse, the least the four grid-space reaction evaluations allow.
    Every field lives in work's buffers, transformed in place; only the
    returned state is a new array.  Without work the step makes its own.
    """
    k, reaction, basis = plan.k, plan.disc.reaction, plan.solvers["c1"].basis
    if work is None:
        work = SplitWork(plan)
    elif work.plan is not plan:
        raise ValidationError("a SplitWork serves only the plan it was made for")
    f0, f1, f2, f3, f4, scratch = work.fields
    hx, hy, px, px2, rx, ry, minus_ry, qx21, qx31, qx41 = (
        partial(m, scratch=scratch) for m in work.maps)

    def fwd(buf, field):
        np.copyto(buf, field)
        return basis.forward(buf, overwrite_x=True)

    def reaction_hat(field_hat, at):
        """The transformed reaction at the grid values of field_hat, in its buffer."""
        return fwd(field_hat, reaction(basis.inverse(field_hat, overwrite_x=True), at))

    u_hat = work.state_hat if u is work.state else fwd(f0, u)
    work.state = None  # f0 changes next: a step that fails leaves nothing to carry
    fn = fwd(f1, reaction(u, t))
    hxu, pn = hx(u_hat, f2), px(fn, f3)
    us = qx21(fn, rx(u_hat, u_hat), add=True)  # u' starts as Rx u + Qx(k w21) N(u)
    a = hy(np.add(hxu, pn, out=f1), f1)
    np.copyto(f4, a)  # reaction_hat overwrites its field, and stage c needs a
    fa = reaction_hat(f4, t + 0.5 * k)
    b = px(fa, hy(hxu, hxu), add=True)
    fb = reaction_hat(b, t + 0.5 * k)
    c = hy(px2(fb, hx(a, a), add=True), a)  # Hy(Hx a + 2 Px N(b)), then - Ry Px N(u)
    c = minus_ry(pn, c, add=True)
    g = np.add(fa, fb, out=fa)
    fc = reaction_hat(c, t + k)
    out = hy(qx31(g, f2), ry(us, us), add=True)  # Ry(...) + Hy Qx(4k w31) (N(a) + N(b))
    out = qx41(fc, out, add=True)
    work.state_hat, work.state = out, basis.inverse(out)
    return work.state


def etdrk4p22_step(plan: StepPlan, u: np.ndarray, t: float) -> np.ndarray:
    """Advance one step of the unsplit scheme: the 8-entry solve/set sequence."""
    c, k, reaction = PADE, plan.k, plan.disc.reaction
    solve1, solve2 = plan.solvers["c1"].solve, plan.solvers["c2"].solve
    fn = reaction(u, t)
    an1 = solve2(2.0 * c.w11 * u + 24.0 * c.w51 * k * fn)
    an = u + 2.0 * an1.real
    fa = reaction(an, t + 0.5 * k)
    bn1 = solve2(2.0 * c.w11 * u + 24.0 * c.w51 * k * fa)
    bn = u + 2.0 * bn1.real
    fb = reaction(bn, t + 0.5 * k)
    cn1 = solve2(2.0 * c.w11 * an + 24.0 * c.w51 * k * (2.0 * fb - fn))
    cn = an + 2.0 * cn1.real
    fc = reaction(cn, t + k)
    g = fa + fb
    un1 = solve1(c.w11 * u + c.w21 * k * fn + 4.0 * c.w31 * k * g + c.w41 * k * fc)
    return u + 2.0 * un1.real


def smoother_step(plan: StepPlan, u: np.ndarray, t: float) -> np.ndarray:
    """Advance one third-order presmoothing step: the 12-entry solve/set sequence.

    The f1/e1 solves are real (real pole, real weights); the f2/e2 solves
    are complex and folded back through 2*Re.
    """
    sm, k, reaction = SMOOTHER, plan.k, plan.disc.reaction
    f1, f2, e1, e2 = (plan.solvers[pole].solve for pole in ("f1", "f2", "e1", "e2"))
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


def sbdf1_step(plan: StepPlan, u: np.ndarray, t: float) -> np.ndarray:
    """One sbdf4 startup substep: (I + k0 A) U' = U + k0 F(U, t), k0 = k/2000."""
    k0 = plan.k / SBDF_STARTUP_SUBSTEPS
    return plan.solvers["sbdf1"].solve(u + k0 * plan.disc.reaction(u, t))


def _check_step(k: float) -> None:
    if not (k > 0 and math.isfinite(k)):
        raise ValidationError(f"need a finite k > 0, got {k}")


def check_run(scheme: str, k: float, T: float, smoothing_steps: int = 0) -> int:
    """The one validity check of a run; returns its step count T/k.

    Needs finite k > 0, T a multiple of k with T/k < 2**63, 0 <= smoothing_steps
    <= T/k (any count >= 0 at T = 0) and, for sbdf4, no presmoothing and T/k >= 4.
    """
    scheme_entry(scheme)
    _check_step(k)
    if not abs(T / k) < 2 ** 63:  # rejects a non-finite T too; repeat() counts in int64
        raise ValidationError(f"need a finite T and T/k < 2**63, got T = {T} and k = {k}")
    n = round(T / k)
    if (n < 1 and T != 0) or abs(n * k - T) > 1e-9 * max(1.0, abs(T)):
        raise ValidationError(f"final time {T} is not an integer multiple of k = {k}")
    if smoothing_steps < 0 or (n and smoothing_steps > n):
        raise ValidationError(
            f"smoothing_steps must lie in [0, T/k] = [0, {n}], got {smoothing_steps}")
    if scheme == SBDF4 and n and smoothing_steps:
        raise ValidationError("presmoothing applies to the one-step schemes only")
    if scheme == SBDF4 and 0 < n < 4:
        raise ValidationError(f"need T/k >= 4 for the multistep scheme, got {n}")
    return n


def _march(u: np.ndarray, k: float, steps, snapshot_every=None, snapshot_cb=None) -> np.ndarray:
    """The one step loop of every scheme.

    The i-th of the steps, step(u, t), starts at t = i*k.  Each new state
    must be finite, and a read-only view of every snapshot_every-th goes to
    snapshot_cb(step, t, u).  An interrupt (Ctrl-C) leaves it as a
    KeyboardInterrupt naming the last step done and its t.
    """
    t, done = 0.0, 0
    try:
        # A diverging state overflows long before the finite check sees it;
        # that check reports it once, so numpy's own warnings stay quiet.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for advance in steps:
                u = advance(u, t)
                done += 1
                t = done * k
                if not np.all(np.isfinite(u)):
                    raise DivergenceError(
                        f"non-finite state after step {done} (t = {t:.6g})", step=done, t=t)
                if snapshot_every and snapshot_cb and done % snapshot_every == 0:
                    view = u.view()
                    view.flags.writeable = False
                    snapshot_cb(done, t, view)
    except KeyboardInterrupt as exc:
        raise KeyboardInterrupt(f"interrupted after step {done} (t = {t:.6g})") from exc
    return u


def _sbdf4_run(plan: StepPlan) -> Callable:
    """One sbdf4 run's step(u, t); it keeps the last four states and reaction values.

    The first three steps each cross one interval in SBDF_STARTUP_SUBSTEPS
    sbdf1 substeps; every later step is one BDF4 solve.
    """
    hist_u, hist_f = [], []

    def step(u, t):
        hist_u.append(u)
        hist_f.append(plan.disc.reaction(u, t))
        if len(hist_u) < 4:
            k0 = plan.k / SBDF_STARTUP_SUBSTEPS
            for _ in range(SBDF_STARTUP_SUBSTEPS):
                u = sbdf1_step(plan, u, t)
                t += k0
            return u
        rhs = (48.0 * hist_u[3] - 36.0 * hist_u[2] + 16.0 * hist_u[1] - 3.0 * hist_u[0]
               + plan.k * (48.0 * hist_f[3] - 72.0 * hist_f[2] + 48.0 * hist_f[1]
                           - 12.0 * hist_f[0]))
        del hist_u[0], hist_f[0]
        return plan.solvers["sbdf4"].solve(rhs)
    return step


def integrate(disc: DiscretizedProblem, scheme: str, k: float, T: float,
              smoothing_steps: int = 0,
              snapshot_every: Optional[int] = None,
              snapshot_cb: Optional[Callable] = None) -> np.ndarray:
    """Integrate a problem from its initial condition to time T.

    The first `smoothing_steps` steps use the third-order presmoother at the
    same step size k and count toward T/k; the rest use `scheme`.  Each part
    is one run, begun by its table row's start.  snapshot_cb(step, t, u) gets
    a read-only view of a new array, which it may keep.
    """
    n_steps = check_run(scheme, k, T, smoothing_steps)
    if n_steps == 0:
        return disc.initial()
    plan = build_plan(scheme, disc, k)
    steps = repeat(scheme_entry(scheme)[2](plan), n_steps - smoothing_steps)
    if smoothing_steps:
        smoother = plan if scheme == SMOOTHER_ONLY else build_plan(SMOOTHER_ONLY, disc, k)
        steps = chain(repeat(scheme_entry(SMOOTHER_ONLY)[2](smoother), smoothing_steps), steps)
    return _march(disc.initial(), k, steps, snapshot_every, snapshot_cb)
