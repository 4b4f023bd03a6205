"""Time-integration kernels.

Schemes:

* ``etdrk4p22if`` -- fourth-order exponential Runge-Kutta step whose matrix
  exponentials are replaced by Pade(2,2) rationals, with dimensional
  splitting so every linear solve is a family of 1-D systems along one
  axis.  The step is four stage equations in the basis of its plan's
  linsolve.AxisSolver, with N the reaction at grid values:

      a  = Hy(Hx u + Px N(u))
      b  = Hy Hx u + Px N(a)
      c  = Hy(Hx a + 2 Px N(b)) - Ry Px N(u)
      u' = Ry(Rx u + Qx(k w21) N(u)) + Hy Qx(4k w31) (N(a) + N(b)) + Qx(k w41) N(c)

  H = I + 2Re(2 w11 (kA - c2)^-1), R = I + 2Re(w11 (kA - c1)^-1),
  P = 2Re(24 k w51 (kA - c2)^-1) and Q(w) = 2Re(w (kA - c1)^-1) along the
  subscript's axis are each one real axis map of linsolve, all species at
  once.  A run's first split step makes five forward and four inverse 2-D
  transforms; every later one starts from the transform the previous step
  kept and makes four of each.  Up to linsolve.GRID_SPACE_MAX_P unknowns
  per axis the transforms are the identity and each map is one dense
  matrix, so the step runs in grid space.  Above it the transforms are
  grid space's even/odd butterfly, O(p^2), and each map is two half-size
  blocks.  The step's maps and field buffers (SplitWork) are made once per
  run, for that run and its plan only: the maps from one dense inverse per
  pole, species and folded half of B.
* ``etdrk4p22``   -- the same one-step scheme without splitting (8 steps,
  sparse 2-D solves).
* ``smoother-only`` / presmoothing -- a third-order L-damping Pade(0,3)
  step, used for a few initial steps to damp the oscillations of non-smooth
  data.  Unsplit: four stage equations in the 1-D operator's real eigenbasis
  V, x^ = V^-1 x V^-T (linsolve.AxisEigenbasis.forward):

      a^ = H u^ + P N(u)^,   b^ = H u^ + P N(a)^,   c^ = H a^ + P (2 N(b) - N(u))^
      u'^ = R u^ + Q2 N(u)^ + Q3 (N(a) + N(b))^ + Q4 N(c)^

  V is real, so 2Re(w (kA - pole)^-1) is the real symbol 2Re(w sig), with sig the
  pole's inverse eigenvalue grid.  (w1, w2) means w1 sig(f1) + 2Re(w2 sig(f2)) for
  H = (2 s11, 2 s12) and P = (k s51, k s52), and the same over e1, e2 for R =
  (s11, s12), Q2 = (k s21, k s22), Q3 = (2k s31, 2k s32), Q4 = (k s41, k s42).
  A step makes five forward and four inverse transforms and no solve.
* ``sbdf4``       -- fourth-order semi-implicit BDF baseline with a
  first-order semi-implicit startup (sbdf1_step) run at a 2000x finer
  substep.  A run keeps its state and history in B's eigenbasis too.

All rational functions are applied through partial fractions, as U plus
2*Re(w (kA - c)^-1) terms at complex poles c: axis maps (split), sparse
solves (etdrk4p22) or symbols in B's eigenbasis.  States stay real throughout.
One table, scheme_entry, maps each of the four scheme names to its solver
family, its shifted systems and start(plan), which begins one run and
returns its step(u, t); the step holds what the run carries between steps,
the split step's SplitWork or sbdf4's history.  A plan holds one solver per
pole in StepPlan.solvers.  check_run alone decides whether a run is valid
and gives its step count.  integrate is the one function that runs a
scheme: every scheme steps through its one loop, _march.

Every kernel runs on one thread; the only parallelism is whatever BLAS
uses inside its matrix products, the split step's grid-space maps included.
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
    axis_solver,
    factorize_full,
    fold_halves,
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
    the row's family: an axis solver covering both axes and every species
    (split scheme; it holds no array, carries the step's basis as .forward
    and .inverse and applies through the axis maps a run builds), a sparse
    LU factorization (etdrk4p22; .solve(rhs)) or an eigen-solver sharing one
    1-D eigenbasis (presmoother and SBDF schemes; .basis and .inv_symbol).
    Plans are immutable.
    """

    k: float
    disc: DiscretizedProblem
    solvers: dict


def scheme_entry(scheme: str, k: float = 1.0) -> tuple:
    """Look a scheme up in the scheme table; the one unknown-scheme check.

    Returns (family, systems, start).  family is the solver of every system:
    "axis" (split, 1-D axis maps), "sparse" (SuperLU) or "eigen" (1-D
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
        ETDRK4P22IF: ("axis", etd,
                      lambda plan: partial(etdrk4p22if_step, plan, work=SplitWork(plan))),
        ETDRK4P22: ("sparse", etd, lambda plan: partial(etdrk4p22_step, plan)),
        SMOOTHER_ONLY: ("eigen", {"f1": (k, sm.f1), "f2": (k, sm.f2),
                                  "e1": (k, sm.e1), "e2": (k, sm.e2)},
                        lambda plan: partial(smoother_step, plan)),
        # Main step's (25 I + 12 k A); startup substep's (I + k/2000 A).
        SBDF4: ("eigen", {"sbdf4": (12.0 * k, -25.0),
                          "sbdf1": (k / SBDF_STARTUP_SUBSTEPS, -1.0)}, _sbdf4_run),
    }[scheme]


def build_plan(scheme: str, disc: DiscretizedProblem, k: float) -> StepPlan:
    """Factorize every shifted system the scheme's step sequence solves."""
    _check_step(k)
    family, systems, _ = scheme_entry(scheme, k)
    grid, diffusion = disc.grid, disc.spec.diffusion
    if family == "axis":
        solver = partial(axis_solver, grid.p1d, diffusion)
    elif family == "sparse":
        solver = partial(factorize_full, assemble_full(grid, diffusion))
    else:
        solver = partial(tensor_eigen_solver, axis_eigenbasis(axis_matrix(grid)), diffusion)
    solvers = {pname: solver(k_sys, shift) for pname, (k_sys, shift) in systems.items()}
    return StepPlan(k=k, disc=disc, solvers=solvers)


class SplitWork:
    """What one run of the split step keeps between steps.

    maps holds the ten axis maps the step derives from plan's two solvers
    and the folded halves of B, and fields five (species, p, p) buffers and
    the maps' scratch; a step on another plan rejects it.  state is the
    array the last step returned and state_hat its transform, kept in
    fields; a step from state starts at state_hat.  Each split run makes
    its own, so no two runs share.
    """

    def __init__(self, plan: StepPlan):
        s1, s2, k = plan.solvers["c1"], plan.solvers["c2"], plan.k
        halves = fold_halves(axis_matrix(plan.disc.grid))
        w11, w51 = PADE.w11, 24.0 * k * PADE.w51
        self.maps = (
            *s2.axis_maps(halves, (AXIS_X, 2.0 * w11, 1.0), (AXIS_Y, 2.0 * w11, 1.0),
                          (AXIS_X, w51, 0.0), (AXIS_X, 2.0 * w51, 0.0)),
            *s1.axis_maps(halves, (AXIS_X, w11, 1.0), (AXIS_Y, w11, 1.0), (AXIS_Y, -w11, -1.0),
                          (AXIS_X, k * PADE.w21, 0.0), (AXIS_X, 4.0 * k * PADE.w31, 0.0),
                          (AXIS_X, k * PADE.w41, 0.0)))
        p = plan.disc.grid.p1d
        self.fields = [np.empty((plan.disc.spec.species, p, p)) for _ in range(6)]
        self.plan, self.state, self.state_hat = plan, None, None


def etdrk4p22if_step(plan: StepPlan, u: np.ndarray, t: float,
                     work: Optional[SplitWork] = None) -> np.ndarray:
    """Advance one step of the split scheme in its basis's space.

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
    k, reaction = plan.k, plan.disc.reaction
    fwd, inv = plan.solvers["c1"].forward, plan.solvers["c1"].inverse
    if work is None:
        work = SplitWork(plan)
    elif work.plan is not plan:
        raise ValidationError("a SplitWork serves only the plan it was made for")
    f0, f1, f2, f3, f4, scratch = work.fields
    hx, hy, px, px2, rx, ry, minus_ry, qx21, qx31, qx41 = (
        partial(m, scratch=scratch) for m in work.maps)

    def reaction_hat(field_hat, at):
        """The transformed reaction at the grid values of field_hat, in its buffer."""
        return fwd(reaction(inv(field_hat, field_hat), at), field_hat)

    u_hat = work.state_hat if u is work.state else fwd(u, f0)
    work.state = None  # f0 changes next: a step that fails leaves nothing to carry
    fn = fwd(reaction(u, t), f1)
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
    work.state_hat, work.state = out, inv(out)
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
    """Advance one presmoothing step: the module docstring's stage equations in B's eigenbasis."""
    sm, k, reaction = SMOOTHER, plan.k, plan.disc.reaction
    f1, f2, e1, e2 = (plan.solvers[pole].inv_symbol for pole in ("f1", "f2", "e1", "e2"))
    fwd, inv = plan.solvers["f1"].basis.forward, plan.solvers["f1"].basis.inverse
    h, p, r, q2, q3, q4 = (w1 * sig1 + 2.0 * (w2 * sig2).real for sig1, sig2, w1, w2 in (
        (f1, f2, 2.0 * sm.s11, 2.0 * sm.s12), (f1, f2, k * sm.s51, k * sm.s52),
        (e1, e2, sm.s11, sm.s12), (e1, e2, k * sm.s21, k * sm.s22),
        (e1, e2, 2.0 * k * sm.s31, 2.0 * k * sm.s32), (e1, e2, k * sm.s41, k * sm.s42)))
    u_hat, fn = fwd(u), fwd(reaction(u, t))
    a = h * u_hat + p * fn
    fa = fwd(reaction(inv(a), t + 0.5 * k))
    fb = fwd(reaction(inv(h * u_hat + p * fa), t + 0.5 * k))
    fc = fwd(reaction(inv(h * a + p * (2.0 * fb - fn)), t + k))
    return inv(r * u_hat + q2 * fn + q3 * (fa + fb) + q4 * fc)


def sbdf1_step(plan: StepPlan, u: np.ndarray, t: float, u_hat: np.ndarray) -> tuple:
    """One sbdf4 startup substep, (I + k0 A) U' = U + k0 F(U, t) with k0 = k/2000.

    u'^ = sig1 (u^ + k0 N(u)^) in B's eigenbasis, sig1 the sbdf1 pole's inv_symbol and
    u_hat u's transform.  Returns U', its transform and N(U, t)'s.
    """
    solver, basis = plan.solvers["sbdf1"], plan.solvers["sbdf1"].basis
    fn = basis.forward(plan.disc.reaction(u, t))
    u_hat = solver.inv_symbol * (u_hat + plan.k / SBDF_STARTUP_SUBSTEPS * fn)
    return basis.inverse(u_hat), u_hat, fn


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
    """One sbdf4 run's step(u, t), its last four states and reaction values kept transformed.

    The first three steps each cross one interval in SBDF_STARTUP_SUBSTEPS
    sbdf1 substeps, the first of which gives the interval's N(u)^; every
    later step is u'^ = sig4 (48 u^_3 - 36 u^_2 + 16 u^_1 - 3 u^_0 + k (48 N^_3
    - 72 N^_2 + 48 N^_1 - 12 N^_0)), sig4 the sbdf4 pole's inv_symbol.  A step
    from the array the last step returned, kept[0], starts from its transform kept[1].
    """
    sbdf4, hist_u, hist_f, kept = plan.solvers["sbdf4"], [], [], [None, None]

    def step(u, t):
        u_hat = kept[1] if u is kept[0] else sbdf4.basis.forward(u)
        hist_u.append(u_hat)
        if len(hist_u) < 4:
            for i in range(SBDF_STARTUP_SUBSTEPS):
                u, u_hat, fn = sbdf1_step(plan, u, t, u_hat)
                if i == 0:
                    hist_f.append(fn)
                t += plan.k / SBDF_STARTUP_SUBSTEPS
        else:
            hist_f.append(sbdf4.basis.forward(plan.disc.reaction(u, t)))
            u_hat = sbdf4.inv_symbol * (
                48.0 * hist_u[3] - 36.0 * hist_u[2] + 16.0 * hist_u[1] - 3.0 * hist_u[0]
                + plan.k * (48.0 * hist_f[3] - 72.0 * hist_f[2] + 48.0 * hist_f[1]
                            - 12.0 * hist_f[0]))
            del hist_u[0], hist_f[0]
            u = sbdf4.basis.inverse(u_hat)
        kept[:] = u, u_hat
        return u
    return step


def integrate(disc: DiscretizedProblem, scheme: str, k: float, T: float,
              smoothing_steps: int = 0,
              snapshot_every: Optional[int] = None,
              snapshot_cb: Optional[Callable] = None) -> np.ndarray:
    """Integrate a problem from its initial condition to time T.

    The first `smoothing_steps` steps use the third-order presmoother at the
    same step size k and count toward T/k; the rest use `scheme`.  Each part
    that takes a step is one run, begun by its table row's start; a part
    that takes none builds no plan.  snapshot_cb(step, t, u) gets
    a read-only view of a new array, which it may keep.
    """
    n_steps = check_run(scheme, k, T, smoothing_steps)
    if n_steps == 0:  # any smoothing_steps is accepted at T = 0
        return disc.initial()
    plans, runs = {}, []
    for name, count in ((SMOOTHER_ONLY, smoothing_steps), (scheme, n_steps - smoothing_steps)):
        if count:  # a part that takes no step builds no plan
            if name not in plans:
                plans[name] = build_plan(name, disc, k)
            runs.append(repeat(scheme_entry(name)[2](plans[name]), count))
    return _march(disc.initial(), k, chain(*runs), snapshot_every, snapshot_cb)
