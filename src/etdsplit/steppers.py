"""Time-integration kernels.

Schemes:

* ``etdrk4p22if`` -- fourth-order exponential Runge-Kutta step whose matrix
  exponentials are replaced by Pade(2,2) rationals, with dimensional
  splitting so every linear solve is a family of 1-D banded systems.
  Implemented verbatim as the 22-step pole/solve sequence; independent
  solves within a step may run on worker threads with identical results.
* ``etdrk4p22``   -- the same one-step scheme without splitting (8 steps,
  sparse 2-D solves).
* ``smoother-only`` / presmoothing -- a third-order step built from the
  L-damping Pade(0,3) rational, used for a few initial steps to kill
  oscillations from non-smooth initial data.  Always unsplit; its 2-D
  solves run in the eigenbasis of the 1-D operator.
* ``sbdf4``       -- fourth-order semi-implicit BDF baseline with a
  first-order semi-implicit startup run at a 2000x finer substep; its 2-D
  solves also run in the 1-D eigenbasis.

All rational functions are applied through partial fractions: each becomes
"solve a shifted system at a complex pole, combine as U + 2*Re(...)", so a
step is a fixed sequence of factorized solves.  States stay real throughout.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .errors import DivergenceError, ValidationError
from .linsolve import (
    axis_eigenbasis,
    factorize_axis,
    factorize_full,
    solve_axis_system,
    tensor_eigen_solver,
)
from .problems import DiscretizedProblem
from .spatial import AXIS_X, AXIS_Y, assemble_full

ETDRK4P22IF = "etdrk4p22if"
ETDRK4P22 = "etdrk4p22"
SBDF4 = "sbdf4"
SMOOTHER_ONLY = "smoother-only"
SBDF1 = "sbdf1"
SCHEMES = (ETDRK4P22IF, ETDRK4P22, SBDF4, SMOOTHER_ONLY)

SBDF_STARTUP_SUBSTEPS = 2000  # SBDF1 substeps per coarse interval

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
    """Cached factorizations for one (scheme, step size, discretization).

    axis_facts is keyed by (pole name, axis, species) -- the two axis
    entries of a (pole, species) pair share one LU since the 1-D matrix is
    identical; full_facts is keyed by pole name and holds sparse LU factors
    (etdrk4p22) or eigen-solvers sharing one 1-D eigenbasis (the presmoother
    and SBDF schemes), both with a .solve(rhs) method.  Plans are immutable
    and safe to share across threads.
    """

    scheme: str
    k: float
    disc: DiscretizedProblem
    axis_facts: dict = field(default_factory=dict)
    full_facts: dict = field(default_factory=dict)
    k0: Optional[float] = None  # SBDF startup substep


def build_plan(scheme: str, disc: DiscretizedProblem, k: float) -> StepPlan:
    """Factorize every shifted system the scheme's step sequence solves."""
    _check_step(k)
    if scheme not in SCHEMES and scheme != SBDF1:
        raise ValidationError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")

    axis_facts = {}
    full_facts = {}
    k0 = None
    if scheme == ETDRK4P22IF:
        for pname, pole in (("c1", PADE.c1), ("c2", PADE.c2)):
            for s in range(disc.ops.species):
                fact = factorize_axis(disc.ops, k, pole, AXIS_X, s)
                axis_facts[(pname, AXIS_X, s)] = fact
                axis_facts[(pname, AXIS_Y, s)] = fact
    elif scheme == ETDRK4P22:
        full_op = assemble_full(disc.grid, disc.spec.diffusion)
        full_facts["c1"] = factorize_full(full_op, k, PADE.c1)
        full_facts["c2"] = factorize_full(full_op, k, PADE.c2)
    else:
        # (pole name, step, shift) of each system (step*A - shift*I).
        if scheme == SMOOTHER_ONLY:
            systems = [(pname, k, pole) for pname, pole in (
                ("f1", SMOOTHER.f1), ("f2", SMOOTHER.f2),
                ("e1", SMOOTHER.e1), ("e2", SMOOTHER.e2))]
        elif scheme == SBDF4:
            k0 = k / SBDF_STARTUP_SUBSTEPS
            # Main solve (25 I + 12 k A); startup solve (I + k0 A).
            systems = [("sbdf4", 12.0 * k, -25.0), ("sbdf1", k0, -1.0)]
        else:  # SBDF1
            systems = [("sbdf1", k, -1.0)]
        basis = axis_eigenbasis(disc.ops.axis_op)
        for pname, k_sys, shift in systems:
            full_facts[pname] = tensor_eigen_solver(basis, disc.ops.diffusion, k_sys, shift)

    return StepPlan(scheme=scheme, k=k, disc=disc,
                    axis_facts=axis_facts, full_facts=full_facts, k0=k0)


def _sequential(*thunks):
    return [f() for f in thunks]


def _executor_map(executor):
    def run(*thunks):
        futures = [executor.submit(f) for f in thunks]
        return [f.result() for f in futures]
    return run


def _axis_solver(plan: StepPlan, axis: str):
    """Per-field solver: (pole name, complex rhs field) -> complex field."""
    facts = plan.axis_facts
    species = plan.disc.ops.species

    def solve(pole: str, rhs: np.ndarray) -> np.ndarray:
        out = np.empty_like(rhs, dtype=complex)
        for s in range(species):
            out[s] = solve_axis_system(facts[(pole, axis, s)], rhs[s], axis)
        return out

    return solve


def _full_solver(plan: StepPlan):
    facts = plan.full_facts

    def solve(pole: str, rhs: np.ndarray) -> np.ndarray:
        return facts[pole].solve(rhs)

    return solve


def _etdrk4p22if_kernel(u, t, k, reaction, solve_x, solve_y, pade=PADE, pmap=_sequential):
    """One split fourth-order step: the verbatim 22-entry solve/set sequence.

    solve_x/solve_y solve (k*A2 - c*I) and (k*A1 - c*I) systems respectively
    (A2 acts along x, A1 along y).  Independent solves are grouped through
    pmap; results are identical for any execution order.
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
    bn1, bn2 = pmap(lambda: solve_x("c2", 2.0 * c.w11 * u),
                    lambda: solve_x("c2", 24.0 * k * c.w51 * fa))
    bn3 = u + 2.0 * bn1.real
    bn4 = solve_y("c2", 2.0 * c.w11 * bn3)
    bn = bn3 + 2.0 * bn4.real + 2.0 * bn2.real
    fb = reaction(bn, t + 0.5 * k)
    # stage c
    cn1, cn2 = pmap(lambda: solve_x("c2", 2.0 * c.w11 * an + 48.0 * k * c.w51 * fb),
                    lambda: solve_x("c2", 24.0 * k * c.w51 * fn))
    cs1 = an + 2.0 * cn1.real
    cs2 = 2.0 * cn2.real
    cn3, cn4 = pmap(lambda: solve_y("c2", 2.0 * c.w11 * cs1),
                    lambda: solve_y("c1", c.w11 * cs2))
    cn = cs1 + 2.0 * cn3.real - (cs2 + 2.0 * cn4.real)
    fc = reaction(cn, t + k)
    g = fa + fb
    # update
    un1, un2, un3 = pmap(lambda: solve_x("c1", c.w11 * u + k * c.w21 * fn),
                         lambda: solve_x("c1", 4.0 * k * c.w31 * g),
                         lambda: solve_x("c1", k * c.w41 * fc))
    us1 = u + 2.0 * un1.real
    us2 = 2.0 * un2.real
    us3 = 2.0 * un3.real
    un4, un5 = pmap(lambda: solve_y("c1", c.w11 * us1),
                    lambda: solve_y("c2", 2.0 * c.w11 * us2))
    return us1 + us2 + us3 + 2.0 * un4.real + 2.0 * un5.real


def _etdrk4p22_kernel(u, t, k, reaction, solve, pade=PADE):
    """One unsplit fourth-order step: the 8-entry solve/set sequence."""
    c = pade
    fn = reaction(u, t)
    an1 = solve("c2", 2.0 * c.w11 * u + 24.0 * c.w51 * k * fn)
    an = u + 2.0 * an1.real
    fa = reaction(an, t + 0.5 * k)
    bn1 = solve("c2", 2.0 * c.w11 * u + 24.0 * c.w51 * k * fa)
    bn = u + 2.0 * bn1.real
    fb = reaction(bn, t + 0.5 * k)
    cn1 = solve("c2", 2.0 * c.w11 * an + 24.0 * c.w51 * k * (2.0 * fb - fn))
    cn = an + 2.0 * cn1.real
    fc = reaction(cn, t + k)
    g = fa + fb
    un1 = solve("c1", c.w11 * u + c.w21 * k * fn + 4.0 * c.w31 * k * g + c.w41 * k * fc)
    return u + 2.0 * un1.real


def _smoother_kernel(u, t, k, reaction, solve, sm=SMOOTHER, pmap=_sequential):
    """One third-order presmoothing step: the 12-entry solve/set sequence.

    The f1/e1 solves are real (real pole, real weights); the f2/e2 solves
    are complex and folded back through 2*Re.
    """
    fn = reaction(u, t)
    an1, an2 = pmap(lambda: solve("f1", 2.0 * sm.s11 * u + k * sm.s51 * fn),
                    lambda: solve("f2", 2.0 * sm.s12 * u + k * sm.s52 * fn))
    an = an1.real + 2.0 * an2.real
    fa = reaction(an, t + 0.5 * k)
    bn1, bn2 = pmap(lambda: solve("f1", 2.0 * sm.s11 * u + k * sm.s51 * fa),
                    lambda: solve("f2", 2.0 * sm.s12 * u + k * sm.s52 * fa))
    bn = bn1.real + 2.0 * bn2.real
    fb = reaction(bn, t + 0.5 * k)
    gn = 2.0 * fb - fn
    cn1, cn2 = pmap(lambda: solve("f1", 2.0 * sm.s11 * an + k * sm.s51 * gn),
                    lambda: solve("f2", 2.0 * sm.s12 * an + k * sm.s52 * gn))
    cn = cn1.real + 2.0 * cn2.real
    fc = reaction(cn, t + k)
    g = fa + fb
    un1, un2 = pmap(
        lambda: solve("e1", sm.s11 * u + k * sm.s21 * fn + 2.0 * k * sm.s31 * g + k * sm.s41 * fc),
        lambda: solve("e2", sm.s12 * u + k * sm.s22 * fn + 2.0 * k * sm.s32 * g + k * sm.s42 * fc))
    return un1.real + 2.0 * un2.real


def etdrk4p22if_step(plan: StepPlan, u: np.ndarray, t: float, pmap=_sequential) -> np.ndarray:
    """Advance one step of the split scheme using the plan's banded solves."""
    return _etdrk4p22if_kernel(u, t, plan.k, plan.disc.reaction,
                               _axis_solver(plan, AXIS_X), _axis_solver(plan, AXIS_Y),
                               pmap=pmap)


def etdrk4p22_step(plan: StepPlan, u: np.ndarray, t: float) -> np.ndarray:
    """Advance one step of the unsplit scheme using sparse 2-D solves."""
    return _etdrk4p22_kernel(u, t, plan.k, plan.disc.reaction, _full_solver(plan))


def smoother_step(plan: StepPlan, u: np.ndarray, t: float, pmap=_sequential) -> np.ndarray:
    """Advance one third-order presmoothing step (full-operator solves)."""
    return _smoother_kernel(u, t, plan.k, plan.disc.reaction, _full_solver(plan), pmap=pmap)


def sbdf1_step(plan: StepPlan, u: np.ndarray, t: float) -> np.ndarray:
    """One first-order semi-implicit step: (I + k0 A) U' = U + k0 F(U, t)."""
    k0 = plan.k if plan.k0 is None else plan.k0
    fact = plan.full_facts["sbdf1"]
    return fact.solve(u + k0 * plan.disc.reaction(u, t))


def _check_finite(u, step, t):
    if not np.all(np.isfinite(u)):
        raise DivergenceError(
            f"non-finite state after step {step} (t = {t:.6g})", step=step, t=t)


def sbdf4_integrate(plan: StepPlan, u0: np.ndarray, T: float, stats: Optional[dict] = None) -> np.ndarray:
    """Integrate to T with the fourth-order semi-implicit BDF scheme.

    The first three coarse states come from sub-integrating each interval
    with 2000 first-order semi-implicit substeps; thereafter each step is
    one factorized solve.  The history keeps the last four states and their
    reaction evaluations.
    """
    k = plan.k
    if plan.scheme != SBDF4:
        raise ValidationError(f"plan was built for {plan.scheme!r}, not {SBDF4!r}")
    n_steps = _step_count(k, T)
    if n_steps < 4:
        raise ValidationError(f"need T/k >= 4 for the multistep scheme, got {n_steps}")

    reaction = plan.disc.reaction
    main = plan.full_facts["sbdf4"]
    startup = plan.full_facts["sbdf1"]
    k0 = plan.k0

    t_start = time.perf_counter()
    hist_u = [u0]
    hist_f = [reaction(u0, 0.0)]
    t = 0.0
    for interval in range(3):
        u = hist_u[-1]
        for _ in range(SBDF_STARTUP_SUBSTEPS):
            u = startup.solve(u + k0 * reaction(u, t))
            t += k0
        t = (interval + 1) * k  # avoid substep rounding drift
        _check_finite(u, interval + 1, t)
        hist_u.append(u)
        hist_f.append(reaction(u, t))
    startup_seconds = time.perf_counter() - t_start

    t_main = time.perf_counter()
    for step in range(3, n_steps):
        rhs = (48.0 * hist_u[3] - 36.0 * hist_u[2] + 16.0 * hist_u[1] - 3.0 * hist_u[0]
               + k * (48.0 * hist_f[3] - 72.0 * hist_f[2] + 48.0 * hist_f[1] - 12.0 * hist_f[0]))
        u = main.solve(rhs)
        t = (step + 1) * k
        _check_finite(u, step + 1, t)
        hist_u = hist_u[1:] + [u]
        hist_f = hist_f[1:] + [reaction(u, t)]
    if stats is not None:
        stats["startup_seconds"] = startup_seconds
        stats["main_seconds"] = time.perf_counter() - t_main
        stats["steps"] = n_steps
    return hist_u[-1]


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

    Test oracle only: state and reaction are flat vectors, a_dense the full
    dense operator (size-capped).  The stage-combination matrices come from
    phi functions of -kA, so singular operators (zero-flux boundaries) are
    handled without forming inverse powers.
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


def _check_step(k: float) -> None:
    if not (k > 0 and math.isfinite(k)):
        raise ValidationError(f"need a finite k > 0, got {k}")


def _step_count(k: float, T: float) -> int:
    _check_step(k)
    if not math.isfinite(T):
        raise ValidationError(f"need a finite final time, got {T}")
    n = int(round(T / k))
    if n < 1 or abs(n * k - T) > 1e-9 * max(1.0, abs(T)):
        raise ValidationError(f"final time {T} is not an integer multiple of k = {k}")
    return n


def integrate(disc: DiscretizedProblem, scheme: str, k: float, T: float,
              smoothing_steps: int = 0, threads: int = 1,
              snapshot_every: Optional[int] = None,
              snapshot_cb: Optional[Callable] = None) -> np.ndarray:
    """Integrate a problem from its initial condition to time T.

    The first `smoothing_steps` steps use the third-order presmoother at the
    same step size k and count toward T/k; the rest use `scheme`.  With
    threads > 1 the independent solves inside each step run on a worker
    pool; results are bitwise identical to the sequential execution.
    """
    if scheme not in SCHEMES:
        raise ValidationError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    u = disc.initial()
    if T == 0:
        _check_step(k)
        return u
    n_steps = _step_count(k, T)
    if smoothing_steps < 0 or smoothing_steps > n_steps:
        raise ValidationError(
            f"smoothing_steps must lie in [0, T/k] = [0, {n_steps}], got {smoothing_steps}")
    if scheme == SBDF4:
        if smoothing_steps:
            raise ValidationError("presmoothing applies to the one-step schemes only")
        plan = build_plan(SBDF4, disc, k)
        return sbdf4_integrate(plan, u, T)

    plan = build_plan(scheme, disc, k)
    smooth_plan = None
    if smoothing_steps and scheme != SMOOTHER_ONLY:
        smooth_plan = build_plan(SMOOTHER_ONLY, disc, k)

    executor = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    pmap = _executor_map(executor) if executor is not None else _sequential
    try:
        t = 0.0
        for step in range(n_steps):
            if scheme == SMOOTHER_ONLY or step < smoothing_steps:
                cur = smooth_plan if smooth_plan is not None else plan
                u = smoother_step(cur, u, t, pmap=pmap)
            elif scheme == ETDRK4P22IF:
                u = etdrk4p22if_step(plan, u, t, pmap=pmap)
            else:
                u = etdrk4p22_step(plan, u, t)
            t = (step + 1) * k
            _check_finite(u, step + 1, t)
            if snapshot_every and snapshot_cb and (step + 1) % snapshot_every == 0:
                snapshot_cb(step + 1, t, u)
    finally:
        if executor is not None:
            executor.shutdown()
    return u
