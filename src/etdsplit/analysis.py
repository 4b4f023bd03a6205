"""Error norms, observed convergence orders, and refinement-study drivers.

A study runs a scheme over a cascade of halved step sizes and reports, per
level, the realized mesh, the max-norm error, the observed order
p = log2(E(k)/E(k/2)), and the wall-clock seconds (plan construction
included -- factorization is part of a method's real cost).

Two error modes:

* ``exact``: compare against the problem's exact solution at the final time.
* ``self``: no exact solution; the run at k/2 on the same spatial grid is
  the reference, so E(k) = ||U(k) - U(k/2)||_inf.  Time grids nest and the
  spatial grid is identical, so no interpolation is ever involved.

Two mesh couplings:

* ``k_eq_h``: the spatial grid refines with the time step -- the base grid
  has m+1 = round((b-a)/h0) intervals and doubles each level.
* ``fixed_h``: one spatial grid for every level (required for self mode).
"""

import csv
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DivergenceError, ShapeError, ValidationError
from .problems import ProblemSpec, discretize, interior_count_for_h
from .steppers import check_run, integrate

MODE_EXACT = "exact"
MODE_SELF = "self"
COUPLING_K_EQ_H = "k_eq_h"
COUPLING_FIXED_H = "fixed_h"

CSV_COLUMNS = ("scheme", "problem", "k", "h", "m", "error", "order", "seconds")


def linf_error(u: np.ndarray, v: np.ndarray) -> float:
    """Max-norm difference over all species and unknown nodes."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ShapeError(f"shape mismatch {u.shape} vs {v.shape}")
    return float(np.max(np.abs(u - v)))


def observed_order(e_coarse: float, e_fine: float) -> Optional[float]:
    """log2 error ratio; None when either error is not positive."""
    if not (e_coarse > 0 and e_fine > 0):
        return None
    return float(np.log2(e_coarse / e_fine))


def time_run(thunk):
    """Run thunk, returning (result, wall seconds)."""
    t0 = time.perf_counter()
    out = thunk()
    return out, time.perf_counter() - t0


@dataclass(frozen=True)
class StudyRow:
    k: float
    h: float
    m: int
    error: Optional[float]
    order: Optional[float]
    seconds: float


@dataclass(frozen=True)
class ConvergenceReport:
    scheme: str
    problem: str
    mode: str
    coupling: str
    T: float
    smoothing_steps: int
    rows: tuple = field(default_factory=tuple)

    def errors(self):
        return [r.error for r in self.rows]

    def orders(self):
        return [r.order for r in self.rows if r.order is not None]

    def write_csv(self, fileobj) -> None:
        writer = csv.writer(fileobj, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in self.rows:
            writer.writerow([
                self.scheme, self.problem,
                _fmt(r.k), _fmt(r.h), r.m,
                _fmt(r.error), _fmt(r.order), _fmt(r.seconds),
            ])

    def format_table(self) -> str:
        head = (f"{'k':>12} {'h':>12} {'m':>6} {'error':>14} "
                f"{'order':>7} {'seconds':>10}")
        lines = [
            f"scheme={self.scheme} problem={self.problem} mode={self.mode} "
            f"coupling={self.coupling} T={self.T:g} smoothing={self.smoothing_steps}",
            head,
        ]
        for r in self.rows:
            err = f"{r.error:.4e}" if r.error is not None else "--"
            order = f"{r.order:.2f}" if r.order is not None else "--"
            lines.append(f"{r.k:>12.6g} {r.h:>12.6g} {r.m:>6d} {err:>14} "
                         f"{order:>7} {r.seconds:>10.3f}")
        return "\n".join(lines)


def _fmt(x) -> str:
    return "" if x is None else f"{x:.17g}"


def _grid_schedule(spec: ProblemSpec, coupling: str, levels: int, k0: float,
                   h_target: Optional[float], m: Optional[int],
                   m_schedule: Optional[list]) -> list:
    if m_schedule is not None:
        if len(m_schedule) != levels:
            raise ValidationError("m_schedule length must equal levels")
        return list(m_schedule)
    if coupling == COUPLING_K_EQ_H:
        base = (interior_count_for_h(spec, h_target) + 1) if h_target else \
            (interior_count_for_h(spec, k0) + 1)
        return [base * (2 ** j) - 1 for j in range(levels)]
    if coupling == COUPLING_FIXED_H:
        if m is None:
            if h_target is None:
                raise ValidationError("fixed_h coupling needs m or a target h")
            m = interior_count_for_h(spec, h_target)
        return [m] * levels
    raise ValidationError(f"unknown coupling {coupling!r}")


def run_study(spec: ProblemSpec, scheme: str, k0: float, levels: int,
              mode: str, coupling: str, T: float, smoothing_steps: int = 0,
              h_target: Optional[float] = None, m: Optional[int] = None,
              m_schedule: Optional[list] = None) -> ConvergenceReport:
    """Run a refinement cascade k0, k0/2, ... and assemble the report.

    In self mode one extra integration at the next-finer step provides the
    final reference, so `levels` error rows cost levels+1 runs.
    """
    if levels < 1:
        raise ValidationError(f"need at least one level, got {levels}")
    if mode not in (MODE_EXACT, MODE_SELF):
        raise ValidationError(f"unknown mode {mode!r}")
    if mode == MODE_EXACT and spec.exact is None:
        raise ValidationError(f"problem {spec.name!r} has no exact solution; use self mode")
    if mode == MODE_SELF and coupling != COUPLING_FIXED_H:
        raise ValidationError("self-reference mode requires the fixed_h coupling")
    ks = [k0 / (2 ** j) for j in range(levels)]
    run_ks = ks + [ks[-1] / 2] if mode == MODE_SELF else ks
    for k in run_ks:
        check_run(scheme, k, T, smoothing_steps)

    # checks every level's m before any grid is discretized
    ms = _grid_schedule(spec, coupling, levels, k0, h_target, m, m_schedule)
    solutions = []
    seconds = []
    discs = []
    run_ms = ms + [ms[-1]] if mode == MODE_SELF else ms
    for level, (k, mi) in enumerate(zip(run_ks, run_ms)):
        disc = discretize(spec, mi)
        try:
            u, secs = time_run(lambda: integrate(
                disc, scheme, k, T, smoothing_steps=smoothing_steps))
        except DivergenceError as exc:
            err = DivergenceError(f"level {level} (k = {k:g}): {exc}",
                                  step=exc.step, t=exc.t)
            err.level = level
            raise err from exc
        solutions.append(u)
        seconds.append(secs)
        discs.append(disc)

    errors = []
    for j in range(levels):
        if mode == MODE_EXACT:
            errors.append(linf_error(solutions[j], discs[j].exact(T)))
        else:
            errors.append(linf_error(solutions[j], solutions[j + 1]))

    rows = []
    for j in range(levels):
        order = observed_order(errors[j - 1], errors[j]) if j > 0 else None
        rows.append(StudyRow(k=ks[j], h=discs[j].grid.h, m=ms[j],
                             error=errors[j], order=order, seconds=seconds[j]))
    return ConvergenceReport(scheme=scheme, problem=spec.name, mode=mode,
                             coupling=coupling, T=T, smoothing_steps=smoothing_steps,
                             rows=tuple(rows))
