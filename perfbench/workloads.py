"""The benchmark's workloads and the correctness gate each run must pass.

Every workload is one ``etdsplit`` CLI invocation on a grid from a published
table, so the gate can compare its error against the published value.  The
inputs are fixed: the runs are direct solves with fixed step counts, so their
cost does not depend on field values and a seed has nothing to vary in them.
Why each workload was chosen is recorded in README.md and BENCHMARK.json.
"""

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Relative deviation from the reference error a run may show; the tightest
# error-column tolerance the acceptance suite applies (criterion 1).
ERROR_TOLERANCE = 0.10

# Criterion 4's slack on the [0, 1] bound of the enzyme field.
RANGE_SLACK = 1e-6

FIELD = "field"   # `solve`: final field CSV, error against the exact solution
STUDY = "study"   # `converge`: study CSV, self-reference error


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple                 # CLI arguments; the gate adds --out
    kind: str                   # FIELD or STUDY
    reference: float            # max-norm error the run must reproduce
    field_range: Optional[tuple] = None   # bounds every computed field obeys

    def argv(self, out_path) -> list:
        return list(self.args) + ["--out", str(out_path)]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="split-fine",
        args=("solve", "--problem", "model_dirichlet", "--scheme", "etdrk4p22if",
              "--m", "319", "--k", "0.0125", "--T", "1"),
        kind=FIELD, reference=4.456e-11),  # table 1, finest row
    Workload(
        name="split-coupled",
        args=("converge", "--problem", "brusselator", "--scheme", "etdrk4p22if",
              "--k0", "0.0125", "--levels", "1", "--mode", "self",
              "--coupling", "fixed_h", "--m", "79", "--T", "2"),
        kind=STUDY, reference=1.0814e-6),  # table 5, third row
    Workload(
        name="unsplit-setup",
        args=("converge", "--problem", "enzyme_nonsmooth", "--scheme", "etdrk4p22",
              "--k0", "0.05", "--levels", "1", "--mode", "self",
              "--coupling", "fixed_h", "--m", "119", "--T", "1",
              "--smoothing-steps", "3"),
        # No published value: the reference is this commit's own result.
        kind=STUDY, reference=1.4609e-10, field_range=(0.0, 1.0)),
    Workload(
        name="sbdf4-startup",
        args=("solve", "--problem", "model_dirichlet", "--scheme", "sbdf4",
              "--m", "79", "--k", "0.05", "--T", "1"),
        kind=FIELD, reference=1.2419e-5),  # table A1, second row
)}


@dataclass(frozen=True)
class GateResult:
    ok: bool
    max_error: float
    reason: str = ""


def model_exact(x, y, t):
    """Exact solution of the Dirichlet model problem, exp(-3t) cos x cos y."""
    return np.exp(-3.0 * t) * np.cos(x) * np.cos(y)


def _is_17_digits(cell: str) -> bool:
    """True when the cell is the 17-significant-digit form of its value."""
    try:
        return f"{float(cell):.17g}" == cell
    except ValueError:
        return False


def _within_reference(max_error, reference, tol):
    if not abs(max_error - reference) <= tol * reference:
        return (f"max_error {max_error:.4e} deviates from reference {reference:.4e} "
                f"by more than {tol:.0%}")
    return ""


def check_field_csv(text: str, T: float, final_field, reference: float,
                    tol: float = ERROR_TOLERANCE) -> GateResult:
    """Gate a `solve` run on the Dirichlet model problem.

    The CSV must hold 17-digit values that parse back to exactly the field
    integrate returned (when it was captured), and its max-norm error
    against the exact solution must match the reference.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2 or rows[0] != ["x", "y", "u"]:
        return GateResult(False, math.nan, "field CSV lacks the x,y,u header or rows")
    body = rows[1:]
    if any(len(r) != 3 or not all(_is_17_digits(c) for c in r) for r in body):
        return GateResult(False, math.nan, "field CSV has a value not in 17-digit form")
    values = np.array(body, dtype=float)
    if final_field is not None:
        flat = np.asarray(final_field).ravel()
        if flat.shape != values[:, 2].shape or not np.array_equal(flat, values[:, 2]):
            return GateResult(False, math.nan,
                              "field CSV does not parse back to the computed field")
    max_error = float(np.max(np.abs(values[:, 2] - model_exact(values[:, 0], values[:, 1], T))))
    reason = _within_reference(max_error, reference, tol)
    return GateResult(not reason, max_error, reason)


def check_study_csv(text: str, fields: list, reference: float,
                    field_range: Optional[tuple] = None,
                    tol: float = ERROR_TOLERANCE) -> GateResult:
    """Gate a one-level self-reference `converge` run.

    The error cell must be in 17-digit form and, when the two fields the
    study computed were captured, equal exactly their max-norm difference.
    With field_range, every captured field must lie inside it.
    """
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 1:
        return GateResult(False, math.nan, f"study CSV has {len(rows)} rows, expected 1")
    row = rows[0]
    numeric = [row.get(c) or "" for c in ("k", "h", "error", "seconds")]
    if not all(_is_17_digits(c) for c in numeric):
        return GateResult(False, math.nan, "study CSV has a value not in 17-digit form")
    max_error = float(row["error"])
    if len(fields) == 2:
        diff = float(np.max(np.abs(np.asarray(fields[0]) - np.asarray(fields[1]))))
        if diff != max_error:
            return GateResult(False, max_error,
                              f"reported error {max_error!r} differs from the fields' {diff!r}")
    if field_range is not None:
        lo, hi = field_range
        for f in fields:
            if np.min(f) < lo - RANGE_SLACK or np.max(f) > hi + RANGE_SLACK:
                return GateResult(False, max_error,
                                  f"field leaves [{lo}, {hi}]: [{np.min(f):.3e}, {np.max(f):.3e}]")
    reason = _within_reference(max_error, reference, tol)
    return GateResult(not reason, max_error, reason)


def check_run(workload: Workload, exit_code, out_text: Optional[str],
              integrate_calls: list) -> GateResult:
    """The whole gate for one invocation: exit 0, output present and correct."""
    if exit_code != 0:
        return GateResult(False, math.nan, f"exit code {exit_code}")
    if out_text is None:
        return GateResult(False, math.nan, "no output file")
    fields = [c.field for c in integrate_calls]
    if workload.kind == FIELD:
        T = float(workload.args[workload.args.index("--T") + 1])
        return check_field_csv(out_text, T, fields[-1] if fields else None,
                               workload.reference)
    return check_study_csv(out_text, fields, workload.reference, workload.field_range)
