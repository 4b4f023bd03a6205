"""Run one workload's CLI invocation in this process and record what it did.

    python3 perfbench/invoke.py --workload NAME --outdir DIR --record FILE [--traced]

``run.py`` starts one such process per invocation, so every invocation pays
the same cold set-up (first plan built in a fresh interpreter) and reports
its own peak resident memory.  The package is imported from ``src/`` of the
checkout this file sits in, never from anywhere else.

Untraced, only ``discretize``, ``build_plan`` and ``integrate`` are timed.
Traced, every layer's calls are recorded as spans (see ``tracing.py``).
The gate runs after the invocation, outside every timed region.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    import etdsplit
    import etdsplit.cli

    where = Path(etdsplit.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"etdsplit imported from {where}, not from {SRC}")
    return etdsplit.cli


def environment() -> dict:
    """Where the numbers were measured: cores, CPU, versions, BLAS."""
    import numpy
    import scipy

    def blas(mod):
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except Exception:  # show_config layout differs across versions
            return "unknown"

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _coarse_metrics(timer) -> dict:
    setup = timer.seconds["problems.discretize"] + timer.seconds["steppers.plan"]
    stepping = timer.seconds["steppers.driver"] - timer.seconds["steppers.plan"]
    steps = timer.steps()
    return {
        "setup_s": setup,
        "steps": steps,
        "steps_per_s": steps / stepping if stepping > 0 else 0.0,
    }


def _traced_metrics(tracer, solve_labels) -> dict:
    self_s = tracer.self_times()
    calls = tracer.call_counts()
    solve_calls = calls["linsolve.solve"]
    out = {f"{layer}_s": seconds for layer, seconds in self_s.items()}
    out.update({
        "linsolve.factor_count": tracer.factor_count,
        "linsolve.fill_nnz": tracer.fill_nnz,
        "linsolve.solve_calls": solve_calls,
        "linsolve.solve_us_per_call": (1e6 * self_s["linsolve.solve"] / solve_calls
                                       if solve_calls else 0.0),
        "problems.reaction_calls": calls["problems.reaction"],
        "steppers.steps": tracer.steps(),
    })
    for label in solve_labels:
        out[f"linsolve.solve_calls.{label}"] = tracer.solve_calls.get(label, 0)
    out["other_solve_labels"] = {k: v for k, v in tracer.solve_calls.items()
                                 if k not in solve_labels}
    return out


def run(workload_name: str, outdir: Path, traced: bool) -> dict:
    cli = _import_package()
    import tracing
    from workloads import WORKLOADS, check_run

    workload = WORKLOADS[workload_name]
    out_path = outdir / "out.csv"
    argv = workload.argv(out_path)
    recorder = tracing.Tracer() if traced else tracing.CoarseTimer()
    stdout = io.StringIO()
    error = None
    with recorder, contextlib.redirect_stdout(stdout):
        t0 = time.perf_counter()
        try:
            if traced:
                code = recorder.span("etdsplit.cli.main", "cli.io", cli.main, argv)
            else:
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
        except Exception:
            code, error = None, traceback.format_exc()
        wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out_text = out_path.read_text(encoding="utf-8") if out_path.is_file() else None
    gate = check_run(workload, code, out_text, recorder.integrate_calls)
    bytes_out = len(stdout.getvalue().encode("utf-8")) + sum(
        p.stat().st_size for p in outdir.iterdir() if p.is_file())
    record = {
        "workload": workload_name,
        "traced": traced,
        "exit_code": code,
        "error": error,
        "ok": gate.ok,
        "reason": gate.reason,
        "max_error": gate.max_error,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "cli.bytes_out": bytes_out,
        "unmeasured": recorder.unmeasured,
        "environment": environment(),
    }
    if traced:
        record.update(_traced_metrics(recorder, tracing.SOLVE_LABELS))
    else:
        record.update(_coarse_metrics(recorder))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--outdir", required=True, type=Path)
    parser.add_argument("--record", required=True, type=Path)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    record = run(args.workload, args.outdir, args.traced)
    args.record.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
