"""etdsplit benchmark: one workload, timed for a fixed budget, outputs gated.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is taken from its ``src/``.
Each invocation runs in its own interpreter (``invoke.py``), one at a time,
with one BLAS thread.  Invocations are launched until the next one is
expected to overrun ``--seconds`` (with a floor of ``MIN_REPEATS``); every
metric is the median over the invocations that passed the correctness gate.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs traced and
untraced invocations in pairs, in an order drawn from the seed, and prints
the per-layer metrics.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it give the environment and each invocation.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYERS, SOLVE_LABELS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REPEATS = 3          # untraced invocations per run, at least
MIN_TRACED_PAIRS = 1     # traced + untraced pairs per traced run, at least
RUN_LIMIT_S = 150.0      # no invocation starts after this; exit well before 180 s
BLAS_THREADS = "1"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "max_error": "abs",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {f"{layer}_s": "s" for layer in LAYERS}
PER_LAYER_UNITS.update({
    "linsolve.factor_count": "count",
    "linsolve.fill_nnz": "count",
    "linsolve.solve_calls": "count",
    "linsolve.solve_us_per_call": "us",
    "problems.reaction_calls": "count",
    "steppers.steps": "count",
    "cli.bytes_out": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
})
PER_LAYER_UNITS.update({f"linsolve.solve_calls.{label}": "count" for label in SOLVE_LABELS})


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _invoke(workload: str, traced: bool, workdir: Path, index: int, timeout: float) -> dict:
    """One invocation in a fresh process; a crash or timeout is a failed record."""
    outdir = workdir / f"inv{index}"
    outdir.mkdir()
    record_path = workdir / f"inv{index}.json"
    cmd = [sys.executable, str(HERE / "invoke.py"), "--workload", workload,
           "--outdir", str(outdir), "--record", str(record_path)]
    if traced:
        cmd.append("--traced")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=str(ROOT), timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        failure = None if proc.returncode == 0 else (
            f"invoke.py exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    except subprocess.TimeoutExpired:
        failure = f"invocation exceeded {timeout:.0f} s"
    elapsed = time.perf_counter() - t0
    shutil.rmtree(outdir, ignore_errors=True)
    if failure is None and record_path.is_file():
        record = json.loads(record_path.read_text(encoding="utf-8"))
    else:
        record = {"workload": workload, "traced": traced, "ok": False,
                  "reason": failure or "no record written", "unmeasured": []}
    if record.get("error"):
        record["reason"] = f"{record['reason']}; {record['error'].strip().splitlines()[-1]}"
    record["process_s"] = elapsed
    return record


def _schedule(seed: int, trace: bool):
    """Endless sequence of invocation kinds (True = traced) for this run.

    Untraced runs repeat one kind.  Traced runs alternate in pairs whose
    order the seed draws, so drift on a shared machine falls on traced and
    untraced invocations alike.
    """
    rng = random.Random(seed)
    while True:
        if not trace:
            yield False
            continue
        pair = [True, False]
        rng.shuffle(pair)
        yield from pair


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> list:
    records = []
    start = time.perf_counter()
    for index, traced in enumerate(_schedule(seed, trace)):
        elapsed = time.perf_counter() - start
        done_untraced = sum(1 for r in records if not r["traced"])
        done_traced = len(records) - done_untraced
        floor_met = (done_untraced >= MIN_TRACED_PAIRS and done_traced >= MIN_TRACED_PAIRS
                     if trace else done_untraced >= MIN_REPEATS)
        same_kind = [r["process_s"] for r in records if r["traced"] == traced]
        expected = statistics.median(same_kind) if same_kind else 0.0
        if floor_met and elapsed + expected > seconds or elapsed > RUN_LIMIT_S:
            break
        records.append(_invoke(workload, traced, workdir, index,
                               timeout=max(10.0, RUN_LIMIT_S + 20.0 - elapsed)))
    return records


def _median(records, key):
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(passed: list) -> dict:
    return {name: {"value": _median(passed, name), "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer_metrics(traced: list, untraced: list) -> dict:
    values = {name: _median(traced, name) for name in PER_LAYER_UNITS}
    values["trace.wall_s"] = _median(traced, "wall_s")
    values["trace.overhead_s"] = (_median(traced, "wall_s") - _median(untraced, "wall_s")
                                  if traced and untraced else 0.0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


def _describe(record: dict) -> str:
    status = "ok" if record["ok"] else f"FAILED ({record.get('reason')})"
    kind = "traced" if record["traced"] else "untraced"
    parts = [f"{kind:8s}", status]
    for key in ("wall_s", "setup_s", "steps_per_s", "max_error", "peak_rss_mb"):
        if key in record:
            parts.append(f"{key}={record[key]:.6g}")
    return "  ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "etdsplit" / "__init__.py").is_file():
        print(f"perfbench: no etdsplit package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_tmp" / f"run{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        records = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    passed = [r for r in records if r["ok"]]
    failed = len(records) - len(passed)
    env = next((r["environment"] for r in records if "environment" in r), {})
    env.update({"seed": args.seed, "workload": args.workload, "trace": args.trace,
                "setup": "cold: every invocation runs in a fresh interpreter",
                "invocations": len(records)})
    print(json.dumps({"environment": env}))
    for record in records:
        print(_describe(record))
    unmeasured = sorted({name for r in records for name in r.get("unmeasured", [])})
    if unmeasured:
        print(json.dumps({"unmeasured": unmeasured}))
    if args.trace:
        traced = [r for r in passed if r["traced"]]
        untraced = [r for r in passed if not r["traced"]]
        metrics = per_layer_metrics(traced, untraced)
        extra = {k: v for r in traced for k, v in r.get("other_solve_labels", {}).items()}
        if extra:
            print(json.dumps({"other_solve_labels": extra}))
    else:
        metrics = end_to_end_metrics(passed)
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": bool(records) and failed == 0,
                      "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
