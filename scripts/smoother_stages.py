"""Time the presmoothing step and the sbdf4 run in two checkouts and write a BENCH file.

    python3 scripts/smoother_stages.py --parent DIR --change DIR --out BENCH_label.json

For each case in CASES, one fresh process per checkout (the package from
that checkout's ``src/``, one BLAS thread; the order of the two alternates
from case to case) builds the ``smoother-only`` plan, takes WARM steps, then
times REPEATS loops of STEPS ``smoother_step`` calls, each loop from the
initial field.  Milliseconds per step are summarised per side as min,
quartiles and median, and the record gives the largest difference between
the two sides' fields after STEPS steps, relative to the field's max.

For each case in SBDF_CASES, again one fresh process per checkout, an
``sbdf4`` run begun through ``scheme_entry(SBDF4)[2](plan)`` times its first
step (one startup interval of 2000 substeps), takes the other two startup
steps untimed and times MAIN_STEPS main steps; one such run warms up and
REPEATS more are timed.  The record keeps milliseconds per startup step and
per main step, summarised as above, and the field change after the last
run.  Then each checkout's ``sbdf4`` runs of DRIFT_CASES are compared with
the long-double reference of the --change checkout's ``tests/helpers.py``
(``sbdf4_long_double_reference``): the largest difference relative to the
reference's max.

Last, each checkout runs its own ``test_criterion_4_presmoothing``
CRITERION_RUNS times, the sides alternating, and the record keeps the
test's seconds from pytest's JUnit report.  The environment (cores, CPU,
BLAS) is perfbench's.
"""

import argparse
import json
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import numpy as np

from bench_pairs import SIDES, child_env, quartiles

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from invoke import environment  # noqa: E402

# (problem, m, k): the presmoother's own problem, two species, and the table-1 finest grid.
CASES = (("enzyme_nonsmooth", 79, 0.05), ("brusselator", 79, 0.0125),
         ("model_dirichlet", 319, 0.0125))
WARM, STEPS, REPEATS = 2, 10, 5
CRITERION_RUNS = 5

# (problem, m, k) of the sbdf4 timings: the sbdf4-startup workload's grid, two species.
SBDF_CASES = (("model_dirichlet", 79, 0.05), ("brusselator", 79, 0.0125))
MAIN_STEPS = 10
# (problem, m, k, T) of the drift table; the dense long-double reference caps m.
DRIFT_CASES = (("brusselator", 7, 0.0125, 0.5), ("model_dirichlet", 7, 0.05, 1.0),
               ("enzyme", 7, 0.05, 1.0), ("model_neumann", 8, 0.05, 1.0))
CRITERION = "tests/test_acceptance.py::test_criterion_4_presmoothing"

CHILD = """
import json, sys, time
import numpy as np
from etdsplit.problems import discretize, make_problem
from etdsplit.steppers import SMOOTHER_ONLY, build_plan, smoother_step
problem, m, k, out = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
warm, steps, repeats = (int(a) for a in sys.argv[5:8])
disc = discretize(make_problem(problem), m)
plan = build_plan(SMOOTHER_ONLY, disc, k)
u = disc.initial()
for i in range(warm):
    u = smoother_step(plan, u, i * k)
ms = []
for _ in range(repeats):
    u = disc.initial()
    start = time.perf_counter()
    for i in range(steps):
        u = smoother_step(plan, u, i * k)
    ms.append(1e3 * (time.perf_counter() - start) / steps)
np.save(out, u)
print(json.dumps(ms))
"""


SBDF_CHILD = """
import json, sys, time
import numpy as np
from etdsplit.problems import discretize, make_problem
from etdsplit.steppers import SBDF4, build_plan, scheme_entry
problem, m, k, out = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
main_steps, repeats = int(sys.argv[5]), int(sys.argv[6])
disc = discretize(make_problem(problem), m)
plan = build_plan(SBDF4, disc, k)
startup, main = [], []
for run in range(repeats + 1):  # run 0 warms up
    step, u = scheme_entry(SBDF4)[2](plan), disc.initial()
    start = time.perf_counter()
    u = step(u, 0.0)
    first = time.perf_counter() - start
    u = step(step(u, k), 2 * k)
    start = time.perf_counter()
    for i in range(3, 3 + main_steps):
        u = step(u, i * k)
    if run:
        startup.append(1e3 * first)
        main.append(1e3 * (time.perf_counter() - start) / main_steps)
np.save(out, u)
print(json.dumps({"startup_ms": startup, "main_ms": main}))
"""

DRIFT_CHILD = """
import json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from helpers import sbdf4_long_double_reference
from etdsplit.problems import discretize, make_problem
from etdsplit.steppers import SBDF4, integrate
drift = {}
for problem, m, k, T in json.loads(sys.argv[2]):
    disc = discretize(make_problem(problem), m)
    want = sbdf4_long_double_reference(disc, k, T)
    got = integrate(disc, SBDF4, k, T)
    drift[f"{problem} m={m} k={k} T={T}"] = float(np.max(np.abs(got - want))
                                                  / np.max(np.abs(want)))
print(json.dumps(drift))
"""


def time_sbdf(root: Path, case: tuple, field_path: str) -> dict:
    args = [*map(str, case), field_path, str(MAIN_STEPS), str(REPEATS)]
    proc = subprocess.run([sys.executable, "-c", SBDF_CHILD, *args], env=child_env(root),
                          capture_output=True, text=True, check=True)
    ms = json.loads(proc.stdout)
    return {name: {"runs": runs, "summary": quartiles(runs)} for name, runs in ms.items()}


def drift(root: Path, helpers_dir: Path) -> dict:
    proc = subprocess.run([sys.executable, "-c", DRIFT_CHILD, str(helpers_dir),
                           json.dumps(DRIFT_CASES)], env=child_env(root),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def paired_cases(cases: tuple, timer, roots: dict, tmp: str) -> dict:
    """{case name: timer's record per side and the fields' change}, the order alternating.

    timer(root, case, field_path) saves the side's last field to field_path.
    """
    rows = {}
    for index, case in enumerate(cases):
        row, fields = {}, {}
        for side in SIDES if index % 2 == 0 else SIDES[::-1]:
            fields[side] = str(Path(tmp) / f"{side}.npy")
            row[side] = timer(roots[side], case, fields[side])
        old, new = (np.load(fields[side]) for side in SIDES)
        row["field_change_rel"] = float(np.max(np.abs(new - old)) / np.max(np.abs(old)))
        rows[f"{case[0]} m={case[1]} k={case[2]}"] = row
    return rows


def time_steps(root: Path, case: tuple, field_path: str) -> dict:
    args = [*map(str, case), field_path, str(WARM), str(STEPS), str(REPEATS)]
    proc = subprocess.run([sys.executable, "-c", CHILD, *args], env=child_env(root),
                          capture_output=True, text=True, check=True)
    ms = json.loads(proc.stdout)
    return {"ms_per_step": ms, "summary": quartiles(ms)}


def time_criterion(root: Path) -> float:
    """Seconds of one pytest run of the checkout's criterion-4 test, from its JUnit report."""
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "junit.xml"
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        f"--junitxml={report}", CRITERION], cwd=str(root), env=child_env(root),
                       capture_output=True, text=True, check=True)
        case = ElementTree.parse(report).getroot().find(".//testcase")
        return float(case.get("time"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {"environment": {**environment(), "OPENBLAS_NUM_THREADS": "1"},
              "warm_steps": WARM, "steps": STEPS, "repeats": REPEATS}
    with tempfile.TemporaryDirectory() as tmp:
        record["cases"] = paired_cases(CASES, time_steps, roots, tmp)
        for name, row in record["cases"].items():
            print(f"{name}: " + "  ".join(
                f"{side} min={row[side]['summary']['min']:.3f} "
                f"median={row[side]['summary']['median']:.3f} ms" for side in SIDES)
                + f"  field change {row['field_change_rel']:.2g}", flush=True)
        record["main_steps"] = MAIN_STEPS
        record["sbdf4_cases"] = paired_cases(SBDF_CASES, time_sbdf, roots, tmp)
        for name, row in record["sbdf4_cases"].items():
            print(f"sbdf4 {name}: " + "  ".join(
                f"{side} startup median={row[side]['startup_ms']['summary']['median']:.1f} "
                f"main median={row[side]['main_ms']['summary']['median']:.3f} ms"
                for side in SIDES) + f"  field change {row['field_change_rel']:.2g}", flush=True)
    record["sbdf4_drift"] = {side: drift(roots[side], roots["change"] / "tests")
                             for side in SIDES}
    print("sbdf4 drift: " + json.dumps(record["sbdf4_drift"]), flush=True)
    seconds = {side: [] for side in SIDES}
    for index in range(CRITERION_RUNS):
        for side in SIDES if index % 2 == 0 else SIDES[::-1]:
            seconds[side].append(time_criterion(roots[side]))
    record["criterion_4_seconds"] = {side: {"runs": seconds[side],
                                            "summary": quartiles(seconds[side])}
                                     for side in SIDES}
    print("criterion 4: " + "  ".join(
        f"{side} median={quartiles(seconds[side])['median']:.2f} s" for side in SIDES))
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
