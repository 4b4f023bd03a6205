"""Time the presmoothing step in two checkouts and write a BENCH file.

    python3 scripts/smoother_stages.py --parent DIR --change DIR --out BENCH_label.json

For each case in CASES, one fresh process per checkout (the package from
that checkout's ``src/``, one BLAS thread; the order of the two alternates
from case to case) builds the ``smoother-only`` plan, takes WARM steps, then
times REPEATS loops of STEPS ``smoother_step`` calls, each loop from the
initial field.  Milliseconds per step are summarised per side as min,
quartiles and median, and the record gives the largest difference between
the two sides' fields after STEPS steps, relative to the field's max.  Then
each checkout runs its own ``test_criterion_4_presmoothing`` CRITERION_RUNS
times, the sides alternating, and the record keeps the test's seconds from
pytest's JUnit report.  The environment (cores, CPU, BLAS) is perfbench's.
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
              "warm_steps": WARM, "steps": STEPS, "repeats": REPEATS, "cases": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for index, case in enumerate(CASES):
            row, fields = {}, {}
            for side in SIDES if index % 2 == 0 else SIDES[::-1]:
                fields[side] = str(Path(tmp) / f"{side}.npy")
                row[side] = time_steps(roots[side], case, fields[side])
            old, new = (np.load(fields[side]) for side in SIDES)
            row["field_change_rel"] = float(np.max(np.abs(new - old)) / np.max(np.abs(old)))
            name = f"{case[0]} m={case[1]} k={case[2]}"
            record["cases"][name] = row
            print(f"{name}: " + "  ".join(
                f"{side} min={row[side]['summary']['min']:.3f} "
                f"median={row[side]['summary']['median']:.3f} ms" for side in SIDES)
                + f"  field change {row['field_change_rel']:.2g}", flush=True)
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
