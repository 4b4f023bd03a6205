"""Time the eigen family's basis build in two checkouts and add it to a BENCH file.

    python3 scripts/eigen_basis_sweep.py --parent DIR --change DIR --out BENCH_label.json

For each boundary kind and each m in M_VALUES, one fresh process per checkout
(the package from that checkout's ``src/``, one BLAS thread; the order of the
two alternates from grid to grid) builds B with ``spatial.axis_matrix``, times
its first ``linsolve.axis_eigenbasis(B)`` call, then REPEATS more.  The
milliseconds of those warm builds are summarised per side as min, quartiles
and median, beside the first call's, and written under ``basis_build`` into
``--out``: a record ``bench_pairs.py`` wrote is kept and extended.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from bench_pairs import SIDES, child_env, quartiles

M_VALUES = (39, 79, 159, 319)
BOUNDARIES = ("dirichlet", "neumann")
REPEATS = 20  # warm builds per grid and side; single timings here vary by more than 10x

CHILD = """
import json, sys, time
from etdsplit.linsolve import axis_eigenbasis
from etdsplit.spatial import Grid2D, axis_matrix
bc, m, repeats = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
b = axis_matrix(Grid2D(a=0.0, b=1.0, m=m, bc=bc))
ms = []
for _ in range(repeats + 1):
    start = time.perf_counter()
    axis_eigenbasis(b)
    ms.append(1e3 * (time.perf_counter() - start))
print(json.dumps(ms))
"""


def time_builds(root: Path, bc: str, m: int) -> dict:
    proc = subprocess.run([sys.executable, "-c", CHILD, bc, str(m), str(REPEATS)],
                          env=child_env(root), capture_output=True, text=True, check=True)
    first, *warm = json.loads(proc.stdout)
    return {"first_ms": first, "ms": warm, "warm_ms": quartiles(warm)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    sweep = {}
    for index, (bc, m) in enumerate((bc, m) for bc in BOUNDARIES for m in M_VALUES):
        row = {}
        for side in SIDES if index % 2 == 0 else SIDES[::-1]:
            row[side] = time_builds(roots[side], bc, m)
        sweep[f"{bc} m={m}"] = {side: row[side] for side in SIDES}
        print(f"{bc} m={m}: " + "  ".join(
            f"{side} median={row[side]['warm_ms']['median']:.3f} ms" for side in SIDES),
            flush=True)
    record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    record["basis_build"] = {"repeats": REPEATS, "blas_threads": 1, "grids": sweep}
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
