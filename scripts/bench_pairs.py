"""Run perfbench on two checkouts in interleaved pairs and write a BENCH file.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \
        --workload split-fine:10 --workload split-coupled:5 --out BENCH_label.json

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, with the
same seed and ``--seconds``; even pairs run the parent first, odd pairs the
change.  Every run's perfbench output is kept as printed: its environment
record and its last-line JSON.  This script measures nothing itself; it only
orders the runs and summarises the medians perfbench reports, per metric and
side, as min, quartiles and median, with the number of pairs each side won.
Directions (lower or higher is better) come from the parent's
``BENCHMARK.json``.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def src_digest(root: Path) -> str:
    """sha256 over the checkout's package sources, so a record names the code it ran."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_perfbench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=str(root), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line)["environment"] for line in lines
                if line.startswith('{"environment"')), None)
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"exit_code": proc.returncode, "environment": env, "result": last,
            "stderr": proc.stderr.strip()[-2000:] or None}


def quartiles(values: list) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"min": values[0], "q1": q1, "median": median, "q3": q3, "max": values[-1],
            "n": len(values)}


def metric(run: dict, name: str):
    """A run's value of one metric, None when the run printed no result."""
    return ((run["result"] or {}).get("metrics", {}).get(name) or {}).get("value")


def summarise(pairs: list, better: dict) -> dict:
    """Per metric: each side's spread over runs, and the pairs each side won."""
    summary = {}
    for name, direction in better.items():
        sides = {side: [v for p in pairs if (v := metric(p[side], name)) is not None]
                 for side in SIDES}
        if not all(sides.values()):
            continue
        wins = {side: 0 for side in SIDES}
        for p in pairs:
            old, new = metric(p["parent"], name), metric(p["change"], name)
            if old is not None and new is not None and new != old:
                improved = new < old if direction == "lower" else new > old
                wins["change" if improved else "parent"] += 1
        summary[name] = {"better": direction, "wins": wins,
                         **{side: quartiles(values) for side, values in sides.items()}}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True, action="append",
                        help="NAME:PAIRS, repeatable")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="per run; default BENCHMARK.json's run_seconds")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else float(bench["run_seconds"])
    record = {"seconds": seconds, "seed": args.seed,
              "src_sha256": {side: src_digest(root) for side, root in roots.items()},
              "workloads": {}}
    for spec in args.workload:
        workload, _, count = spec.partition(":")
        pairs = []
        for index in range(int(count or 1)):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_perfbench(roots[side], workload, args.seed, seconds)
            pairs.append(pair)
            print(f"{workload} pair {index + 1}: " + "  ".join(
                f"{side} steps_per_s={metric(pair[side], 'steps_per_s')}" for side in SIDES),
                flush=True)
        record["workloads"][workload] = {"pairs": pairs, "summary": summarise(pairs, better)}
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
