"""Run one workload several times and show how steady its metrics are.

    python3 perfbench/steadiness.py --workload rde-solve --runs 10 --first-seed 1

Each run is a fresh ``run.py`` process with its own seed (first-seed,
first-seed + 1, ...) and the run length from BENCHMARK.json.  For every
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
beside the metric's bound, and writes the values to
``.perfbench/steadiness-<workload>-<first-seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exited {proc.returncode} without a result", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        res["seed"] = seed
        runs.append(res)
        print(f"seed {seed}: " + ", ".join(
            f"{k} {v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)

    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{args.workload}: {args.runs} runs, all correct: "
          f"{all(r['correct'] for r in runs)}, failed shares: {sorted(shares)}")
    summary = {}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                              "bound": m["bound"], "values": values}
        print(f"  {m['name']:<14} median {med:10.5g} {m['unit']:<3} q1 {q1:10.5g}  "
              f"q3 {q3:10.5g}  spread {spread:7.2%}  bound {m['bound']:.0%}  "
              f"spread/bound {spread / m['bound']:.2f}")
    out = ROOT / ".perfbench" / f"steadiness-{args.workload}-{args.first_seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seconds": spec["run_seconds"],
                               "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
