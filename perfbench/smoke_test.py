"""Smoke test of the benchmark itself: every workload at tiny size, checks on.

    python3 perfbench/smoke_test.py

Runs all four workloads with tiny inputs and one timed round, untraced and
traced, and fails unless every check passes, no operation fails and every
metric named in BENCHMARK.json is reported.  It also runs the benchmark
from a copy that lacks the package sources, where it must exit non-zero
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        for w in spec["workloads"]:
            proc = _run(ROOT, "--workload", w["name"], "--seed", "7", "--seconds", "1",
                        "--trace", trace, "--size", "tiny")
            label = f"{w['name']} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{label}: correct={res['correct']} failed={res['failed']} "
                                f"attempted={res['attempted']}\n{proc.stderr}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics {got} != {want}")
            print(f"{label}: ok", flush=True)

    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(bare, "--workload", "rde-solve", "--seed", "1", "--seconds", "1")
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without sources: exit {proc.returncode}, output {proc.stdout!r}")
    else:
        print("without sources: exits non-zero, no result")

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
