"""Benchmark for the roughpaths library and CLI.

    python3 perfbench/run.py --workload norm-queries --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

One workload runs in this process, single-threaded: set-up (package import,
seeded inputs, input files), one untimed warm-up round, then timed rounds
with garbage collected between them; each round's outputs are checked
after its timing stops, in a child process that holds the check libraries.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  ``--workload all`` runs every workload in a fresh
process of its own and prints their metrics side by side.

See README.md in this directory for the workloads, metrics and figures.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import multiprocessing
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ["norm-queries", "rough-distances", "rde-solve", "verify-suites"]
SETUP_REPEATS = 3
MIN_ROUNDS = 3

# (metric, unit, aggregate, span name); aggregates are described in README.md
LAYER_METRICS = [
    ("cli.read_path_csv_ms", "ms", "incl", "cli.read_path_csv"),
    ("paths.euclid_distance_matrix_ms", "ms", "incl", "paths.euclid_distance_matrix"),
    ("paths.lift_ms", "ms", "incl", "paths.lift"),
    ("paths.group_distance_matrix_ms", "ms", "incl", "paths.group_distance_matrix"),
    ("tensor_core.group_mul_us", "us", "per_call", "tensor_core.group_mul"),
    ("tensor_core.group_inverse_us", "us", "per_call", "tensor_core.group_inverse"),
    ("norms.single_ms", "ms", "self", "norms.single"),
    ("norms.nested_ms", "ms", "self", "norms.nested"),
    ("distances.level_diff_ms", "ms", "incl", "distances.level_diff"),
    ("distances.rho_ms", "ms", "self", "distances.rho"),
    ("rde.solve_bv_ms", "ms", "incl", "rde.solve_bv"),
    ("rde.solve_rough_ms", "ms", "incl", "rde.solve_rough"),
    ("verify.characterization_s", "s", "incl", "verify.characterization"),
    ("verify.distances_s", "s", "incl", "verify.distances"),
    ("verify.report_write_ms", "ms", "incl", "verify.report_write"),
]
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter, interpreter start excluded."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
            "import roughpaths.cli; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                          check=True)
    return float(proc.stdout)


def _check_loop(conn, wl, inputs):
    while (msg := conn.recv()) is not None:
        r, out = msg
        try:
            errors = wl.check(inputs[r], out)
        except Exception as exc:  # a check that cannot run fails the round
            errors = [f"check raised {exc!r}"]
        conn.send(errors)


class Checker:
    """Checks each round's outputs in a child process forked after set-up.

    The child alone imports what only the checks use (SciPy, through
    ``roughpaths.oracle``), so that memory stays out of the workload
    process and its ``peak_rss_mb``.  The workload process sends a round's
    outputs through a pipe and waits for the verdict before the next round.
    """

    def __init__(self, wl, inputs):
        ctx = multiprocessing.get_context("fork")
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(target=_check_loop, args=(child_conn, wl, inputs))
        self.proc.start()
        child_conn.close()

    def check(self, r, out) -> list[str]:
        self.conn.send((r, out))
        return self.conn.recv()

    def close(self):
        with contextlib.suppress(OSError):
            self.conn.send(None)
        self.proc.join(60)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()


def patch_targets():
    """Public functions and cached properties timed in the traced run."""
    from roughpaths import cli, distances, norms, paths, rde, tensor_core, verify

    functions = [
        (cli, "read_path_csv", "cli.read_path_csv"),
        (paths, "lift", "paths.lift"),
        (tensor_core, "group_mul", "tensor_core.group_mul"),
        (tensor_core, "group_inverse", "tensor_core.group_inverse"),
        (distances, "level_diff_matrix", "distances.level_diff"),
        (rde, "solve_bv", "rde.solve_bv"),
        (rde, "solve_rough", "rde.solve_rough"),
        (verify, "write_report_json", "verify.report_write"),
        (verify, "write_report_csv", "verify.report_write"),
    ]
    functions += [(norms, f, "norms.single") for f in (
        "holder_norm", "qvar_norm", "riesz_norm", "nikolskii_norm", "frac_sobolev_norm")]
    functions += [(norms, f, "norms.nested") for f in ("mixed_norm", "refined_nikolskii_norm")]
    functions += [(distances, f, "distances.rho") for f in (
        "rho_level", "rho_qvar_level", "rho_riesz_level", "rho_mixed_level",
        "rho_nikolskii_hat_level", "rho_aggregate")]
    properties = [
        (paths.EuclideanPath, "distance_matrix", "paths.euclid_distance_matrix"),
        (paths.GroupPath, "distance_matrix", "paths.group_distance_matrix"),
    ]
    return functions, properties


def layer_metrics(spans, rounds, steps, tracing):
    """Per-layer metrics: the median over timed rounds of each aggregate."""
    totals = tracing.round_totals(spans)
    metrics = {}
    for name, unit, agg, span in LAYER_METRICS:
        per_round = []
        for r in rounds:
            t = totals[r]
            if agg == "per_call":
                n = t["count"].get(span, 0)
                per_round.append(t["incl"][span] / n if n else 0.0)
            else:
                per_round.append(t[agg].get(span, 0.0))
        metrics[name] = {"value": statistics.median(per_round) * SCALE[unit], "unit": unit}
    rates = []
    for r in rounds:
        incl = totals[r]["incl"]
        solve = incl.get("rde.solve_bv", 0.0) + incl.get("rde.solve_rough", 0.0)
        rates.append(steps[r] / solve if solve else 0.0)
    metrics["rde.steps_per_s"] = {"value": statistics.median(rates), "unit": "1/s"}
    shares = {r: tracing.layer_shares(totals[r]) for r in rounds}
    return metrics, shares


def run_workload(args) -> int:
    if not (SRC / "roughpaths" / "__init__.py").is_file():
        print(f"error: the roughpaths sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    tiny = args.size == "tiny"
    wl = workloads.WORKLOADS[args.workload](tiny=tiny)
    rounds = 1 if tiny else max(MIN_ROUNDS, round(args.seconds / wl.nominal_round_s))
    work = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    checker = None
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = wl.setup(args.seed, rounds + 1, work)
            setups.append(time.perf_counter() - t0 + import_seconds())
        setup_s = statistics.median(setups)
        checker = Checker(wl, inputs)

        tracer = tracing.Tracer(bool(args.trace))
        targets = patch_targets() if args.trace else ([], [])
        round_s, errors, steps = [], [], {}
        attempted = failed = 0
        for r, inp in enumerate(inputs):  # round 0 is the warm-up
            gc.collect()
            tracer.round = r
            undo = tracing.install_patches(tracer, *targets)
            try:
                t0 = time.perf_counter()
                with tracer.span("round"):
                    out = wl.run_round(inp, tracer)
                dt = time.perf_counter() - t0
            finally:
                tracing.remove_patches(undo)
            if r:
                round_s.append(dt)
                attempted += out.ops
                failed += out.failed
                steps[r] = out.steps
            try:
                errors += [f"round {r}: {e}" for e in checker.check(r, out)]
            except Exception as exc:  # the checker process is gone
                errors.append(f"round {r}: no verdict from the checker: {exc!r}")
            del out
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if args.trace:
            timed = range(1, len(inputs))
            metrics, shares = layer_metrics(tracer.spans, timed, steps, tracing)
            metrics["trace.run_s"] = {"value": sum(round_s), "unit": "s"}
            retained = wl.retained_mb(inputs[0]) if hasattr(wl, "retained_mb") else 0.0
            metrics["distances.retained_mb"] = {"value": retained, "unit": "MB"}
            mean_shares = {layer: statistics.mean(s.get(layer, 0.0) for s in shares.values())
                           for layer in sorted({k for s in shares.values() for k in s})}
            trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed, "round_s": round_s,
                "layer_shares": mean_shares,
                "fields": ["name", "start", "end", "parent", "round"],
                "spans": tracer.spans}))
            print("layer shares of round time: " + ", ".join(
                f"{k} {v:.1%}" for k, v in mean_shares.items()))
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "run_s": {"value": sum(round_s), "unit": "s"},
                "round_p50_ms": {"value": statistics.median(round_s) * 1e3, "unit": "ms"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
    finally:
        if checker is not None:
            checker.close()
        shutil.rmtree(work, ignore_errors=True)

    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(f"{args.workload}: {len(round_s)} timed rounds, {attempted} operations, "
          f"{failed} failed, checks {'passed' if not errors else 'FAILED'}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; their metrics prefixed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0,
                    help="run length; sets the number of timed rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs and one timed round, for the smoke test")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
