"""Command-line front end.

Subcommands:
    norm    compute one of the seven path norms from a CSV path
    sig     truncated signature of a CSV path, emitted as JSON levels
    dist    inhomogeneous distance between two lifted CSV paths
    solve   integrate dY = V(Y) dX along a CSV driver
    verify  run a verification suite and persist JSON/CSV reports

Path CSV format: header ``t,x1,...,xn``, one row per grid point, UTF-8,
LF line endings, plain decimal floats; times start at 0 and increase
strictly.  Floats in all outputs use the shortest round-trip
representation, so identical inputs give byte-identical reports.

Exit codes: 0 success; 1 verification failure; 2 CSV parse error (message
carries the line number); 3 parameter violation, command-line usage error
(one ``error:`` line) or unknown suite; 4 grid
mismatch; 5 solver blow-up (message carries the exit time); 6 unexpected
internal error (one ``error:`` line naming the exception, no traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .distances import DistKind, rho_level
from .exceptions import (
    BlowUpError,
    CsvFormatError,
    GridMismatchError,
    ParameterError,
    RoughPathsError,
)
from .norms import P_INF, NormKind, NormSpec, compute_norm
from .paths import EuclideanPath, TimeGrid, lift, signature
from .rde import RdeConfig, Scheme, VectorField, solve_bv, solve_rough
from . import verify as verify_mod

SCHEMA_VERSION = 1

EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_PARAMETER = 3
EXIT_GRID = 4
EXIT_BLOWUP = 5
EXIT_INTERNAL = 6


# ---------------------------------------------------------------------------
# path CSV I/O
# ---------------------------------------------------------------------------

def read_path_csv(path) -> EuclideanPath:
    """Parse a ``t,x1,...,xn`` CSV into a sampled path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CsvFormatError(0, f"cannot read {path}: {exc}") from exc
    lines = [ln for ln in text.split("\n") if ln.strip() != ""]
    if not lines:
        raise CsvFormatError(0, "empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if header[0] != "t" or len(header) < 2:
        raise CsvFormatError(1, "header must be t,x1,...,xn")
    for i, name in enumerate(header[1:], start=1):
        if name != f"x{i}":
            raise CsvFormatError(1, f"column {i + 1} must be named x{i}, got {name!r}")
    ncols = len(header)
    times, rows = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != ncols:
            raise CsvFormatError(lineno, f"expected {ncols} fields, got {len(fields)}")
        try:
            nums = [float(f) for f in fields]
        except ValueError as exc:
            raise CsvFormatError(lineno, str(exc)) from exc
        times.append(nums[0])
        rows.append(nums[1:])
    try:
        return EuclideanPath(TimeGrid(np.array(times)), np.array(rows))
    except ParameterError as exc:
        raise CsvFormatError(0, str(exc)) from exc


def write_path_csv(path_obj: EuclideanPath, path) -> None:
    lines = ["t," + ",".join(f"x{i}" for i in range(1, path_obj.dim + 1))]
    for t, row in zip(path_obj.grid.times, path_obj.values):
        lines.append(",".join(repr(float(v)) for v in [t, *row]))
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path, text) -> None:
    """Write one output file; an unwritable path is a parameter error (exit 3)."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------

_NORM_KINDS = {k.value: k for k in NormKind}
_DIST_KINDS = {k.value: k for k in DistKind}


def _parse_float(text, option):
    try:
        return float(text)
    except ValueError as exc:
        raise ParameterError(f"{option} must be a number, got {text!r}") from exc


def _parse_p(text):
    if text is None:
        return None
    if text.strip().lower() in ("inf", "infinity"):
        return P_INF
    return _parse_float(text, "--p")


def _parse_interval(text):
    if text is None:
        return None
    try:
        s, t = text.split(":")
        return float(s), float(t)
    except ValueError as exc:
        raise ParameterError(f"--interval must look like s:t, got {text!r}") from exc


def _print_value(value: float):
    print(f"{value:.12g}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_norm(args) -> int:
    f = read_path_csv(args.input)
    kind = _NORM_KINDS.get(args.kind.lower())
    if kind is None:
        raise ParameterError(f"unknown norm kind {args.kind!r}; choose from "
                             f"{sorted(_NORM_KINDS)}")
    p = _parse_p(args.p)
    spec = NormSpec(kind, delta=args.delta, p=P_INF if p is None else p,
                    interval=_parse_interval(args.interval))
    value = compute_norm(f, spec)
    _print_value(value)
    if args.json:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "kind": kind.value,
            "delta": spec.delta,
            "p": "inf" if spec.p is P_INF else spec.p,
            "interval": list(spec.interval) if spec.interval else [0.0, f.grid.horizon],
            "value": value,
            "grid_points": len(f.grid),
        }
        _write_text(args.json, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_sig(args) -> int:
    f = read_path_csv(args.input)
    x = lift(f, args.depth)
    g = signature(x)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "dim": g.dim,
        "depth": g.depth,
        "levels": [g.level(k).tolist() for k in range(g.depth + 1)],
    }
    text = json.dumps(payload, indent=2)
    print(text)
    if args.json:
        _write_text(args.json, text + "\n")
    return 0


def cmd_dist(args) -> int:
    f1 = read_path_csv(args.file1)
    f2 = read_path_csv(args.file2)
    if not np.array_equal(f1.grid.times, f2.grid.times):
        raise GridMismatchError("the two paths must share one common grid")
    kind = _DIST_KINDS.get(args.kind.lower())
    if kind is None:
        raise ParameterError(f"unknown distance kind {args.kind!r}; choose from "
                             f"{sorted(_DIST_KINDS)}")
    x1, x2 = lift(f1, args.depth), lift(f2, args.depth)
    p = _parse_p(args.p)
    levels = {
        k: rho_level(x1, x2, kind, delta=args.delta, p=p, k=k,
                     interval=_parse_interval(args.interval))
        for k in range(1, args.depth + 1)
    }
    value = max(levels.values())
    _print_value(value)
    for k, v in levels.items():
        print(f"level {k}: {v:.12g}")
    if args.json:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "kind": kind.value,
            "delta": args.delta,
            "p": "inf" if p is P_INF else p,
            "depth": args.depth,
            "value": value,
            "levels": {str(k): v for k, v in levels.items()},
        }
        _write_text(args.json, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_solve(args) -> int:
    driver = read_path_csv(args.driver)
    try:
        spec = json.loads(Path(args.field).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"cannot read field spec {args.field}: {exc}") from exc
    v = VectorField.from_spec(spec)
    y0 = np.array([_parse_float(t, "--y0") for t in args.y0.split(",")])
    if args.depth == 1:
        cfg = RdeConfig(depth=1, substeps=args.substeps, scheme=Scheme.EULER_BV)
        y = solve_bv(y0, v, driver, cfg)
    else:
        cfg = RdeConfig(depth=args.depth, substeps=args.substeps, scheme=Scheme.ROUGH_EULER)
        y = solve_rough(y0, v, lift(driver, args.depth), cfg)
    if args.out:
        write_path_csv(y, args.out)
    terminal = ",".join(f"{val:.12g}" for val in y.values[-1])
    print(terminal)
    return 0


def cmd_verify(args) -> int:
    records, ok = verify_mod.run_suite(args.suite, seed=args.seed, out_dir=args.out)
    for r in records:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.check_id} ({r.category}) lhs={r.lhs:.6g} "
              f"rhs={r.rhs:.6g} constant={r.constant}")
    if ok:
        print(f"{len(records)} checks: suite ok")
        return 0
    bad_hard = [r.check_id for r in records if r.category == "hard" and not r.passed]
    bad_neg = [r.check_id for r in records
               if r.category == "negative_control" and r.passed]
    if bad_hard:
        print("hard-assert failures: " + ", ".join(bad_hard), file=sys.stderr)
    if bad_neg:
        print("negative controls unexpectedly passed: " + ", ".join(bad_neg),
              file=sys.stderr)
    return EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise ``ParameterError`` (exit code 3)."""

    def error(self, message):
        raise ParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="roughpaths",
                 description="rough-path norms, distances, differential equations and checks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="compute a path norm from a CSV path")
    p.add_argument("input")
    p.add_argument("--kind", required=True,
                   help="hoelder|qvar|rieszv|mixedv|nikolskii|refinednikolskii|fracsobolev; "
                        "every kind takes O(M^2) time on M grid intervals, no size cap")
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--p", default=None, help="integrability (number or 'inf'); "
                                             "for qvar this is the exponent q")
    p.add_argument("--interval", default=None, help="subinterval s:t (grid points)")
    p.add_argument("--json", default=None, help="also write a JSON result")
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("sig", help="truncated signature of a CSV path")
    p.add_argument("input")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=cmd_sig)

    p = sub.add_parser("dist", help="inhomogeneous distance between two paths")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--kind", required=True,
                   help="qvar|riesz|mixed|nikolskiihat; every kind takes O(M^2) time per "
                        "level on M grid intervals, no size cap")
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--p", default=None, help="finite integrability, required "
                                             "(for qvar, the exponent q)")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--interval", default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=cmd_dist)

    p = sub.add_parser("solve", help="integrate dY = V(Y) dX along a CSV driver")
    p.add_argument("driver")
    p.add_argument("--field", required=True, help="vector field spec JSON")
    p.add_argument("--y0", required=True, help="initial condition, comma separated")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--substeps", type=int, default=1)
    p.add_argument("--out", default=None, help="solution CSV path")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   help="algebra|embeddings|characterization|distances|lipschitz|all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="report output directory")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except CsvFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (GridMismatchError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GRID
    except BlowUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except RoughPathsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except Exception as exc:  # a defect, not a user error: never exit 1 or trace back
        message = " ".join(str(exc).split())
        print(f"error: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
