"""Command-line front end.

Subcommands:
    norm    compute one of the seven path norms from a CSV path
    sig     truncated signature of a CSV path, emitted as JSON levels
    dist    inhomogeneous distance between two lifted CSV paths
    solve   integrate dY = V(Y) dX along a CSV driver
    verify  run a verification suite and persist JSON/CSV reports

Path CSV format: header ``t,x1,...,xn``, one row per grid point, UTF-8
(a leading byte order mark is skipped), LF line endings; each field a
finite number; times start at 0 and increase strictly.  Every number the
CLI reads, a CSV field or a numeric option, is ASCII text that ``float()``
(``int()`` for a count) reads, without underscores: ``1_0`` and digits of
other scripts (``١``, ``２``) are rejected, a CSV field naming its line.
``--p inf`` is p = infinity.  Floats in all outputs use the shortest
round-trip representation, so identical inputs give byte-identical reports.

Exit codes: 0 success; 1 verification failure; 2 CSV parse error (message
carries the line number); 3 parameter violation, command-line usage error
(one ``error:`` line) or unknown suite; 4 grid
mismatch; 5 solver blow-up (message carries the exit time); 6 unexpected
internal error (one ``error:`` line naming the exception, no traceback).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
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
from .rde import RdeConfig, Scheme, VectorField, ito_lyons

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
    """Parse a ``t,x1,...,xn`` CSV into a sampled path.

    Every line's field count is checked by counting its commas, then the
    data lines are joined and split once, and one ``np.array(..., dtype=float)``
    call converts all the fields, parsing each as ``float()`` does, and one
    vectorised check finds non-finite fields and times that do not start at
    0 or do not increase.  Only when one of these fails, or the data lines
    are not ASCII or hold an underscore, are the lines read one by one with
    ``_number``, to name the first bad line by its number in the file.  A
    byte that is not UTF-8 names its line too.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise CsvFormatError(0, f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        head = exc.object[:exc.start]  # lines end as in text mode: \n, \r\n or \r
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise CsvFormatError(lineno, f"not UTF-8: {exc.reason}") from exc
    numbered = [(n, ln) for n, ln in enumerate(text.split("\n"), start=1) if ln.strip() != ""]
    if not numbered:
        raise CsvFormatError(0, "empty file")
    head_no, head = numbered[0]
    header = [h.strip() for h in head.split(",")]
    if header[0] != "t" or len(header) < 2:
        raise CsvFormatError(head_no, "header must be t,x1,...,xn")
    for i, name in enumerate(header[1:], start=1):
        if name != f"x{i}":
            raise CsvFormatError(head_no, f"column {i + 1} must be named x{i}, got {name!r}")
    ncols = len(header)
    body = [line for _, line in numbered[1:]]
    fields = ",".join(body)
    table = None
    if fields.isascii() and "_" not in fields and all(line.count(",") == ncols - 1
                                                      for line in body):
        try:
            table = np.array(fields.split(",") if body else [], dtype=float).reshape(-1, ncols)
        except ValueError:
            pass
    if table is None or not (np.isfinite(table).all() and np.all(table[:1, 0] == 0.0)
                             and np.all(np.diff(table[:, 0]) > 0.0)):
        _raise_first_bad_line([n for n, _ in numbered[1:]],
                              [line.split(",") for line in body], ncols)
    try:
        return EuclideanPath(TimeGrid(table[:, 0]), table[:, 1:])
    except ParameterError as exc:
        raise CsvFormatError(0, str(exc)) from exc


def _raise_first_bad_line(linenos, rows, ncols):
    # the error of the first data line with a wrong field count, a field that
    # ``_number`` rejects or that is not finite, or a time that does not
    # start at 0 or does not increase
    prev = None
    for lineno, fields in zip(linenos, rows):
        if len(fields) != ncols:
            raise CsvFormatError(lineno, f"expected {ncols} fields, got {len(fields)}")
        try:
            nums = [_number(f) for f in fields]
        except ValueError as exc:
            raise CsvFormatError(lineno, str(exc)) from exc
        t = nums[0]
        if not all(map(math.isfinite, nums)):
            raise CsvFormatError(lineno, "times and values must be finite")
        if prev is None and t != 0.0:
            raise CsvFormatError(lineno, f"times start at 0, got {t!r}")
        if prev is not None and not t > prev:
            raise CsvFormatError(lineno, f"times must increase strictly, got {t!r} after {prev!r}")
        prev = t


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


def _number(text, kind=float):
    """``kind(text)``, ``kind`` float or int, for ASCII ``text`` without
    underscores: the one number grammar of CSV fields and numeric options.
    Other text raises ``ValueError``."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number without underscores: {text!r}")
    return kind(text)


def _option(read):
    """An argparse ``type``: ``read(text)``, whose ``ValueError`` is a usage error (exit 3)."""
    def parse(text):
        try:
            return read(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


_FLOAT = _option(_number)
_INT = _option(functools.partial(_number, kind=int))
# --interval s:t, whose length the library checks, and --y0, comma separated
_INTERVAL = _option(lambda text: tuple(map(_number, text.split(":"))))
_FLOATS = _option(lambda text: [_number(t) for t in text.split(",")])


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
    spec = NormSpec(kind, delta=args.delta, p=args.p, interval=args.interval)
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
    kind = _DIST_KINDS.get(args.kind.lower())
    if kind is None:
        raise ParameterError(f"unknown distance kind {args.kind!r}; choose from "
                             f"{sorted(_DIST_KINDS)}")
    x1, x2 = lift(f1, args.depth), lift(f2, args.depth)
    levels = {
        k: rho_level(x1, x2, kind, delta=args.delta, p=args.p, k=k, interval=args.interval)
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
            "p": args.p,
            "depth": args.depth,
            "value": value,
            "levels": {str(k): v for k, v in levels.items()},
        }
        _write_text(args.json, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_solve(args) -> int:
    driver = read_path_csv(args.driver)
    try:
        spec = json.loads(Path(args.field).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParameterError(f"cannot read field spec {args.field}: {exc}") from exc
    v = VectorField.from_spec(spec)
    rough = args.depth != 1  # depth 1 drives the BV scheme with the path itself
    cfg = RdeConfig(depth=args.depth, substeps=args.substeps,
                    scheme=Scheme.ROUGH_EULER if rough else Scheme.EULER_BV)
    y = ito_lyons(args.y0, v, lift(driver, args.depth) if rough else driver, cfg)
    if args.out:
        write_path_csv(y, args.out)
    terminal = ",".join(f"{val:.12g}" for val in y.values[-1])
    print(terminal)
    return 0


def cmd_verify(args) -> int:
    from . import verify  # only here: the other subcommands never load the suites

    records, ok = verify.run_suite(args.suite, seed=args.seed, out_dir=args.out)
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
                   help="|".join(_NORM_KINDS) + "; every kind takes O(M^2) time on M "
                        "grid intervals, no size cap")
    p.add_argument("--delta", type=_FLOAT, default=1.0)
    p.add_argument("--p", type=_FLOAT, default=P_INF, help="integrability (number or 'inf'); "
                                                           "for qvar this is the exponent q")
    p.add_argument("--interval", type=_INTERVAL, default=None,
                   help="subinterval s:t (grid points)")
    p.add_argument("--json", default=None, help="also write a JSON result")
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("sig", help="truncated signature of a CSV path")
    p.add_argument("input")
    p.add_argument("--depth", type=_INT, default=2)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=cmd_sig)

    p = sub.add_parser("dist", help="inhomogeneous distance between two paths")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--kind", required=True,
                   help="|".join(_DIST_KINDS) + "; every kind takes O(M^2) time per "
                        "level on M grid intervals, no size cap")
    p.add_argument("--delta", type=_FLOAT, default=0.5)
    p.add_argument("--p", type=_FLOAT, default=None, help="finite integrability, required "
                                                          "(for qvar, the exponent q)")
    p.add_argument("--depth", type=_INT, default=2)
    p.add_argument("--interval", type=_INTERVAL, default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=cmd_dist)

    p = sub.add_parser("solve", help="integrate dY = V(Y) dX along a CSV driver")
    p.add_argument("driver")
    p.add_argument("--field", required=True, help="vector field spec JSON")
    p.add_argument("--y0", type=_FLOATS, required=True,
                   help="initial condition, comma separated")
    p.add_argument("--depth", type=_INT, default=1)
    p.add_argument("--substeps", type=_INT, default=1)
    p.add_argument("--out", default=None, help="solution CSV path")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   help="algebra|embeddings|characterization|distances|lipschitz|all")
    p.add_argument("--seed", type=_INT, default=0)
    p.add_argument("--out", default=None, help="report output directory")
    p.set_defaults(fn=cmd_verify)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser unchanged
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
