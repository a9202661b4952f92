"""The four benchmark workloads: seeded inputs, one round of queries, checks.

A workload's ``setup`` writes the input files of every round (warm-up
included) from the seed; ``run_round`` runs each query of the workload once
on one round's inputs and is the only timed code; ``check`` compares that
round's outputs against references computed apart from it.  Checks run in
a separate process, so what only they use (``roughpaths.oracle``, SciPy) is
imported inside them and never in the process that is measured.

Calls into ``roughpaths`` go through module attributes (``paths.lift``,
not a name imported from it), so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import sys
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from roughpaths import cli, distances, norms, paths, rde, tensor_core

import references as ref
from tracing import Tracer


@dataclass
class RoundOutput:
    ops: int = 0
    failed: int = 0
    results: dict = field(default_factory=dict)
    steps: int = 0


def _walk(rng, intervals, dim):
    steps = rng.standard_normal((intervals, dim)) * np.sqrt(1.0 / intervals)
    return np.vstack([np.zeros((1, dim)), np.cumsum(steps, axis=0)])


def _write_csv(path: Path, times, values) -> None:
    lines = ["t," + ",".join(f"x{i}" for i in range(1, values.shape[1] + 1))]
    for t, row in zip(times, values):
        lines.append(",".join(repr(float(v)) for v in (t, *row)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sub_interval(rng, intervals, points):
    lo = int(rng.integers(0, intervals - points + 2))
    return lo, lo + points - 1


def _attempt(out: RoundOutput, key, fn, *args, **kwargs):
    """Run one operation; an exception counts it failed and is reported."""
    out.ops += 1
    try:
        out.results[key] = fn(*args, **kwargs)
    except Exception:  # one failed operation must not end the run
        out.failed += 1
        print(f"operation {key!r} failed:\n{traceback.format_exc()}", file=sys.stderr)


def _cli_value(argv):
    """Run ``roughpaths.cli.main`` in process; return the first printed number."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"roughpaths {' '.join(argv)} exited {code}")
    return float(buf.getvalue().split()[0])


# ---------------------------------------------------------------------------
# norm-queries
# ---------------------------------------------------------------------------

# (kind, delta, p); qvar reads its exponent q from --p
SINGLE_KINDS = [("hoelder", 0.5, None), ("qvar", None, 2.5), ("rieszv", 0.5, 4.0),
                ("nikolskii", 0.4, 4.0), ("fracsobolev", 0.4, 3.0)]
# rieszv also runs on the small paths: mixedv equals it exactly on any grid
NESTED_KINDS = [("mixedv", 0.5, 4.0), ("refinednikolskii", 0.4, 4.0), ("rieszv", 0.5, 4.0)]
CHECK_POINTS = 10


def _norm_argv(csv, kind, delta, p, interval=None):
    argv = ["norm", str(csv), "--kind", kind]
    if delta is not None:
        argv += ["--delta", repr(delta)]
    if p is not None:
        argv += ["--p", repr(p)]
    if interval is not None:
        argv += ["--interval", interval]
    return argv


class NormQueries:
    """Seven norm kinds through the CLI on seeded 1-D and 2-D walks."""

    name = "norm-queries"
    nominal_round_s = 1.2

    def __init__(self, tiny=False):
        # (dim, grid intervals): single-value kinds on large grids, the
        # O(M^3) nested kinds on small ones
        self.big = [(1, 64), (2, 48)] if tiny else [(1, 1536), (2, 1024)]
        self.small = [(1, 24), (2, 24)] if tiny else [(1, 256), (2, 256)]

    def setup(self, seed, rounds, work: Path):
        inputs = []
        for r in range(rounds):
            rng = np.random.default_rng([seed, r])
            files = []
            for group, sizes in (("big", self.big), ("small", self.small)):
                for dim, m in sizes:
                    times = np.linspace(0.0, 1.0, m + 1)
                    values = _walk(rng, m, dim)
                    csv = work / f"r{r}-{group}-{dim}d.csv"
                    _write_csv(csv, times, values)
                    files.append({"group": group, "csv": csv, "times": times,
                                  "values": values,
                                  "interval": _sub_interval(rng, m, CHECK_POINTS)})
            inputs.append({"round": r, "files": files})
        return inputs

    def run_round(self, inp, tracer):
        out = RoundOutput()
        for f in inp["files"]:
            kinds = SINGLE_KINDS if f["group"] == "big" else NESTED_KINDS
            for kind, delta, p in kinds:
                with tracer.span("cli.main"):
                    _attempt(out, (str(f["csv"]), kind), _cli_value,
                             _norm_argv(f["csv"], kind, delta, p))
        return out

    def check(self, inp, out):
        errors = []
        for key, value in out.results.items():
            if not np.isfinite(value) or value <= 0.0:
                errors.append(f"{key}: value {value!r} is not finite and positive")
        for f in inp["files"]:
            if f["group"] == "small":
                mixed = out.results.get((str(f["csv"]), "mixedv"))
                riesz = out.results.get((str(f["csv"]), "rieszv"))
                if (mixed is not None and riesz is not None
                        and ref.rel_err(mixed, riesz) > 1e-9):
                    errors.append(f"{f['csv'].name}: mixedv {mixed!r} != rieszv {riesz!r}")
        # the sub-interval checks re-run the CLI, which rebuilds the full
        # distance matrix; each round checks one dimension, alternating
        dim = inp["files"][inp["round"] % 2]["values"].shape[1]
        for f in inp["files"]:
            if f["values"].shape[1] == dim:
                errors += self._check_file(f)
        return errors

    @staticmethod
    def _check_file(f):
        from roughpaths import oracle

        errors = []
        times, values = f["times"], f["values"]
        lo, hi = f["interval"]
        span = (float(times[lo]), float(times[hi]))
        interval = f"{span[0]!r}:{span[1]!r}"
        path = paths.EuclideanPath(paths.TimeGrid(times), values)
        kinds = SINGLE_KINDS if f["group"] == "big" else NESTED_KINDS[:2]
        vals = values.tolist()
        for kind, delta, p in kinds:
            got = _cli_value(_norm_argv(f["csv"], kind, delta, p, interval))
            if kind == "hoelder":
                want = ref.holder_ref(times, vals, delta, lo, hi)
            elif kind == "qvar":
                want = oracle.oracle_qvar(path, p, span)
            elif kind == "rieszv":
                want = oracle.oracle_riesz(path, delta, p, span)
            elif kind == "nikolskii":
                want = oracle.oracle_nikolskii(path, delta, p, span)
            elif kind == "fracsobolev":
                want = ref.frac_sobolev_ref(times, vals, delta, p, lo, hi)
            elif kind == "mixedv":
                want = oracle.oracle_mixed(path, delta, p, span)
            else:
                want = oracle.oracle_refined_nikolskii(path, delta, p, span)
            if ref.rel_err(got, want) > 1e-9:
                errors.append(f"{f['csv'].name} {kind} on [{lo},{hi}]: {got!r} vs "
                              f"reference {want!r}")
        return errors


# ---------------------------------------------------------------------------
# rough-distances
# ---------------------------------------------------------------------------

DIST_Q = 2.5
DIST_DELTA, DIST_P = 0.45, 4.0
GROUP_CHECK_POINTS = 6


class RoughDistances:
    """Lifted pairs: level distances at every level and the group q-variation."""

    name = "rough-distances"
    nominal_round_s = 1.6

    def __init__(self, tiny=False):
        # (dim, grid intervals, depth) of each pair
        self.pairs = [(2, 24, 3), (3, 20, 2)] if tiny else [(2, 512, 3), (3, 384, 2)]

    def setup(self, seed, rounds, work: Path):
        inputs = []
        for r in range(rounds):
            rng = np.random.default_rng([seed, r])
            pairs = []
            for idx, (dim, m, depth) in enumerate(self.pairs):
                times = np.linspace(0.0, 1.0, m + 1)
                v1 = _walk(rng, m, dim)
                v2 = v1 + 0.1 * _walk(rng, m, dim)
                csv1, csv2 = work / f"r{r}-p{idx}-a.csv", work / f"r{r}-p{idx}-b.csv"
                _write_csv(csv1, times, v1)
                _write_csv(csv2, times, v2)
                pairs.append({"csv": (csv1, csv2), "depth": depth, "times": times,
                              "values": (v1, v2),
                              "interval": _sub_interval(rng, m, CHECK_POINTS)})
            inputs.append({"round": r, "pairs": pairs})
        return inputs

    def run_round(self, inp, tracer):
        out = RoundOutput()
        for idx, pair in enumerate(inp["pairs"]):
            _attempt(out, (idx, "paths"), self._pair_paths, pair)
            if (idx, "paths") not in out.results:
                continue
            x1, x2 = out.results[(idx, "paths")]
            for kind, params in ((distances.DistKind.QVAR, {"p": DIST_Q}),
                                 (distances.DistKind.RIESZ,
                                  {"delta": DIST_DELTA, "p": DIST_P})):
                for k in range(1, pair["depth"] + 1):
                    _attempt(out, (idx, kind.value, k), distances.rho_level,
                             x1, x2, kind, k=k, **params)
            _attempt(out, (idx, "group_qvar"), norms.qvar_norm, x1, DIST_Q)
        return out

    def retained_mb(self, inp) -> float:
        """MB still allocated after a round's paths are dropped and collected."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            self.run_round(inp, Tracer(False))
            gc.collect()
            return (tracemalloc.get_traced_memory()[0] - before) / 2**20
        finally:
            tracemalloc.stop()

    @staticmethod
    def _pair_paths(pair):
        f1, f2 = (cli.read_path_csv(c) for c in pair["csv"])
        x1, x2 = paths.lift(f1, pair["depth"]), paths.lift(f2, pair["depth"])
        distances.level_diff_matrix(x1, x2, 1)  # builds every level at once
        return x1, x2

    def check(self, inp, out):
        errors = []
        for idx, pair in enumerate(inp["pairs"]):
            if (idx, "paths") in out.results:
                errors += self._check_pair(idx, pair, out.results)
        return errors

    @staticmethod
    def _check_pair(idx, pair, results):
        from roughpaths import oracle

        errors = []
        x1, x2 = results[(idx, "paths")]
        times, (v1, v2) = pair["times"], pair["values"]
        grid = paths.TimeGrid(times)
        diff = paths.EuclideanPath(grid, v1 - v2)
        level1 = {"qvar": norms.qvar_norm(diff, DIST_Q),
                  "riesz": norms.riesz_norm(diff, DIST_DELTA, DIST_P)}
        for kind, want in level1.items():
            got = results.get((idx, kind, 1))
            if got is not None and ref.rel_err(got, want) > 1e-9:
                errors.append(f"pair {idx} level-1 {kind}: {got!r} vs norm of "
                              f"f1-f2 {want!r}")
        for x, v in ((x1, v1), (x2, v2)):
            sig = x.values[-1]
            scale = max(1.0, float(np.abs(v).max()))
            if np.abs(sig.level(1) - (v[-1] - v[0])).max() > 1e-12 * scale:
                errors.append(f"pair {idx}: level-1 signature != f_M - f_0")
            if tensor_core.grouplike_defect(sig) > 1e-12:
                errors.append(f"pair {idx}: group-like defect "
                              f"{tensor_core.grouplike_defect(sig)!r}")
        lo, hi = pair["interval"]
        span = (float(times[lo]), float(times[hi]))
        for k in range(1, pair["depth"] + 1):
            checks = (
                (distances.rho_level(x1, x2, distances.DistKind.QVAR, p=DIST_Q, k=k,
                                     interval=span),
                 oracle.oracle_rho_qvar(x1, x2, DIST_Q, k, span), "qvar"),
                (distances.rho_level(x1, x2, distances.DistKind.RIESZ,
                                     delta=DIST_DELTA, p=DIST_P, k=k, interval=span),
                 oracle.oracle_rho_riesz(x1, x2, DIST_DELTA, DIST_P, k, span), "riesz"),
            )
            for got, want, kind in checks:
                if ref.rel_err(got, want) > 1e-9:
                    errors.append(f"pair {idx} level-{k} {kind} on [{lo},{hi}]: "
                                  f"{got!r} vs oracle {want!r}")
        # the group-path oracle recomputes each homogeneous distance per
        # partition, so it gets a shorter interval
        hi = lo + GROUP_CHECK_POINTS - 1
        span = (float(times[lo]), float(times[hi]))
        got = norms.qvar_norm(x1, DIST_Q, span)
        want = oracle.oracle_qvar(x1, DIST_Q, span)
        if ref.rel_err(got, want) > 1e-9:
            errors.append(f"pair {idx} group q-variation on [{lo},{hi}]: {got!r} vs "
                          f"oracle {want!r}")
        return errors


# ---------------------------------------------------------------------------
# rde-solve
# ---------------------------------------------------------------------------

def _field_spec(family, const, lin, quad=None):
    n, m = const.shape
    coeffs = {"matrices": lin.tolist()}
    if family != "linear":
        coeffs["offsets"] = const.tolist()
    if quad is not None:
        coeffs["quadratics"] = quad.tolist()
    return {"family": family, "m": m, "n": n, "coefficients": coeffs,
            "box_radius": 1e6, "lip_gamma": 2.5}


def _read_rde_inputs(files):
    drivers = [cli.read_path_csv(files[key]) for key in ("drv2", "drv1")]
    fields = {name: rde.VectorField.from_spec(json.loads(files[name].read_text()))
              for name in ("affine", "polynomial", "linear")}
    return (*drivers, fields)


def _solve_rough_lifted(y0, field, driver, depth):
    cfg = rde.RdeConfig(depth=depth, scheme=rde.Scheme.ROUGH_EULER)
    return rde.solve_rough(y0, field, paths.lift(driver, depth), cfg)


class RdeSolve:
    """BV Euler with substeps and step-2/3 rough Euler on seeded drivers."""

    name = "rde-solve"
    nominal_round_s = 2.2
    substeps = 4

    def __init__(self, tiny=False):
        self.intervals = 32 if tiny else 1024

    def setup(self, seed, rounds, work: Path):
        inputs = []
        m = self.intervals
        times = np.linspace(0.0, 1.0, m + 1)
        for r in range(rounds):
            rng = np.random.default_rng([seed, r])
            drv2, drv1 = _walk(rng, m, 2), _walk(rng, m, 1)
            const = rng.uniform(-0.3, 0.3, (2, 2))
            lin = rng.uniform(-0.3, 0.3, (2, 2, 2))
            quad = rng.uniform(-0.05, 0.05, (2, 2, 2, 2))
            omega = float(rng.uniform(0.5, 1.5))
            rot = np.array([[[0.0, -omega], [omega, 0.0]]])
            specs = {
                "affine": _field_spec("affine", const, lin),
                "polynomial": _field_spec("polynomial", const, lin, quad),
                "linear": _field_spec("linear", np.zeros((1, 2)), rot),
            }
            files = {"drv2": work / f"r{r}-driver-2d.csv",
                     "drv1": work / f"r{r}-driver-1d.csv"}
            _write_csv(files["drv2"], times, drv2)
            _write_csv(files["drv1"], times, drv1)
            for name, spec in specs.items():
                files[name] = work / f"r{r}-field-{name}.json"
                files[name].write_text(json.dumps(spec))
            inputs.append({"round": r, "files": files, "drv2": drv2, "drv1": drv1,
                           "const": const, "lin": lin, "quad": quad, "omega": omega,
                           "y0": rng.uniform(-1.0, 1.0, 2)})
        return inputs

    def run_round(self, inp, tracer):
        out = RoundOutput()
        _attempt(out, "inputs", _read_rde_inputs, inp["files"])
        if "inputs" not in out.results:
            return out
        d2, d1, fields = out.results.pop("inputs")
        y0 = inp["y0"]
        bv = rde.RdeConfig(depth=1, substeps=self.substeps, scheme=rde.Scheme.EULER_BV)
        for name in ("affine", "polynomial"):
            _attempt(out, ("bv", name), rde.solve_bv, y0, fields[name], d2, bv)
        for key, name, driver, depth in (("rough2", "affine", d2, 2),
                                         ("rough3", "polynomial", d2, 3),
                                         ("rough3-linear", "linear", d1, 3)):
            _attempt(out, key, _solve_rough_lifted, y0, fields[name], driver, depth)
        out.steps = sum(y.grid.intervals for y in out.results.values())
        return out

    def check(self, inp, out):
        errors = []
        res, y0 = out.results, inp["y0"]
        quads = {"affine": np.zeros((2, 2, 2, 2)), "polynomial": inp["quad"]}
        for name, quad in quads.items():
            y = res.get(("bv", name))
            if y is None:
                continue
            want = ref.euler_ref(inp["const"], inp["lin"], quad, y0, inp["drv2"],
                                 self.substeps)
            scale = max(1.0, float(np.abs(want).max()))
            if y.values.shape != want.shape or np.abs(y.values - want).max() > 1e-9 * scale:
                errors.append(f"solve_bv {name}: differs from the plain Euler loop")
        for key in ("rough2", "rough3"):
            y = res.get(key)
            if y is not None and (y.grid.intervals != self.intervals
                                  or not np.all(np.isfinite(y.values))
                                  or not np.array_equal(y.values[0], y0)):
                errors.append(f"solve_rough {key}: malformed solution")
        y = res.get("rough3-linear")
        if y is not None:
            x = inp["drv1"][:, 0]
            omega = inp["omega"]
            gen = np.array([[0.0, -omega], [omega, 0.0]])
            from scipy.linalg import expm

            want = expm(gen * (x[-1] - x[0])) @ y0
            bound = ref.rotation_euler_bound(y0, np.diff(x), omega)
            err = float(np.linalg.norm(y.values[-1] - want))
            if err > bound + 1e-12 * self.intervals * np.linalg.norm(y0):
                errors.append(f"solve_rough linear depth 3: error {err!r} exceeds the "
                              f"truncation bound {bound!r}")
        return errors


# ---------------------------------------------------------------------------
# verify-suites
# ---------------------------------------------------------------------------

class VerifySuites:
    """``roughpaths verify`` suites at the workload seed, with a report directory."""

    name = "verify-suites"
    nominal_round_s = 11.0

    def __init__(self, tiny=False):
        self.suites = ["distances"] if tiny else ["characterization", "distances"]

    def setup(self, seed, rounds, work: Path):
        inputs = []
        for r in range(rounds):
            out_dir = work / f"r{r}-reports"
            out_dir.mkdir(parents=True, exist_ok=True)
            inputs.append({"round": r, "seed": seed, "out": out_dir})
        self.digests = None
        return inputs

    def run_round(self, inp, tracer):
        out = RoundOutput()
        for suite in self.suites:
            argv = ["verify", "--suite", suite, "--seed", str(inp["seed"]),
                    "--out", str(inp["out"])]
            buf = io.StringIO()
            with tracer.span(f"verify.{suite}"), contextlib.redirect_stdout(buf):
                _attempt(out, suite, cli.main, argv)
        return out

    def check(self, inp, out):
        errors = []
        digests = {}
        for suite in self.suites:
            code = out.results.get(suite)
            if code is None:
                continue
            if code != 0:
                errors.append(f"verify --suite {suite} exited {code}")
            report = inp["out"] / f"{suite}_report.json"
            digests[suite] = hashlib.sha256(report.read_bytes()).hexdigest()
        # reports of one seed must be byte-identical in every round
        if self.digests is None:
            self.digests = digests
        for suite, digest in digests.items():
            if digest != self.digests.get(suite, digest):
                errors.append(f"{suite} report differs from the first round's")
        return errors


WORKLOADS = {w.name: w for w in (NormQueries, RoughDistances, RdeSolve, VerifySuites)}
