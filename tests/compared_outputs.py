"""``python -W error tests/compared_outputs.py OUT`` writes, under OUT, every
output that CI compares byte for byte with another commit.  The CLI runs in
this process; a run leaves its stdout, then ``exit N``, and its ``--json`` or
``--out`` file.  Run the script once per source tree (``PYTHONPATH=<tree>/src``)
and ``diff -r`` the trees.  It exits 1 when a verify suite fails or a ``norm``
or ``dist`` run does not exit 0.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

import roughpaths as rp
from roughpaths import verify
from roughpaths.cli import main, read_path_csv


def run_cli(argv, txt) -> int:
    """Run ``roughpaths argv`` here; write its stdout, then ``exit N``, to ``txt``; return N."""
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main([str(arg) for arg in argv])
    Path(txt).write_text(f"{stdout.getvalue()}exit {code}\n")
    return code


def write_inputs(out: Path):
    # seeded walks: 1-D at M = 1536, 2-D at M = 1024, a 2-D pair at M = 512 and a
    # 3-D pair at M = 128; seeded vector fields on R^2 driven by 2-D paths (affine,
    # polynomial, linear) and by 1-D paths (linear-1d), a polynomial field on R^3
    # driven by 3-D paths (polynomial-3d), and an affine field on R^6 driven by
    # 3-D paths (affine-6d); then, for the pruned Hoelder sup and partition DP, a
    # 3-D walk at M = 1024, a 1-D walk on a non-uniform grid through 0.25 and
    # 0.75, and a monotone 1-D path at M = 1536, whose partition sums are won by
    # the longest blocks.
    # Each input is drawn after the ones before it, so that those keep their bits
    out.mkdir(parents=True)

    def save(name, times, values):
        header = ",".join(["t"] + [f"x{c + 1}" for c in range(values.shape[1])])
        np.savetxt(out / f"{name}.csv", np.column_stack([times, values]),
                   fmt="%.17g", delimiter=",", header=header, comments="")

    def walk(name, seed, m, dim, times=None):
        steps = np.random.default_rng(seed).standard_normal((m, dim)) / np.sqrt(m)
        save(name, np.linspace(0.0, 1.0, m + 1) if times is None else times,
             np.vstack([np.zeros((1, dim)), np.cumsum(steps, axis=0)]))

    walk("walk-1d", 11, 1536, 1)
    walk("walk-2d", 12, 1024, 2)
    walk("pair-a", 13, 512, 2)
    walk("pair-b", 14, 512, 2)
    walk("pair3-a", 15, 128, 3)
    walk("pair3-b", 16, 128, 3)
    rng = np.random.default_rng(17)

    def field(name, family, n, m=2, **coefficients):
        (out / f"{name}.json").write_text(json.dumps({
            "family": family, "n": n, "m": m, "coefficients": {
                key: (scale * rng.standard_normal(shape)).tolist()
                for key, (scale, shape) in coefficients.items()}}))

    field("affine", "affine", 2, matrices=(0.5, (2, 2, 2)), offsets=(0.5, (2, 2)))
    field("polynomial", "polynomial", 2, matrices=(0.4, (2, 2, 2)), offsets=(0.4, (2, 2)),
          quadratics=(0.1, (2, 2, 2, 2)))
    field("linear", "linear", 2, matrices=(0.5, (2, 2, 2)))
    field("linear-1d", "linear", 1, matrices=(0.5, (1, 2, 2)))
    field("polynomial-3d", "polynomial", 3, 3, matrices=(0.4, (3, 3, 3)),
          offsets=(0.4, (3, 3)), quadratics=(0.1, (3, 3, 3, 3)))
    field("affine-6d", "affine", 3, 6, matrices=(0.2, (3, 6, 6)), offsets=(0.2, (3, 6)))
    walk("walk-3d", 18, 1024, 3)
    times = np.unique(np.concatenate([np.random.default_rng(19).uniform(0.0, 1.0, 1532),
                                      [0.0, 0.25, 0.75, 1.0]]))
    walk("nonuniform-1d", 20, len(times) - 1, 1, times)
    steps = np.abs(np.random.default_rng(21).standard_normal((1536, 1))) / np.sqrt(1536)
    save("monotone-1d", np.linspace(0.0, 1.0, 1537),
         np.vstack([[0.0], np.cumsum(steps, axis=0)]))


def write_cli_outputs(inputs: Path, out: Path) -> list[str]:
    """Write every CLI output; return the ``norm`` and ``dist`` runs that did not exit 0."""
    out.mkdir(parents=True)
    failed, intervals = [], ([], ["--interval", "0.25:0.75"])

    def run(name, *argv):
        if run_cli(argv, out / f"{name}.txt") and not name.startswith("solve-"):
            failed.append(name)

    # the reports hold maxima over families, where one value that moves can
    # hide; --json keeps every bit of a value, stdout 12 digits.  The p = 300
    # runs leave the float range and so rerun on their folded sources, and the
    # p = inf Nikolskii run takes maxima over the diagonals
    for csv in ("walk-1d", "walk-2d", "walk-3d", "monotone-1d", "nonuniform-1d"):
        for kind in ("hoelder --delta 0.4", "qvar --p 2.5", "rieszv --delta 0.5 --p 4",
                     "mixedv --delta 0.45 --p 3", "nikolskii --delta 0.4 --p 4",
                     "refinednikolskii --delta 0.4 --p 4", "fracsobolev --delta 0.4 --p 3",
                     "rieszv --delta 0.5 --p 300", "nikolskii --delta 0.5 --p 300",
                     "refinednikolskii --delta 0.5 --p 300", "fracsobolev --delta 0.5 --p 300",
                     "qvar --p 300", "nikolskii --delta 0.5 --p inf"):
            kind = kind.split()
            # the other kinds are defined on uniform grids only
            if csv == "nonuniform-1d" and kind[0] not in ("hoelder", "qvar", "rieszv"):
                continue
            for iv in intervals:
                name = f"{csv}-{kind[0]}-{kind[-1]}{'-sub' if iv else ''}"
                run(name, "norm", inputs / f"{csv}.csv", "--kind", *kind, *iv,
                    "--json", out / f"{name}.json")
    # --interval: dense level-difference sources read from lo > 0
    for kind in ("qvar --p 2.5", "riesz --delta 0.45 --p 4", "mixed --delta 0.45 --p 4",
                 "nikolskiihat --delta 0.4 --p 4", "riesz --delta 0.5 --p 300",
                 "nikolskiihat --delta 0.5 --p 300"):
        kind = kind.split()
        for iv in intervals:
            name = f"dist-{kind[0]}-{kind[-1]}{'-sub' if iv else ''}"
            # depth 4 in 3-D: 81 entries at the top level, summed in 8
            # accumulators and a tail
            for pair, depth, suffix in (("pair", "3", ""), ("pair3", "4", "-3d")):
                run(name + suffix, "dist", inputs / f"{pair}-a.csv", inputs / f"{pair}-b.csv",
                    "--depth", depth, "--kind", *kind, *iv, "--json", out / f"{name}{suffix}.json")
    # RDE solutions: BV Euler with substeps and rough Euler at depths 2 and 3;
    # stdout, the exit code and the solution CSV.  Every field takes the
    # composed word-polynomial stepper at every depth: the quadratic ones
    # (polynomial, and polynomial-3d on a state of dimension 3) on the
    # monomials of degree <= N+1, the others on (1, y), affine-6d with a
    # C of 6 (1 + 3 + 9 + 27) x 7 at depth 3
    for field, csv, y0 in (("affine", "walk-2d", "0.5,-0.3"), ("polynomial", "walk-2d", "0.5,-0.3"),
                           ("linear", "walk-2d", "0.5,-0.3"), ("linear-1d", "walk-1d", "0.5,-0.3"),
                           ("polynomial-3d", "pair3-a", "0.5,-0.3,0.2"),
                           ("affine-6d", "pair3-a", "0.5,-0.3,0.2,-0.1,0.4,0.0")):
        for depth in (["1", "--substeps", "4"], ["2"], ["3"]):
            name = f"solve-{field}-{csv}-{depth[0]}"
            run(name, "solve", inputs / f"{csv}.csv", "--field", inputs / f"{field}.json",
                "--y0", y0, "--depth", *depth, "--out", out / f"{name}.csv")
    return failed


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: python {sys.argv[0]} OUT")
    out = Path(sys.argv[1])
    write_inputs(out / "inputs")
    failed = [f"verify --suite all --seed {seed}" for seed in (0, 1)
              if not verify.run_suite("all", seed, out / f"reports-seed{seed}")[1]]
    failed += write_cli_outputs(out / "inputs", out / "cli")
    # the reports keep only maxima and the CLI has no group-path norm: every
    # value of the seven families on depth-2 and depth-3 lifts of the pair-a
    # walk, and on depth-3 and depth-4 lifts of the 3-D pair3-a walk (27 and
    # 81 entries at the top level: accumulators and a tail); Nikolskii also at
    # p = inf and at p = 300, whose sums leave the float range and rerun on
    # their folded sources
    with open(out / "group-norms.txt", "w") as f:
        for csv, depth in (("pair-a", 2), ("pair-a", 3), ("pair3-a", 3), ("pair3-a", 4)):
            x = rp.lift(read_path_csv(out / "inputs" / f"{csv}.csv"), depth)
            for iv in (None, (0.25, 0.75)):
                for name, value in (
                        ("hoelder", rp.holder_norm(x, 0.4, iv)),
                        ("qvar", rp.qvar_norm(x, 2.5, iv)),
                        ("rieszv", rp.riesz_norm(x, 0.5, 4.0, iv)),
                        ("mixedv", rp.mixed_norm(x, 0.45, 3.0, iv)),
                        ("nikolskii", rp.nikolskii_norm(x, 0.4, 4.0, iv)),
                        ("nikolskii-inf", rp.nikolskii_norm(x, 0.5, rp.P_INF, iv)),
                        ("nikolskii-300", rp.nikolskii_norm(x, 0.5, 300.0, iv)),
                        ("refinednikolskii", rp.refined_nikolskii_norm(x, 0.4, 4.0, iv)),
                        ("fracsobolev", rp.frac_sobolev_norm(x, 0.4, 3.0, iv))):
                    print(csv, depth, iv, name, repr(value), file=f)
    # no verify report has a Lipschitz blow-up, so the reports never reach the
    # runners' skip branch: on this family the rough runner skips 9 trials and
    # the BV runner 3
    fam = verify.RoughPairFamily(12, 16, dim=2, depth=2, seed=81, perturbation=0.05)
    with open(out / "lipschitz-blowups.txt", "w") as f:
        for run in (verify.run_lipschitz_suite, verify.run_lipschitz_bv_suite):
            for r in run(fam, b=3.0, l=10.0, seed=0):
                print(repr(r), file=f)
    if failed:
        sys.exit("failed: " + ", ".join(failed))
