"""The in-process CLI runner of ``compared_outputs.py`` writes what a
``python -m roughpaths.cli`` subprocess writes: the same stdout and exit
code, and the same ``--json`` and ``--out`` bytes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import roughpaths
from compared_outputs import run_cli, write_inputs


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("compared") / "inputs"
    write_inputs(out)
    return out


def cli_args(command, inputs, out):
    return {
        "norm": ["norm", str(inputs / "walk-2d.csv"), "--kind", "rieszv", "--delta", "0.5",
                 "--p", "4", "--interval", "0.25:0.75", "--json", str(out / "result.json")],
        "dist": ["dist", str(inputs / "pair3-a.csv"), str(inputs / "pair3-b.csv"),
                 "--depth", "3", "--kind", "riesz", "--delta", "0.45", "--p", "4"],
        "solve": ["solve", str(inputs / "walk-2d.csv"), "--field",
                  str(inputs / "polynomial.json"), "--y0", "0.5,-0.3", "--depth", "2",
                  "--out", str(out / "result.csv")],
    }[command]


@pytest.mark.parametrize("command", ["norm", "dist", "solve"])
def test_in_process_runner_matches_a_subprocess(inputs, tmp_path, command):
    mine, theirs = tmp_path / "in-process", tmp_path / "subprocess"
    mine.mkdir()
    theirs.mkdir()
    assert run_cli(cli_args(command, inputs, mine), mine / "stdout.txt") == 0

    src = str(Path(roughpaths.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-W", "error", "-m", "roughpaths.cli",
         *cli_args(command, inputs, theirs)],
        capture_output=True, text=True, env=env, timeout=300)
    assert (run.returncode, run.stderr) == (0, "")
    (theirs / "stdout.txt").write_text(f"{run.stdout}exit {run.returncode}\n")

    files = {d: {p.name: p.read_bytes() for p in d.iterdir()} for d in (mine, theirs)}
    assert len(files[mine]) == (1 if command == "dist" else 2)
    assert files[mine] == files[theirs]
