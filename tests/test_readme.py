"""README states the public contract, and these tests hold it to the code:
every package name it cites resolves, it names no private symbol and quotes
no time, and its lists of kinds, suites and exit codes are the code's."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import pytest

import roughpaths
from roughpaths import DistKind, NormKind, cli, verify

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(roughpaths.__path__)}
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
# an identifier that starts with an underscore, alone or after a dot (not f_u)
PRIVATE = re.compile(r"(?:^|[\s`.(])(_\w+)")
TIME = re.compile(r"\d\s*(?:ns|us|µs|ms|s|sec|seconds?|min|minutes?|hours?)\b")


def lines():
    return README.read_text(encoding="utf-8").splitlines()


def prose():
    """The lines outside code fences."""
    out, fenced = [], False
    for line in lines():
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced:
            out.append(line)
    return out


def section(title):
    """The prose lines under the heading ``## title``, up to the next one."""
    text = prose()
    start = text.index(f"## {title}") + 1
    end = next((i for i in range(start, len(text)) if text[i].startswith("## ")), len(text))
    return text[start:end]


def table_kinds(title):
    # the first cell of each body row of the section's table
    return [m.group(1) for m in map(re.compile(r"\| `([a-z]\w*)` \|").match, section(title)) if m]


def resolve(name):
    head, *rest = name.split(".")
    if head == "roughpaths":
        head, *rest = rest
    obj = importlib.import_module(f"roughpaths.{head}")
    for attr in rest:
        obj = getattr(obj, attr)
    return obj


def test_readme_is_short():
    assert len(lines()) <= 150


def test_cited_package_names_resolve():
    names = [n for line in prose() for n in DOTTED.findall(line)
             if n.split(".")[0] in MODULES | {"roughpaths"}]
    assert len(names) >= 20
    for name in names:
        resolve(name)  # an AttributeError or ImportError names the stale reference


def test_names_no_private_symbol():
    assert [m for line in lines() for m in PRIVATE.findall(line)] == []


def test_quotes_no_time():
    assert [line for line in lines() if TIME.search(line)] == []


def test_norm_and_distance_kinds_are_the_enums():
    assert table_kinds("Norms") == [k.value for k in NormKind]
    assert table_kinds("Distances") == [k.value for k in DistKind]


def test_suites_are_the_harness_suites():
    line = next(line for line in section("Verification reports") if line.startswith("`--suite`:"))
    assert re.findall(r"`(\w+)`", line) == [*verify.SUITES, "all"]


def test_exit_codes_are_the_cli_codes():
    listed = [int(m.group(1)) for m in map(re.compile(r"- `(\d+)` ").match, section("CLI")) if m]
    codes = [v for name, v in vars(cli).items() if name.startswith("EXIT_")]
    assert listed == sorted({0, *codes}) and len(codes) == len(set(codes))


@pytest.mark.parametrize("command, values", [
    ("norm", [k.value for k in NormKind]),
    ("dist", [k.value for k in DistKind]),
    ("verify", [*verify.SUITES, "all"]),
])
def test_cli_help_lists_the_same_choices(command, values):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        cli.main([command, "--help"])
    # argparse wraps the help anywhere, so compare without whitespace
    assert "|".join(values) in "".join(out.getvalue().split())
