"""``python tests/code_lines.py SRC [BASE]`` prints the code lines of every
Python module under SRC and their total: the lines that hold a token of code,
so neither docstrings (module, class and function) nor comments nor blank
lines count.  A statement that spans lines counts each of its lines.  Given a
base tree BASE (the same sources at an earlier commit), it also prints the
base's total and the net change of SRC against it; it checks nothing.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def tree_lines(root: Path) -> dict[str, int]:
    """The code lines of every Python module under ``root``, by relative path."""
    return {str(path.relative_to(root)): code_lines(path.read_text())
            for path in sorted(root.rglob("*.py"))}


def main(argv) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    counts = tree_lines(Path(argv[1]))
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    total = sum(counts.values())
    print(f"{total:6d}  total")
    if len(argv) == 3:
        base = sum(tree_lines(Path(argv[2])).values())
        print(f"{base:6d}  base total")
        print(f"{total - base:+6d}  net")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
