"""Repository size report: raw lines and code lines per area.

Development utility used to keep an eye on the relative weight of library
code, tests, benchmarks and documentation.  Two columns are printed:

* ``lines`` — every line of the area's ``.py``, ``.md`` and ``.toml`` files;
* ``code``  — Python lines carrying at least one token that is not a comment
  or part of a docstring (blank, comment-only and docstring lines are not
  counted), so deleting comments does not show up as a reduction.

The library row is broken down per subpackage of ``src/repro``.  Run from
anywhere::

    python scripts/loc_report.py
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

AREAS = {
    "library (src/repro)": ("src/repro",),
    "tests": ("tests",),
    "benchmarks": ("benchmarks",),
    "examples": ("examples",),
    "scripts": ("scripts",),
    "docs (README + docs/)": ("README.md", "docs"),
}

SUFFIXES = (".py", ".md", ".toml")

_NON_CODE_TOKENS = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Lines of ``source`` holding a token outside comments and docstrings."""
    docstring_lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstring_lines.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NON_CODE_TOKENS:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines)


def _files(root: pathlib.Path):
    if root.is_file():
        return [root]
    return [path for path in sorted(root.rglob("*")) if path.suffix in SUFFIXES and path.is_file()]


def count(roots) -> tuple:
    """``(raw lines, code lines)`` over every file under ``roots``."""
    raw = code = 0
    for root in roots:
        for path in _files(root):
            text = path.read_text(encoding="utf-8")
            raw += len(text.splitlines())
            if path.suffix == ".py":
                code += code_lines(text)
    return raw, code


def _row(label: str, raw: int, code: int) -> str:
    return f"{label:28s} {raw:7d} {code:7d}"


def main() -> int:
    repo = pathlib.Path(__file__).resolve().parents[1]
    print(f"{'area':28s} {'lines':>7s} {'code':>7s}")
    total_raw = total_code = 0
    for label, relatives in AREAS.items():
        raw, code = count([repo / relative for relative in relatives if (repo / relative).exists()])
        total_raw += raw
        total_code += code
        print(_row(label, raw, code))
        if relatives == ("src/repro",):
            package = repo / "src/repro"
            for sub in sorted(p for p in package.iterdir() if p.is_dir() and p.name != "__pycache__"):
                print(_row(f"  repro/{sub.name}", *count([sub])))
            print(_row("  repro/*.py", *count(sorted(package.glob("*.py")))))
    print(_row("total", total_raw, total_code))
    return 0


if __name__ == "__main__":
    sys.exit(main())
