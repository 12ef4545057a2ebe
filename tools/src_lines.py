"""Count the lines of each module under src/: raw, code, docstring, blank, comment.

Usage: python3 tools/src_lines.py [ROOT]    (ROOT defaults to the repo's src/)

A docstring line is any line spanned by a module, class or function
docstring, blank lines inside it included.  Of the other lines, a blank
line is empty or whitespace, a comment line holds only a ``#`` comment, and
every remaining line is code.  So raw = code + docstring + blank + comment.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

COLUMNS = ("raw", "code", "docstring", "blank", "comment")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based numbers of the lines that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """The counts of :data:`COLUMNS` for one Python file."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(COLUMNS, 0)
    counts["raw"] = len(lines)
    for number, line in enumerate(lines, 1):
        stripped = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    rows = {str(path.relative_to(root)): count(path) for path in sorted(root.rglob("*.py"))}
    rows["total"] = {c: sum(r[c] for r in rows.values()) for c in COLUMNS}
    print(f"{'module':<32}" + "".join(f"{c:>10}" for c in COLUMNS))
    for name, counts in rows.items():
        print(f"{name:<32}" + "".join(f"{counts[c]:>10}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
