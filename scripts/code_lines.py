"""Count the lines of the ``ncsim`` package by kind.

Every line of ``src/ncsim/*.py`` is one of four kinds, found with ``ast``
and ``tokenize``: a docstring line (a line of the string that opens a
module, class or function body, its blank lines included), a blank
line, a comment line (only a comment), or a code line (anything else,
such as a multi-line string that is not a docstring).  Prints the
package totals by kind:

    python scripts/code_lines.py
"""

import ast
import io
import pathlib
import tokenize

KINDS = ("code", "docstring", "comment", "blank")
PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ncsim"


def docstring_lines(tree: ast.AST) -> set:
    """The 1-based line numbers the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict:
    """Lines of ``source`` by kind."""
    docs = docstring_lines(ast.parse(source))
    comments = {
        token.start[0]
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        if number in docs:
            kind = "docstring"
        elif not text:
            kind = "blank"
        elif number in comments and text.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def main() -> None:
    total = dict.fromkeys(KINDS, 0)
    for path in PACKAGE.glob("*.py"):
        counts = count(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
    counts = ", ".join(f"{total[kind]} {kind}" for kind in KINDS)
    print(f"{counts} lines of src/ncsim ({sum(total.values())} in all)")


if __name__ == "__main__":
    main()
