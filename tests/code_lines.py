"""Count the code lines of Python sources.

    python tests/code_lines.py [path ...]     (default: src)

A code line is a line that holds a token that is neither a comment nor part
of a module, class or function docstring; blank lines hold none.  A token
that spans several lines, such as a multi-line string, holds each of them.
Prints one ``<count> <file>`` line per ``.py`` file under the given paths,
then ``<total> total``.
"""

import ast
import io
import os
import sys
import tokenize

# Tokens that are layout, not code.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_starts(tree):
    """(line, column) of each module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def count_code_lines(source):
    """The number of code lines in the Python source text."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT or token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def python_files(paths):
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def main(paths):
    total = 0
    for path in python_files(paths):
        with open(path, encoding="utf-8") as handle:
            count = count_code_lines(handle.read())
        print(f"{count} {path}")
        total += count
    print(f"{total} total")


if __name__ == "__main__":
    main(sys.argv[1:] or ["src"])
