"""Count the code lines of Python files: lines that hold a token other than a
comment, a line break, an indent or a docstring (a string that starts a statement).

    python tools/code_lines.py src/shoprec/*.py

prints one ``path count`` line per file given, in the order given, then the
total over them as its last line; a token that spans lines counts each line it
covers. Docstrings and comments can grow without changing the count.
"""

import sys
import tokenize

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}
# a string token right after one of these starts a statement
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(path: str) -> int:
    lines: set[int] = set()
    previous = tokenize.NEWLINE
    with open(path, "rb") as file:
        for token in tokenize.tokenize(file.readline):
            docstring = token.type == tokenize.STRING and previous in STATEMENT_START
            if token.type not in SKIPPED and not docstring:
                lines.update(range(token.start[0], token.end[0] + 1))
            if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING):
                previous = token.type
    return len(lines)


if __name__ == "__main__":
    counts = [code_lines(path) for path in sys.argv[1:]]
    for path, count in zip(sys.argv[1:], counts):
        print(path, count)
    print(sum(counts))
