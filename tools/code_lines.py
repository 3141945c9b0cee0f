"""Count the code lines of Python modules.

    python3 tools/code_lines.py [path ...]        (default: src/monosmt)

A code line is a physical line that holds a token, read with ``tokenize``:
blank lines, comments and docstrings do not count. A docstring here is any
statement made of string literals alone, wherever it stands. A path may
name a module or a directory, whose ``*.py`` files are counted. The script
prints one line per module, then the total.
"""
from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# Tokens that hold no code of their own.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path):
    """The number of code lines of the module at ``path``."""
    lines = set()
    statement = []  # the tokens of the logical line read so far
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _LAYOUT:
                statement.append(tok)
            elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def main(argv):
    paths = [Path(a) for a in argv] or [Path("src/monosmt")]
    files = [f for p in paths
             for f in (sorted(p.glob("*.py")) if p.is_dir() else [p])]
    total = 0
    for f in files:
        n = code_lines(f)
        total += n
        print("%6d  %s" % (n, f))
    print("%6d  total" % total)


if __name__ == "__main__":
    main(sys.argv[1:])
