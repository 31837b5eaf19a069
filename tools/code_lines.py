"""Count the code lines of each module of src/floorsums, and in total.

A code line is a line that holds a token other than a comment, outside
docstrings.  A docstring is a statement made of string literals alone; every
line a counted token spans counts once.  Only the standard library's
``tokenize`` reads the source.

    python tools/code_lines.py [DIR]     # DIR defaults to src/floorsums
"""

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path) -> int:
    """The number of code lines of one Python source file."""
    lines, statement = set(), []
    with open(path, "rb") as source:
        for token in tokenize.tokenize(source.readline):
            if token.type == tokenize.NEWLINE:
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif token.type not in _LAYOUT:
                statement.append(token)
    return len(lines)


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "floorsums"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
