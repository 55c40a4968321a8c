"""Count the non-blank lines and the code lines of Python sources.

    python3 tools/code_lines.py [DIR ...]

For every *.py file under each DIR (src/listchroma when none is given),
sorted by path, prints the non-blank lines and the code lines. Each DIR's
files end with its total ("total DIR") when more than one DIR is given;
the last line is the total over all of them ("total"). A code line holds a
token that is neither a comment nor part of a docstring; a docstring here
is any statement made of string literals alone. The tokens come from
tokenize, so a line inside a multi-line string that is not a docstring is
code. Exits 2 when a DIR is not a directory.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT = ROOT / "src" / "listchroma"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """The non-blank lines and the code lines of source."""
    nonblank = sum(1 for line in source.splitlines() if line.strip())
    code: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    code.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in NOT_CODE:
            statement.append(tok)
    return nonblank, len(code)


def main(argv: list[str]) -> int:
    dirs = [Path(d) for d in argv] or [DEFAULT]
    missing = [str(d) for d in dirs if not d.is_dir()]
    if missing:
        print(f"error: not a directory: {', '.join(missing)}", file=sys.stderr)
        return 2
    total_nonblank = total_code = 0
    print(f"{'non-blank':>9} {'code':>6}  file")
    for d in dirs:
        dir_nonblank = dir_code = 0
        for path in sorted(d.rglob("*.py")):
            nonblank, code = count(path.read_text())
            dir_nonblank += nonblank
            dir_code += code
            print(f"{nonblank:>9} {code:>6}  {path}")
        if len(dirs) > 1:
            print(f"{dir_nonblank:>9} {dir_code:>6}  total {d}")
        total_nonblank += dir_nonblank
        total_code += dir_code
    print(f"{total_nonblank:>9} {total_code:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
