"""Count the source lines of src/connfp by kind: code, docstring, comment, blank.

Run from anywhere: ``python3 scripts/src_lines.py`` (or pass another package
directory). Each physical line is counted once, by the first rule it meets:

- docstring: inside a string that stands alone as a statement (a module,
  class or function docstring, or any bare string expression)
- code: holds any other token
- comment: holds only a comment
- blank: everything else

Only code lines measure how much program there is; trimming docstrings or
comments does not shrink it. The last line gives the headroom: how many lines
the package may still grow before it reaches CEILING, the most lines
src/connfp may hold (tests/test_imports.py holds it to that). Uses the
standard library only.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
CEILING = 2800
# tokens that carry no content of their own
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
# a string statement starts right after one of these (or at the top of the file)
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def count(path: Path) -> dict[str, int]:
    """Line counts of one Python file, keyed by KINDS; they sum to its lines."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    n_lines = len(path.read_bytes().decode("utf-8").splitlines())
    docstring, code, comment = set(), set(), set()
    prev = tokenize.ENCODING
    for i, tok in enumerate(tokens):
        lines = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.STRING and prev in _STATEMENT_START and (
            tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        ):
            docstring.update(lines)
        elif tok.type == tokenize.COMMENT:
            comment.update(lines)
        elif tok.type not in _LAYOUT:
            code.update(lines)
        if tok.type not in (tokenize.NL, tokenize.COMMENT):
            prev = tok.type
    code -= docstring
    comment -= docstring | code
    counts = {"docstring": len(docstring), "code": len(code), "comment": len(comment)}
    counts["blank"] = n_lines - sum(counts.values())
    return {kind: counts[kind] for kind in KINDS}


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "connfp"
    files = sorted(root.glob("*.py"))
    if not files:
        print(f"no Python files in {root}", file=sys.stderr)
        return 2
    width = max(len(f.name) for f in files)
    print(f"{'module':<{width}} {'total':>6} " + " ".join(f"{k:>9}" for k in KINDS))
    totals = dict.fromkeys(KINDS, 0)
    for f in files:
        c = count(f)
        for k in KINDS:
            totals[k] += c[k]
        print(f"{f.name:<{width}} {sum(c.values()):>6} " + " ".join(f"{c[k]:>9}" for k in KINDS))
    total = sum(totals.values())
    print(f"{'total':<{width}} {total:>6} " + " ".join(f"{totals[k]:>9}" for k in KINDS))
    print(f"headroom: {CEILING - total} lines under the ceiling of {CEILING}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
