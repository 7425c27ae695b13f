#!/usr/bin/env python3
"""Count the source lines of src/ that are code.

Usage: src_loc.py [<src dir>]   (default: src/ next to this script's
parent directory)

Prints, for each subdirectory of src/ and in total, the lines of its
.h/.cc files that are neither blank nor comments. A comment line is
one whose first non-blank characters are "//", "/*" or "*", so the
continuation lines of a block comment are dropped too; a line that
holds code before a trailing comment counts. This is the rule behind
the line counts ROADMAP.md and CHANGES.md report, so a change's LoC
delta is the difference of two runs. Informational only: it never
fails on a count.
"""

import os
import sys

COMMENT_PREFIXES = ("//", "/*", "*")
SUFFIXES = (".h", ".cc")


def count_file(path):
    """Non-blank, non-comment lines of one file."""
    count = 0
    with open(path, encoding="utf-8", errors="replace") as f:
        for line in f:
            text = line.strip()
            if text and not text.startswith(COMMENT_PREFIXES):
                count += 1
    return count


def count_tree(root):
    """{subdirectory: lines}; files directly under root count as '.'."""
    counts = {}
    for dirpath, _, filenames in os.walk(root):
        rel = os.path.relpath(dirpath, root)
        top = "." if rel == "." else rel.split(os.sep)[0]
        for name in filenames:
            if name.endswith(SUFFIXES):
                counts[top] = counts.get(top, 0) + count_file(
                    os.path.join(dirpath, name))
    return counts


def main(argv):
    if len(argv) > 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root = argv[1] if len(argv) == 2 else os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.isdir(root):
        print(f"src_loc.py: no directory {root}", file=sys.stderr)
        return 2
    counts = count_tree(root)
    for name in sorted(counts):
        print(f"{counts[name]:8d}  {name}")
    print(f"{sum(counts.values()):8d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
