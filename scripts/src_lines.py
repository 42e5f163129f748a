#!/usr/bin/env python3
"""Count the library's source lines.

Prints the number of lines in src/**/*.cc and src/**/*.h that are neither
blank nor led by `//` (after leading whitespace). Code lines with a
trailing or inline comment count. This is the line count the simplicity
changes in CHANGES.md report.

Usage:
  scripts/src_lines.py [REPO_ROOT]

REPO_ROOT defaults to the directory above this script.
"""

import os
import sys


def count_lines(src_dir):
    total = 0
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith((".cc", ".h")):
                continue
            with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                for line in f:
                    stripped = line.strip()
                    if stripped and not stripped.startswith("//"):
                        total += 1
    return total


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir)
    src_dir = os.path.join(root, "src")
    if not os.path.isdir(src_dir):
        print(f"src_lines: no src/ directory under {root}", file=sys.stderr)
        return 1
    print(count_lines(src_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
