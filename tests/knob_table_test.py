#!/usr/bin/env python3
"""The README knob table lists exactly the SGXBENCH_* variables the code reads.

Collects every "SGXBENCH_*" string literal in the C++ sources under src/,
bench/ and examples/, and every SGXBENCH_* name in the first column of the
README table that follows "Knobs (environment variables):", and fails
unless the two sets are equal. A knob without a row is undocumented; a
row without a read documents a knob that no longer exists.

    python3 tests/knob_table_test.py [REPO_ROOT]
"""

import pathlib
import re
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE_DIRS = ("src", "bench", "examples")
SOURCE_SUFFIXES = {".h", ".cc", ".cpp"}
TABLE_INTRO = "Knobs (environment variables):"
LITERAL = re.compile(r'"(SGXBENCH_[A-Z0-9_]+)"')
NAME = re.compile(r"SGXBENCH_[A-Z0-9_]+")
# First cell of a markdown table row; "\|" inside a cell is not a border.
FIRST_CELL = re.compile(r"^\|((?:[^|\\]|\\.)*)\|")


def names_read(root):
    names = set()
    for d in SOURCE_DIRS:
        for path in sorted((root / d).rglob("*")):
            if path.suffix in SOURCE_SUFFIXES:
                names |= set(LITERAL.findall(path.read_text()))
    return names


def names_documented(root):
    lines = (root / "README.md").read_text().splitlines()
    rows = []
    for line in lines[lines.index(TABLE_INTRO) + 1:]:
        if line.startswith("|"):
            rows.append(line)
        elif rows:
            break
    names = set()
    for row in rows:
        cell = FIRST_CELL.match(row)
        if cell:
            names |= set(NAME.findall(cell.group(1)))
    return names


class KnobTableTest(unittest.TestCase):
    def test_table_matches_reads(self):
        read = names_read(ROOT)
        documented = names_documented(ROOT)
        self.assertTrue(read, "found no SGXBENCH_* literal in the sources")
        self.assertEqual(
            sorted(read - documented), [],
            "read in the sources but missing from the README knob table")
        self.assertEqual(
            sorted(documented - read), [],
            "in the README knob table but read nowhere in the sources")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        ROOT = pathlib.Path(sys.argv.pop(1)).resolve()
    unittest.main()
