#!/usr/bin/env python3
"""Check that the README documents exactly the MF_* variables the code reads.

Collects every ``"MF_..."`` string literal in the C++ sources under
``src/``, ``bench/`` and ``examples/`` (the names passed to getenv), and
every ``MF_...`` name in the first cell of a README table row (the
escape-hatch and serving tables). Exits 1, naming each variable, when a
variable is read but has no row or has a row but is no longer read.

Usage: python3 tools/check_env_table.py
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE_DIRS = ("src", "bench", "examples")
SOURCE_SUFFIXES = {".cpp", ".hpp"}
LITERAL = re.compile(r'"(MF_[A-Z0-9_]+)"')
NAME = re.compile(r"MF_[A-Z0-9_]+")


def read_names():
    names = {}
    for d in SOURCE_DIRS:
        for path in sorted((ROOT / d).rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                for m in LITERAL.finditer(path.read_text(encoding="utf-8")):
                    names.setdefault(m.group(1), path.relative_to(ROOT))
    return names


def documented_names():
    names = {}
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), 1):
        cells = line.split("|")
        if line.lstrip().startswith("|") and len(cells) >= 3:
            for name in NAME.findall(cells[1]):
                names.setdefault(name, lineno)
    return names


def main():
    read = read_names()
    documented = documented_names()
    errors = [f"{n}: read in {read[n]} but has no README table row"
              for n in sorted(set(read) - set(documented))]
    errors += [f"{n}: README.md:{documented[n]} documents it but no source "
               f"under {', '.join(SOURCE_DIRS)} reads it"
               for n in sorted(set(documented) - set(read))]
    for e in errors:
        print(f"check_env_table: {e}", file=sys.stderr)
    if errors:
        return 1
    print(f"check_env_table: {len(read)} MF_* variables, each read and documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
