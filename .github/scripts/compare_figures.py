#!/usr/bin/env python3
"""Compare regenerated figure JSONs with the copies committed at HEAD.

Usage: compare_figures.py FILE [FILE ...]

Each FILE is read from the current directory and compared with
`git show HEAD:FILE` (FILE is a path from the repository root). Host timing
varies run to run, so the VOLATILE fields are dropped from both sides; every
other field must match. Exits 1 if any file differs.
"""
import json
import subprocess
import sys

VOLATILE = {"wall_clock_seconds", "quanta_per_second"}


def strip(value):
    if isinstance(value, dict):
        return {k: strip(v) for k, v in value.items() if k not in VOLATILE}
    if isinstance(value, list):
        return [strip(v) for v in value]
    return value


def main(names):
    failed = False
    for name in names:
        shown = subprocess.run(["git", "show", f"HEAD:{name}"],
                               check=True, capture_output=True, text=True)
        with open(name) as regenerated:
            if strip(json.load(regenerated)) != strip(json.loads(shown.stdout)):
                print(f"::error::{name} differs from the committed copy")
                failed = True
            else:
                print(f"{name} matches the committed copy")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
