"""Runs every fixture through every applicable command with --json and
streams the concatenated payloads; the determinism check compares two
full runs of this script byte for byte, and the golden check compares a
run with ``golden/json_corpus.txt``.  Fixture paths are given relative
to ``fixtures/`` so the output does not depend on the checkout."""

import os
import sys
from pathlib import Path

from leibxmod import cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main():
    os.chdir(FIXTURES)
    jobs = []
    for p in sorted(FIXTURES.iterdir()):
        kind = p.suffix[1:]
        jobs.append(["check", p.name])
        if kind == "algebra" and not p.name.startswith("bad_"):
            jobs.append(["hl", p.name, "2"])
        if kind == "xmod":
            jobs.append(["multiplier", p.name])
            jobs.append(["exterior", p.name])
        if kind == "extension":
            jobs.append(["classify-extension", p.name])
            jobs.append(["verify-sequence", p.name])
    jobs.append(["stemcover", "sl2_id.xmod"])
    jobs.append(["liezation", "n2_id.xmod"])
    for argv in jobs:
        sys.stdout.write(f"$ leibxmod {' '.join(argv)} --json\n")
        code = cli.main(argv + ["--json"])
        sys.stdout.write(f"[exit {code}]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
