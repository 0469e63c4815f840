"""Runs all eight commands on every fixture, without --json, and streams
for each invocation its stdout, its stderr and its exit code; the golden
check compares a run with ``golden/text_corpus.txt``.  Every command
meets every fixture, the ``bad_*`` ones and the kinds it does not take
included, so the corpus pins the error messages and exit codes too.
Fixture paths are given relative to ``fixtures/`` so the output does not
depend on the checkout."""

import contextlib
import io
import os
import sys
from pathlib import Path

from leibxmod import cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
COMMANDS = ("check", "multiplier", "exterior", "classify-extension",
            "verify-sequence", "stemcover", "liezation", "hl")


def main():
    os.chdir(FIXTURES)
    for p in sorted(FIXTURES.iterdir()):
        for command in COMMANDS:
            argv = [command, p.name] + (["2"] if command == "hl" else [])
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            sys.stdout.write(f"$ leibxmod {' '.join(argv)}\n{out.getvalue()}"
                             f"[stderr]\n{err.getvalue()}[exit {code}]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
