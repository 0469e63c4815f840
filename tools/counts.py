"""Calls of the program's core routines per job of one perfbench job list.

    python3 tools/counts.py [--src DIR] --workload W --seed N

Builds the job list that ``perfbench/run.py --workload W --seed N
--seconds 25`` builds (one round, from perfbench's own generator,
imported read-only) in a temporary directory, and runs every job's
commands through ``leibxmod.cli.main`` in this one process, in order, as
perfbench does.  Each counted routine is wrapped in every module of the
package that imported it, so a call is counted whichever module makes
it.  Unlike timings, the counts are deterministic.

The program is imported from DIR (default: src of this checkout), so the
same list can be counted on another checkout.  The output is one
canonical JSON object (sorted keys): the number of jobs, and per counted
routine the mean number of calls per job.
"""

import argparse
import contextlib
import importlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTED = ("ratlin._eliminate", "ratlin.join", "ratlin.solve_matrix",
           "ratlin.integer_rank", "ratlin.sparse_kernel", "xmod._step",
           "algebra._violations", "tensor._build_presentation", "tensor._descend",
           "tensor._substitution", "tensor.one_leg_span", "tensor._symbols")


def wrap(counts: dict) -> None:
    """Count every call of each routine of COUNTED in counts, by wrapping
    it in each leibxmod module that holds it under its own name."""
    modules = [m for name, m in list(sys.modules.items())
               if name.split(".")[0] == "leibxmod"]
    for name in COUNTED:
        home, attr = name.split(".")
        real = getattr(importlib.import_module(f"leibxmod.{home}"), attr)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        for m in modules:
            if getattr(m, attr, None) is real:
                setattr(m, attr, counted)


def count(src: str, workload: str, seed: int) -> dict:
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run  # perfbench's job lists and commands
    sys.path.insert(0, src)
    cli = importlib.import_module("leibxmod.cli")
    counts = dict.fromkeys(COUNTED, 0)
    wrap(counts)
    with tempfile.TemporaryDirectory() as tmp:
        jobs = run.build_jobs(workload, seed, 1, Path(tmp))
        for job in jobs:
            for argv in run.commands(job):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    cli.main(argv)
    return {"jobs": len(jobs), **{k: round(v / len(jobs), 3) for k, v in counts.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory that holds the leibxmod package")
    ap.add_argument("--workload", required=True,
                    choices=("squares", "extensions", "homology"))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    print(json.dumps(count(args.src, args.workload, args.seed), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
