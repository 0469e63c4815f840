"""Scaling ladder of exterior squares, one fresh process per rung.

    python3 tools/ladder.py [RUNG ...] [--src DIR]

Each rung times ``exterior_square_data`` plus ``schur_multiplier`` of the
crossed module (q, q, id) of one algebra q, in wall seconds, with cold
caches: every rung runs in a process of its own, which builds q, starts
the clock, computes, and stops it.  The rungs are the Heisenberg
algebras heis5, heis7, heis9 and heis11 ([e1,e2] = [e3,e4] = ... = e_d)
and sl2+sl2, the direct sum of two copies of sl2 densified by the
benchmark generator's ``unimodular(6, Random(1), Random(1))`` change of
basis (perfbench/gen.py, imported read-only).  Without RUNG arguments
every rung runs, in that order.

Each rung also times ``hl(q, 3)``, the Loday-complex homology in degree
3, on a new copy of q (hl3_seconds), or reports null where d_4 is over
the boundary budget and hl refuses it (heis9 and heis11).

The program is imported from DIR (default: src of this checkout), so the
same ladder can time another checkout.  The output is one canonical JSON
object (sorted keys): for each rung its seconds, hl3_seconds, the
dimension of the exterior square and that of the multiplier.
"""

import argparse
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
RUNGS = ("heis5", "heis7", "heis9", "heis11", "sl2+sl2")


def heisenberg_table(d: int) -> list:
    """[e_{2i-1}, e_{2i}] = e_d = -[e_{2i}, e_{2i-1}], zero otherwise."""
    c = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(0, d - 1, 2):
        c[i][i + 1][d - 1] = Fraction(1)
        c[i + 1][i][d - 1] = Fraction(-1)
    return c


def sl2_sum_table() -> list:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen
    a = gen.direct_sum("sl2+sl2", gen.SL2, gen.SL2)
    g, ginv = gen.unimodular(a.dim, Random(1), Random(1))
    return gen.bilinear_change(a.c, g, g, ginv)


def run_rung(name: str) -> dict:
    """Build the rung's algebra, then time its squares and multiplier, and
    hl(q, 3) on a new copy of the algebra."""
    from leibxmod.algebra import LeibnizAlgebra
    from leibxmod.homology import hl
    from leibxmod.tensor import exterior_square_data, schur_multiplier
    from leibxmod.xmod import CrossedModule

    c = sl2_sum_table() if name == "sl2+sl2" else heisenberg_table(int(name[4:]))
    d = len(c)

    def algebra():
        return LeibnizAlgebra(name, d, tuple(f"e{i + 1}" for i in range(d)),
                              tuple(tuple(tuple(v) for v in row) for row in c))

    xm = CrossedModule.adjoint_identity(algebra())
    start = time.perf_counter()
    esd = exterior_square_data(xm)
    mult, _ = schur_multiplier(xm)
    seconds = time.perf_counter() - start
    q = algebra()
    start = time.perf_counter()
    try:
        hl(q, 3)
        hl3_seconds = round(time.perf_counter() - start, 4)
    except ValueError:  # d_4 is over the boundary budget
        hl3_seconds = None
    return {"seconds": round(seconds, 3), "square_dim": esd.qq.resolved.dim,
            "multiplier_dim": mult.base.dim, "hl3_seconds": hl3_seconds}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rungs", nargs="*", metavar="RUNG",
                    help=f"any of {', '.join(RUNGS)}")
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory that holds the leibxmod package")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    unknown = [r for r in args.rungs if r not in RUNGS]
    if unknown:
        ap.error(f"unknown rung {unknown[0]!r}; choose from {', '.join(RUNGS)}")
    if args.child:
        sys.path.insert(0, args.src)
        print(json.dumps(run_rung(args.child), sort_keys=True))
        return 0
    out = {}
    for name in args.rungs or RUNGS:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", name, "--src", args.src],
            capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        out[name] = json.loads(proc.stdout)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
