"""Scaling ladder of exterior squares, one fresh process per rung.

    python3 tools/ladder.py [RUNG ...] [--src DIR]

Each rung times ``exterior_square_data`` plus ``schur_multiplier`` of the
crossed module (q, q, id) of one algebra q, in wall seconds, with cold
caches: every rung runs in a process of its own, which builds q, starts
the clock, computes, and stops it.  The rungs, in order, are:

- heis5, heis7, heis9 and heis11, the Heisenberg algebras
  ([e1,e2] = [e3,e4] = ... = e_d);
- sl2+sl2, the direct sum of two copies of sl2 densified by the
  benchmark generator's ``unimodular(6, Random(1), Random(1))`` change
  of basis (perfbench/gen.py, imported read-only);
- sl2x5, the direct sum of five copies of sl2 (dimension 15);
- tri6, the Lie algebra of upper-triangular 6 x 6 matrices (21);
- free2-7, free2-8 and free2-10, the free 2-step nilpotent Lie algebras
  on 7, 8 and 10 generators x_i, with [x_i, x_j] = z_ij = -[x_j, x_i] for
  i < j (28, 36 and 55);
- heisleib16, heisleib24 and heisleib32, the Leibniz algebras with
  [e_i, e_i] = e_d for i < d and no other bracket, which are not Lie.

Without RUNG arguments every rung runs.  Each rung also reports
``hl(q, 2)``, the Loday-complex homology in degree 2 (hl2, which equals
the multiplier dimension), and times ``hl(q, 2)`` and ``hl(q, 3)``
(hl2_seconds and hl3_seconds), each on a new copy of q; hl2 and
hl2_seconds are null where d_3 is over the budget and hl refuses it,
hl3_seconds where d_4 is.

The program is imported from DIR (default: src of this checkout), so the
same ladder can time another checkout.  The output is one canonical JSON
object (sorted keys): for each rung its seconds, hl2, hl2_seconds,
hl3_seconds, the dimension of the exterior square and that of the
multiplier.
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
RUNGS = ("heis5", "heis7", "heis9", "heis11", "sl2+sl2", "sl2x5", "tri6",
         "free2-7", "free2-8", "free2-10", "heisleib16", "heisleib24", "heisleib32")


def _table(d: int, brackets) -> list:
    """The d-dimensional table with [e_i, e_j] = sum t e_k over the
    brackets (i, j, k, t), zero otherwise."""
    c = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i, j, k, t in brackets:
        c[i][j][k] += t
    return c


def _antisymmetric(brackets) -> list:
    """Each bracket (i, j, k, t) with its mirror (j, i, k, -t)."""
    return [b for i, j, k, t in brackets for b in ((i, j, k, t), (j, i, k, -t))]


def heisenberg_table(d: int) -> list:
    """[e_{2i-1}, e_{2i}] = e_d = -[e_{2i}, e_{2i-1}], zero otherwise."""
    return _table(d, _antisymmetric((i, i + 1, d - 1, 1) for i in range(0, d - 1, 2)))


def sl2_copies_table(copies: int) -> list:
    """The direct sum of copies of sl2, [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    return _table(3 * copies, _antisymmetric(
        b for o in range(0, 3 * copies, 3)
        for b in ((o, o + 1, o + 2, 1), (o + 2, o, o, 2), (o + 2, o + 1, o + 1, -2))))


def triangular_table(n: int) -> list:
    """Upper-triangular n x n matrices with the commutator, on the basis
    E_ij (i <= j) in lexicographic order: [E_ij, E_jl] = E_il and
    [E_ij, E_ki] = -E_kj."""
    units = [(i, j) for i in range(n) for j in range(i, n)]
    at = {u: k for k, u in enumerate(units)}
    brackets = []
    for a, (i, j) in enumerate(units):
        for b, (k, l) in enumerate(units):
            if j == k:
                brackets.append((a, b, at[i, l], 1))
            if l == i:
                brackets.append((a, b, at[k, j], -1))
    return _table(len(units), brackets)


def free2_table(n: int) -> list:
    """The free 2-step nilpotent Lie algebra on n generators x_1..x_n,
    followed by z_ij = [x_i, x_j] for i < j in lexicographic order."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return _table(n + len(pairs), _antisymmetric(
        (i, j, n + k, 1) for k, (i, j) in enumerate(pairs)))


def heisleib_table(d: int) -> list:
    """[e_i, e_i] = e_d for i < d, zero otherwise: Leibniz, not Lie."""
    return _table(d, [(i, i, d - 1, 1) for i in range(d - 1)])


def sl2_sum_table() -> list:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen
    a = gen.direct_sum("sl2+sl2", gen.SL2, gen.SL2)
    g, ginv = gen.unimodular(a.dim, Random(1), Random(1))
    return gen.bilinear_change(a.c, g, g, ginv)


def rung_table(name: str) -> list:
    """The structure constants of the algebra of a rung."""
    if name == "sl2+sl2":
        return sl2_sum_table()
    if name == "sl2x5":
        return sl2_copies_table(5)
    if name == "tri6":
        return triangular_table(6)
    for prefix, table in (("heisleib", heisleib_table), ("heis", heisenberg_table),
                          ("free2-", free2_table)):
        if name.startswith(prefix):
            return table(int(name[len(prefix):]))
    raise ValueError(f"unknown rung {name!r}")


def run_rung(name: str) -> dict:
    """Build the rung's algebra, then time its squares and multiplier, and
    hl(q, 2) and hl(q, 3), each on a new copy of the algebra."""
    from leibxmod.algebra import LeibnizAlgebra
    from leibxmod.tensor import exterior_square_data, schur_multiplier
    from leibxmod.xmod import CrossedModule

    c = rung_table(name)
    d = len(c)

    def algebra():
        return LeibnizAlgebra(name, d, tuple(f"e{i + 1}" for i in range(d)),
                              tuple(tuple(tuple(v) for v in row) for row in c))

    xm = CrossedModule.adjoint_identity(algebra())
    start = time.perf_counter()
    esd = exterior_square_data(xm)
    mult, _ = schur_multiplier(xm)
    seconds = time.perf_counter() - start
    hl2, hl2_seconds = timed_hl(algebra(), 2)
    _, hl3_seconds = timed_hl(algebra(), 3)
    return {"seconds": round(seconds, 3), "square_dim": esd.qq.resolved.dim,
            "multiplier_dim": mult.base.dim, "hl2": hl2, "hl2_seconds": hl2_seconds,
            "hl3_seconds": hl3_seconds}


def timed_hl(q, n: int) -> tuple:
    """hl(q, n) and its wall seconds, or (None, None) where d_(n+1) is over
    the boundary budget and hl refuses it."""
    from leibxmod.homology import hl

    start = time.perf_counter()
    try:
        value = hl(q, n)
    except ValueError:
        return None, None
    return value, round(time.perf_counter() - start, 6)


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
