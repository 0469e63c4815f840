"""The dense checks that leibxmod used before its sparse table views,
kept as a test oracle.

contract, check_leibniz, check_action, check_hom, check_xmod and
check_xmod_hom are the old functions verbatim (check_action with the
Leibniz reports of its algebras first, as the library's), except that
every bracket, action and matrix product they take goes through the dense
contract and the dense matrix products copied here rather than through
the library's methods, so the differential tests in test_checks.py
compare the library's sparse laws with an independent evaluation.
center and center_xmod are the old dense centers: every kernel row is
a dense row of the structure or action tables, and the base part is
one kernel of the stabilizer's rows and the center's rows together.
_bracket, _act_left, _act_right and _mul_vec are the tests' dense
bracket, actions and matrix-vector product.
accumulate, _entries and join are the old Fraction law evaluator
verbatim, from before the integer twins: every value a Fraction, and
the sums returned as they are, not scaled.
action_report, xmod_report and xmod_hom_report are the library's sparse
reports with every law joined, from before an adjoint identity's laws
were read off its Leibniz or homomorphism report.
"""

from fractions import Fraction
from functools import partial
from typing import Sequence

from leibxmod.algebra import (
    AlgebraHom,
    LeibnizAction,
    LeibnizAlgebra,
    ValidityReport,
    _report,
    _residual,
    _through,
    _violations,
)
from leibxmod.algebra import check_hom as lib_check_hom
from leibxmod.algebra import check_leibniz as lib_check_leibniz
from _dense import from_rows, unit_vec, vec_is_zero
from leibxmod.ratlin import RatMatrix, Subspace, kernel
from leibxmod.ratlin import join as lib_join
from leibxmod.xmod import CrossedModule, SubPair, XModHom


_ZERO = Fraction(0)


def accumulate(acc: dict, c, a, rows) -> None:
    """acc += c * (the sum of t * rows[l] over (l, t) in a), where a and
    each rows[l] are sparse vectors and acc maps an index to a Fraction.

    For the bilinear map [., .] of a sparse table st, rows = st[i] adds
    c * [e_i, a] and rows = transposed(st, ...)[j] adds c * [a, e_j]; with
    rows the sparse columns of a matrix, it adds c times the image of a."""
    for l, t in a:
        r = rows[l]
        if r:
            w = c * t
            for k, u in r:
                acc[k] = acc.get(k, _ZERO) + w * u


def _entries(x, depth: int) -> list:
    """The nonempty sparse vectors of a table with depth outer indices (1
    or 2), as (outer index tuple, vector)."""
    if depth == 1:
        return [((p,), a) for p, a in enumerate(x) if a]
    return [((p, q), a) for p, row in enumerate(x) for q, a in enumerate(row) if a]


def join(terms) -> dict:
    """The sums of the terms of a multilinear law, over nonzero entries only.

    A term (key, c, x, xs, y, ys) adds c * (x[p] through y[r]), as in
    accumulate, for every outer index p of the sparse table x and r of the
    sparse table y.  x has one or two outer indices, named by the letters
    of xs; y has the rows y[r][l] with one outer index named by the letter
    ys, or none when ys is "" (then y is itself the rows).  Each sum goes
    to the accumulator at key, a sequence of letters and constants, with
    every letter replaced by its index.  This is the join of sparse tensor
    algebra: for a nonempty x[p], only the r with a nonempty y[r][l] for
    some nonzero entry (l, t) of x[p] are visited.  A key that no product
    reaches has no entry; its sum is zero by construction.

    Returns {key tuple: accumulator}.
    """
    out = {}
    meets = {}  # id(y) -> (y, {l: the r with a nonempty y[r][l]})
    for key, c, x, xs, y, ys in terms:
        if not ys:  # one row, at an index that no key names
            y, ys = (y,), "_"
        names = xs + ys
        consts, at = [], []
        for k in key:
            if isinstance(k, str):
                at.append(names.index(k))
            else:
                at.append(len(names) + len(consts))
                consts.append(k)
        consts = tuple(consts)
        seen = meets.get(id(y))
        if seen is None:
            support = {}
            for r, row in enumerate(y):
                for l, v in enumerate(row):
                    if v:
                        support.setdefault(l, []).append(r)
            seen = meets[id(y)] = (y, support)
        support = seen[1]
        for p, a in _entries(x, len(xs)):
            if len(a) == 1:
                rs = support.get(a[0][0], ())
            else:
                rs = set().union(*[support.get(l, ()) for l, _ in a])
            for r in rs:
                idx = p + (r,) + consts
                k = tuple(idx[i] for i in at)
                acc = out.get(k)
                if acc is None:
                    acc = out[k] = {}
                accumulate(acc, c, a, y[r])
    return out


def _mul_vec(m: RatMatrix, v: Sequence) -> tuple:
    if len(v) != m.cols:
        raise ValueError("matrix-vector shape mismatch")
    out = []
    for r in m.entries:
        s = Fraction(0)
        for a, b in zip(r, v):
            if a != 0 and b != 0:
                s += a * b
        out.append(s)
    return tuple(out)


def _mul(m: RatMatrix, other: RatMatrix) -> RatMatrix:
    if m.cols != other.rows:
        raise ValueError("matrix-matrix shape mismatch")
    ot = other.transpose()
    ent = tuple(
        tuple(sum((a * b for a, b in zip(r, c) if a != 0 and b != 0), Fraction(0))
              for c in ot.entries)
        for r in m.entries
    )
    return RatMatrix(m.rows, other.cols, ent)


def _bracket(a, x, y):
    return contract(a.c, x, y, a.dim)


def _act_left(act, mvec, nvec):
    return contract(act.left, mvec, nvec, act.acted.dim)


def _act_right(act, nvec, mvec):
    return contract(act.right, nvec, mvec, act.acted.dim)


def contract(table, x: Sequence, y: Sequence, dim: int) -> tuple:
    """The bilinear map with values table[i][j] on basis pairs, at (x, y):
    the sum over i, j of x_i * y_j * table[i][j], skipping zeros."""
    acc = [Fraction(0)] * dim
    ys = [(j, b) for j, b in enumerate(y) if b]
    for i, a in enumerate(x):
        if not a:
            continue
        ti = table[i]
        for j, b in ys:
            c = a * b
            for k, t in enumerate(ti[j]):
                if t:
                    acc[k] += c * t
    return tuple(acc)


def check_leibniz(a: LeibnizAlgebra) -> ValidityReport:
    """Leibniz identity residuals on all basis triples."""
    bad = []
    names = a.basis_names
    e = [unit_vec(a.dim, i) for i in range(a.dim)]
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                # residual of [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] + [[e_i,e_k],e_j]
                r = tuple(x - y + z for x, y, z in zip(_bracket(a, e[i], a.c[j][k]),
                                                       _bracket(a, a.c[i][j], e[k]),
                                                       _bracket(a, a.c[i][k], e[j])))
                if not vec_is_zero(r):
                    bad.append((f"({names[i]},{names[j]},{names[k]})", r))
    return _report(f"leibniz identity on {a.name}", bad)


def check_action(act: LeibnizAction) -> ValidityReport:
    """All six action axioms evaluated on basis triples.

    With L[i][j] = ^{m_i} n_j and R[j][i] = n_j ^ {m_i}, cm/cn the actor
    and acted structure constants, the axioms read:

      1. ^{[m,m']}n   = ^m(^{m'}n) + (^m n)^{m'}
      2. ^m [n,n']    = [^m n, n'] - [^m n', n]
      3. n^{[m,m']}   = (n^m)^{m'} - (n^{m'})^m
      4. [n,n']^m     = [n^m, n'] + [n, n'^m]
      5. ^m(^{m'}n)   = -^m(n^{m'})
      6. [n, ^m n']   = -[n, n'^m]

    The Leibniz reports of the actor and of the acted algebra (once when
    they are one object) come first.
    """
    m, n = act.actor, act.acted
    L, R = act.left, act.right
    cm, cn = m.c, n.c
    left, right, br = partial(_act_left, act), partial(_act_right, act), partial(_bracket, n)
    em = [unit_vec(m.dim, i) for i in range(m.dim)]
    en = [unit_vec(n.dim, j) for j in range(n.dim)]
    mb, nb = m.basis_names, n.basis_names
    bad = [(f"leibniz {a.name} {label}", r) for a in ((m,) if n is m else (m, n))
           for label, r in check_leibniz(a).violations]

    def flag(axiom, r, *names):
        if not vec_is_zero(r):
            bad.append((f"axiom{axiom} ({','.join(names)})", r))

    for i in range(m.dim):
        for i2 in range(m.dim):
            for j in range(n.dim):
                inner = left(em[i], L[i2][j])  # ^m(^{m'}n)
                # 1. ^{[m,m']}n = ^m(^{m'}n) + (^m n)^{m'}
                flag(1, tuple(x - y - z for x, y, z in zip(
                    left(cm[i][i2], en[j]), inner, right(L[i][j], em[i2]))),
                    mb[i], mb[i2], nb[j])
                # 5. ^m(^{m'}n) = -^m(n^{m'})
                flag(5, tuple(x + y for x, y in zip(inner, left(em[i], R[j][i2]))),
                     mb[i], mb[i2], nb[j])

    for j in range(n.dim):
        for i in range(m.dim):
            for i2 in range(m.dim):
                # 3. n^{[m,m']} = (n^m)^{m'} - (n^{m'})^m
                flag(3, tuple(x - y + z for x, y, z in zip(
                    right(en[j], cm[i][i2]), right(R[j][i], em[i2]),
                    right(R[j][i2], em[i]))),
                    nb[j], mb[i], mb[i2])

    for i in range(m.dim):
        for j in range(n.dim):
            for j2 in range(n.dim):
                # 2. ^m [n,n'] = [^m n, n'] - [^m n', n]
                flag(2, tuple(x - y + z for x, y, z in zip(
                    left(em[i], cn[j][j2]), br(L[i][j], en[j2]), br(L[i][j2], en[j]))),
                    mb[i], nb[j], nb[j2])
                outer = br(en[j], R[j2][i])  # [n, n'^m]
                # 4. [n,n']^m = [n^m, n'] + [n, n'^m]
                flag(4, tuple(x - y - z for x, y, z in zip(
                    right(cn[j][j2], em[i]), br(R[j][i], en[j2]), outer)),
                    nb[j], nb[j2], mb[i])
                # 6. [n, ^m n'] = -[n, n'^m]
                flag(6, tuple(x + y for x, y in zip(br(en[j], L[i][j2]), outer)),
                     nb[j], mb[i], nb[j2])

    return _report(f"action of {m.name} on {n.name}", bad)


def check_hom(f: AlgebraHom) -> ValidityReport:
    """Residuals f([e_i,e_j]) - [f(e_i), f(e_j)] on all basis pairs."""
    a, b = f.source, f.target
    bad = []
    for i in range(a.dim):
        fi = f.matrix.column(i)
        for j in range(a.dim):
            r = tuple(x - y for x, y in zip(_mul_vec(f.matrix, a.c[i][j]),
                                            _bracket(b, fi, f.matrix.column(j))))
            if not vec_is_zero(r):
                bad.append((f"({a.basis_names[i]},{a.basis_names[j]})", r))
    return _report(f"homomorphism {a.name} -> {b.name}", bad)


def check_xmod(xm: CrossedModule) -> ValidityReport:
    """Action axioms plus conditions (i) and (ii) on all basis pairs."""
    bad = []
    act_rep = check_action(xm.action)
    bad.extend(act_rep.violations)
    top, base = xm.top, xm.base
    for i in range(base.dim):
        qi = unit_vec(base.dim, i)
        for j in range(top.dim):
            # (i) delta(^q n) = [q, delta n]
            lhs = _mul_vec(xm.delta, xm.action.left[i][j])
            rhs = _bracket(base, qi, xm.delta.column(j))
            r = tuple(x - y for x, y in zip(lhs, rhs))
            if not vec_is_zero(r):
                bad.append((f"equivariance-left ({base.basis_names[i]},"
                            f"{top.basis_names[j]})", r))
            # (i) delta(n^q) = [delta n, q]
            lhs = _mul_vec(xm.delta, xm.action.right[j][i])
            rhs = _bracket(base, xm.delta.column(j), qi)
            r = tuple(x - y for x, y in zip(lhs, rhs))
            if not vec_is_zero(r):
                bad.append((f"equivariance-right ({top.basis_names[j]},"
                            f"{base.basis_names[i]})", r))
    for j1 in range(top.dim):
        d1 = xm.delta.column(j1)
        for j2 in range(top.dim):
            br = top.c[j1][j2]
            # (ii) ^{delta n1} n2 = [n1, n2]
            lhs = _act_left(xm.action, d1, unit_vec(top.dim, j2))
            r = tuple(x - y for x, y in zip(lhs, br))
            if not vec_is_zero(r):
                bad.append((f"peiffer-left ({top.basis_names[j1]},"
                            f"{top.basis_names[j2]})", r))
            # (ii) n1 ^ {delta n2} = [n1, n2]
            lhs = _act_right(xm.action, unit_vec(top.dim, j1), xm.delta.column(j2))
            r = tuple(x - y for x, y in zip(lhs, br))
            if not vec_is_zero(r):
                bad.append((f"peiffer-right ({top.basis_names[j1]},"
                            f"{top.basis_names[j2]})", r))
    return _report(f"crossed module {xm.name}", bad)


def check_xmod_hom(f: XModHom) -> ValidityReport:
    """Component homomorphisms, delta compatibility, and equivariance."""
    bad = []
    bad.extend(check_hom(AlgebraHom(f.source.top, f.target.top, f.top_map)).violations)
    bad.extend(check_hom(AlgebraHom(f.source.base, f.target.base, f.base_map)).violations)
    lhs = _mul(f.base_map, f.source.delta)
    rhs = _mul(f.target.delta, f.top_map)
    if lhs != rhs:
        bad.append(("delta compatibility", tuple(
            x - y for lr, rr in zip(lhs.entries, rhs.entries) for x, y in zip(lr, rr))))
    src, tgt = f.source, f.target
    for i in range(src.base.dim):
        fq = f.base_map.column(i)
        for j in range(src.top.dim):
            fn = f.top_map.column(j)
            r = tuple(x - y for x, y in zip(
                _mul_vec(f.top_map, src.action.left[i][j]),
                _act_left(tgt.action, fq, fn)))
            if not vec_is_zero(r):
                bad.append((f"equivariance-left ({src.base.basis_names[i]},"
                            f"{src.top.basis_names[j]})", r))
            r = tuple(x - y for x, y in zip(
                _mul_vec(f.top_map, src.action.right[j][i]),
                _act_right(tgt.action, fn, fq)))
            if not vec_is_zero(r):
                bad.append((f"equivariance-right ({src.top.basis_names[j]},"
                            f"{src.base.basis_names[i]})", r))
    return _report(f"crossed module hom {src.name} -> {tgt.name}", bad)


def _center_rows(a: LeibnizAlgebra) -> list:
    rows = []
    for j in range(a.dim):
        for k in range(a.dim):
            rows.append(tuple(a.c[i][j][k] for i in range(a.dim)))  # x -> [x, e_j]
            rows.append(tuple(a.c[j][i][k] for i in range(a.dim)))  # x -> [e_j, x]
    return rows


def center(a: LeibnizAlgebra) -> Subspace:
    """Two-sided center {x : [x, a] = [a, x] = 0}."""
    return kernel(from_rows(_center_rows(a), cols=a.dim))


def center_xmod(xm: CrossedModule) -> SubPair:
    """(n^q, st_q(n) & Z(q)): annihilated top part and annihilating center."""
    dt, db = xm.top.dim, xm.base.dim
    rows = []
    for i in range(db):
        for k in range(dt):
            rows.append(tuple(xm.action.left[i][j][k] for j in range(dt)))
            rows.append(tuple(xm.action.right[j][i][k] for j in range(dt)))
    top = kernel(from_rows(rows, cols=dt))
    rows = []
    for j in range(dt):
        for k in range(dt):
            rows.append(tuple(xm.action.left[i][j][k] for i in range(db)))
            rows.append(tuple(xm.action.right[j][i][k] for i in range(db)))
    # the stabilizer meets the center: one kernel of both families of rows
    return SubPair(xm, top, kernel(from_rows(rows + _center_rows(xm.base), cols=db)))


# -- the sparse reports with every law evaluated -------------------------------------
#
# The bodies of leibxmod's _action_report, _xmod_report and _xmod_hom_report
# with every law joined, whatever the input; xmod_report takes its action
# report from action_report, not from the library's cached one.

def action_report(act: LeibnizAction) -> ValidityReport:
    m, n = act.actor, act.acted
    L, R, cm, cn = (act.den, act.sl), (act.den, act.sr), m.zst, n.zst
    d = n.dim
    bad = [(f"leibniz {a.name} {label}", r) for a in ((m,) if n is m else (m, n))
           for label, r in lib_check_leibniz(a).violations]
    bad += _violations({"a": m.basis_names, "b": m.basis_names,
                        "x": n.basis_names, "y": n.basis_names}, [
        ("axiom1 ", 0, 0, d, "abx", "abx",
         ((1, cm, "ab", L, ".x"), (-1, L, "bx", L, "a."), (-1, L, "ax", R, ".b"))),
        ("axiom5 ", 0, 1, d, "abx", "abx",
         ((1, L, "bx", L, "a."), (1, R, "xb", L, "a."))),
        ("axiom3 ", 1, 0, d, "xab", "xab",
         ((1, cm, "ab", R, "x."), (-1, R, "xa", R, ".b"), (1, R, "xb", R, ".a"))),
        ("axiom2 ", 2, 0, d, "axy", "axy",
         ((1, cn, "xy", L, "a."), (-1, L, "ax", cn, ".y"), (1, L, "ay", cn, ".x"))),
        ("axiom4 ", 2, 1, d, "axy", "xya",
         ((1, cn, "xy", R, ".a"), (-1, R, "xa", cn, ".y"), (-1, R, "ya", cn, "x."))),
        ("axiom6 ", 2, 2, d, "axy", "xay",
         ((1, L, "ay", cn, "x."), (1, R, "ya", cn, "x."))),
    ])
    return _report(f"action of {m.name} on {n.name}", bad)


def xmod_report(xm: CrossedModule) -> ValidityReport:
    top, base, act = xm.top, xm.base, xm.action
    dcols, L, R = xm.delta.zcols, (act.den, act.sl), (act.den, act.sr)
    units = (1, tuple(((j, 1),) for j in range(top.dim)))
    bad = _violations({"q": base.basis_names, "n": top.basis_names,
                       "a": top.basis_names, "b": top.basis_names}, [
        ("equivariance-left ", 0, 0, base.dim, "qn", "qn",
         ((1, L, "qn", dcols, ""), (-1, dcols, "n", base.zst, "q."))),
        ("equivariance-right ", 0, 1, base.dim, "qn", "nq",
         ((1, R, "nq", dcols, ""), (-1, dcols, "n", base.zst, ".q"))),
        ("peiffer-left ", 1, 0, top.dim, "ab", "ab",
         ((1, dcols, "a", L, ".b"), (-1, units, "b", top.zst, "a."))),
        ("peiffer-right ", 1, 1, top.dim, "ab", "ab",
         ((1, dcols, "b", R, "a."), (-1, units, "b", top.zst, "a."))),
    ])
    return _report(f"crossed module {xm.name}",
                   [*action_report(act).violations, *bad])


def xmod_hom_report(f: XModHom) -> ValidityReport:
    src, tgt = f.source, f.target
    bad = [*lib_check_hom(AlgebraHom(src.top, tgt.top, f.top_map)).violations,
           *lib_check_hom(AlgebraHom(src.base, tgt.base, f.base_map)).violations]
    tcols, bcols = f.top_map.zcols, f.base_map.zcols
    scale, diff = lib_join([("n", 1, src.delta.zcols, "n", bcols, ""),
                            ("n", -1, tcols, "n", tgt.delta.zcols, "")])
    n = src.top.dim
    flat = {k * n + j: v for (j,), acc in diff.items() for k, v in acc.items()}
    if any(flat.values()):
        bad.append(("delta compatibility", _residual(flat, scale, tgt.base.dim * n)))
    ta, act = tgt.action, src.action
    fl = _through(bcols, (ta.den, ta.sl), ".r")
    fr = _through(tcols, (ta.den, ta.sr), ".r")
    bad += _violations({"q": src.base.basis_names, "n": src.top.basis_names}, [
        ("equivariance-left ", 0, 0, tgt.top.dim, "qn", "qn",
         ((1, (act.den, act.sl), "qn", tcols, ""), (-1, tcols, "n", fl, "q."))),
        ("equivariance-right ", 0, 1, tgt.top.dim, "qn", "nq",
         ((1, (act.den, act.sr), "nq", tcols, ""), (-1, bcols, "q", fr, "n."))),
    ])
    return _report(f"crossed module hom {src.name} -> {tgt.name}", bad)
