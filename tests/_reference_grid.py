"""The grid form of the two-index tables, from before a table held only
its entries, kept as a test oracle.

A table was a full grid, st[i][j] = ((k, t), ...) over every i and j,
empty vectors included, and a law that contracts the first slot of a
table read a transposed copy of the grid (the old zst_t, zsl_t and
zsr_t).  sparse_table, transposed, _entries, join and _through are the
old functions verbatim, and so are _violations, the law reports,
_products, _pairwise, annihilator and the centers, each on the grids of
an object's entries, so the differential tests compare the library's
entries form with an independent evaluation of the same laws.  grid and
entries convert between the two forms; the tests read a library table
as a grid through them and nowhere else.
"""

from math import lcm

from leibxmod.algebra import _report, _residual
from leibxmod.ratlin import Subspace, _keyed, _row, accumulate, sparse, sparse_kernel
from leibxmod.xmod import SubPair


# -- the converter ---------------------------------------------------------------

def grid(entries, n: int, m: int) -> tuple:
    """The n x m grid of the entries ((i, j), v) of a table, () elsewhere."""
    rows = [[()] * m for _ in range(n)]
    for (i, j), v in entries:
        rows[i][j] = v
    return tuple(map(tuple, rows))


def entries(g) -> tuple:
    """The entries ((i, j), v) of a grid over its nonempty v, sorted by key."""
    return tuple(((i, j), v) for i, row in enumerate(g) for j, v in enumerate(row) if v)


def grids(a) -> "tuple[int, tuple, tuple]":
    """(den, st, st_t): the twin of an algebra's table as a grid, and its
    transpose."""
    den, st = a.zst[0], grid(a.zst[1], a.dim, a.dim)
    return den, st, transposed(st, a.dim)


def action_grids(act) -> tuple:
    """The twins (den, grid) of an action's sl and sr, and of their
    transposes zsl_t and zsr_t."""
    dm, dn = act.actor.dim, act.acted.dim
    sl, sr = grid(act.sl, dm, dn), grid(act.sr, dn, dm)
    return tuple((act.den, t) for t in (sl, sr, transposed(sl, dn), transposed(sr, dm)))


# -- the old grid functions, verbatim --------------------------------------------

def sparse_table(table) -> tuple:
    """Sparse view of a table of dense vectors: st[i][j] = sparse(table[i][j])."""
    return tuple(tuple(sparse(v) for v in row) for row in table)


def transposed(st, cols: int) -> tuple:
    """A sparse view with its two outer indices swapped: out[j][i] = st[i][j].
    cols is the length of the rows of st (needed when st has no rows)."""
    return tuple(tuple(row[j] for row in st) for j in range(cols))


def _entries(x, depth: int) -> list:
    """The nonempty sparse vectors of a table with depth outer indices (1
    or 2), as (outer index tuple, vector)."""
    if depth == 1:
        return [((p,), a) for p, a in enumerate(x) if a]
    return [((p, q), a) for p, row in enumerate(x) for q, a in enumerate(row) if a]


def join(terms) -> "tuple[int, dict]":
    """The sums of the terms of a multilinear law, over nonzero entries
    only, on integer twins.

    A term (key, c, x, xs, y, ys) adds c * (x[p] through y[r]), as in
    accumulate, for every outer index p of the sparse table x and r of the
    sparse table y, where c is an int and x and y are integer twins
    (den, view) (see integer_view).  x has one or two outer indices,
    named by the letters of xs; y has the rows y[r][l] with one outer
    index named by the letter ys, or none when ys is "" (then y is itself
    the rows).  Each sum goes to the accumulator at key, a sequence of
    letters and constants, with every letter replaced by its index.  This
    is the join of sparse tensor algebra: for a nonempty x[p], only the r
    with a nonempty y[r][l] for some nonzero entry (l, t) of x[p] are
    visited.  A key that no product reaches has no entry; its sum is zero
    by construction.  A term whose twins have the denominators dx and dy
    is scaled by scale / (dx * dy), scale the lcm of those products over
    all terms, so every accumulator holds scale times its sum, an int.

    Returns (scale, {key tuple: accumulator}).
    """
    terms = list(terms)
    scale = lcm(*[x[0] * y[0] for _, _, x, _, y, _ in terms])
    out = {}
    meets = {}  # id(y) -> (y, {l: the r with a nonempty y[r][l]})
    for key, c, (dx, x), xs, (dy, y), ys in terms:
        c *= scale // (dx * dy)
        if not ys:  # one row, at an index that no key names
            y, ys = (y,), "_"
        keyed, consts = _keyed(tuple(key), xs + ys)
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
                k = keyed(p + (r,) + consts)
                acc = out.get(k)
                if acc is None:
                    acc = out[k] = {}
                accumulate(acc, c, a, y[r])
    return scale, out


def _through(cols, rows_t, n: int, m: int) -> tuple:
    """The integer twin of the sparse table out[i][k] = the sum over
    (l, x) in cols[i] of x * T[l][k], for i < n and k < m, where
    rows_t[k][l] = T[l][k], from the twins cols and rows_t, each entry
    sorted by index over its nonzero values: the rows of a law term whose
    outer element is itself a combination, or a table pulled back."""
    scale, accs = join([("ik", 1, cols, "i", rows_t, "k")])
    rows, empty = {}, ((),) * m
    for (i, k), acc in accs.items():
        rows.setdefault(i, [()] * m)[k] = _row(acc)
    return scale, tuple(tuple(rows[i]) if i in rows else empty for i in range(n))


def _products(us, table_t) -> list:
    """The nonzero values f(u, e_j) of the bilinear map f with f(e_i, e_j)
    = table[i][j], over the sparse vectors u of us and every basis element
    e_j, as sparse int vectors at one positive scale, for the integer
    twins us and table_t (of the transposed view table_t[j][i] =
    table[i][j]), from one join; the table itself in place of table_t
    gives the f(e_j, u)."""
    return [r for r in map(_row, join([("ik", 1, us, "i", table_t, "k")])[1].values())
            if r]


def _pairwise(table_t, us, vs) -> list:
    """The nonzero f(u, v) of the bilinear map of _products over the pairs
    (u, v) of the sparse vectors of the twins us and vs."""
    return _products(vs, _through(us, table_t, len(us[1]), len(table_t[1])))


def annihilator(dim: int, views) -> Subspace:
    """The x in QQ^dim with sum_s x_s * view[r][s] = 0 for every sparse
    view of the given ones and every r."""
    rows = {}
    for v, view in enumerate(views):
        for r, row in enumerate(view):
            for s, entries_ in enumerate(row):
                for k, t in entries_:
                    rows.setdefault((v, r, k), []).append((s, t))
    return sparse_kernel(dim, rows.values())


def center(a) -> Subspace:
    _, st, st_t = grids(a)
    return annihilator(a.dim, (st_t, st))


def center_xmod(xm) -> SubPair:
    L, R, Lt, Rt = (t for _, t in action_grids(xm.action))
    _, st, st_t = grids(xm.base)
    return SubPair(xm, annihilator(xm.top.dim, (L, Rt)),
                   annihilator(xm.base.dim, (Lt, R, st_t, st)))


# -- the law reports, on grids ---------------------------------------------------

def _violations(names: dict, laws) -> list:
    """The violations of a family of laws, in report order (the old
    algebra._violations, with the grid join)."""
    spec, terms = {}, []
    for label, block, pos, dim, loop, shown, law_terms in laws:
        spec[block, pos] = (label, dim, loop, shown)
        terms += [((block, *loop, pos), *t) for t in law_terms]
    scale, accs = join(terms)
    bad = []
    for key, acc in sorted(accs.items()):
        if any(acc.values()):
            label, dim, loop, shown = spec[key[0], key[-1]]
            at = dict(zip(loop, key[1:-1]))
            bad.append((f"{label}({','.join(names[l][at[l]] for l in shown)})",
                        _residual(acc, scale, dim)))
    return bad


def check_leibniz(a):
    den, st, st_t = grids(a)
    st, st_t = (den, st), (den, st_t)
    bad = _violations({"i": a.basis_names, "j": a.basis_names, "k": a.basis_names}, [
        ("", 0, 0, a.dim, "ijk", "ijk",
         ((1, st, "jk", st, "i"), (-1, st, "ij", st_t, "k"), (1, st, "ik", st_t, "j")))])
    return _report(f"leibniz identity on {a.name}", bad)


def check_action(act):
    m, n = act.actor, act.acted
    L, R, Lt, Rt = action_grids(act)
    den, st, st_t = grids(m)
    cm = (den, st)
    den, st, st_t = grids(n)
    cn, cn_t = (den, st), (den, st_t)
    d = n.dim
    bad = [(f"leibniz {a.name} {label}", r) for a in ((m,) if n is m else (m, n))
           for label, r in check_leibniz(a).violations]
    bad += _violations({"a": m.basis_names, "b": m.basis_names,
                        "x": n.basis_names, "y": n.basis_names}, [
        ("axiom1 ", 0, 0, d, "abx", "abx",
         ((1, cm, "ab", Lt, "x"), (-1, L, "bx", L, "a"), (-1, L, "ax", Rt, "b"))),
        ("axiom5 ", 0, 1, d, "abx", "abx",
         ((1, L, "bx", L, "a"), (1, R, "xb", L, "a"))),
        ("axiom3 ", 1, 0, d, "xab", "xab",
         ((1, cm, "ab", R, "x"), (-1, R, "xa", Rt, "b"), (1, R, "xb", Rt, "a"))),
        ("axiom2 ", 2, 0, d, "axy", "axy",
         ((1, cn, "xy", L, "a"), (-1, L, "ax", cn_t, "y"), (1, L, "ay", cn_t, "x"))),
        ("axiom4 ", 2, 1, d, "axy", "xya",
         ((1, cn, "xy", Rt, "a"), (-1, R, "xa", cn_t, "y"), (-1, R, "ya", cn, "x"))),
        ("axiom6 ", 2, 2, d, "axy", "xay",
         ((1, L, "ay", cn, "x"), (1, R, "ya", cn, "x"))),
    ])
    return _report(f"action of {m.name} on {n.name}", bad)


def check_hom(f):
    a, b = f.source, f.target
    cols = f.matrix.zcols
    den, _, st_t = grids(b)
    fb = _through(cols, (den, st_t), a.dim, b.dim)
    bad = _violations({"i": a.basis_names, "j": a.basis_names}, [
        ("", 0, 0, b.dim, "ij", "ij",
         ((1, (a.zst[0], grids(a)[1]), "ij", cols, ""), (-1, cols, "j", fb, "i")))])
    return _report(f"homomorphism {a.name} -> {b.name}", bad)


def check_xmod(xm):
    top, base, act = xm.top, xm.base, xm.action
    L, R, Lt, _ = action_grids(act)
    dcols = xm.delta.zcols
    bden, bst, bst_t = grids(base)
    tden, tst, _ = grids(top)
    units = (1, tuple(((j, 1),) for j in range(top.dim)))
    bad = _violations({"q": base.basis_names, "n": top.basis_names,
                       "a": top.basis_names, "b": top.basis_names}, [
        ("equivariance-left ", 0, 0, base.dim, "qn", "qn",
         ((1, L, "qn", dcols, ""), (-1, dcols, "n", (bden, bst), "q"))),
        ("equivariance-right ", 0, 1, base.dim, "qn", "nq",
         ((1, R, "nq", dcols, ""), (-1, dcols, "n", (bden, bst_t), "q"))),
        ("peiffer-left ", 1, 0, top.dim, "ab", "ab",
         ((1, dcols, "a", Lt, "b"), (-1, units, "b", (tden, tst), "a"))),
        ("peiffer-right ", 1, 1, top.dim, "ab", "ab",
         ((1, dcols, "b", R, "a"), (-1, units, "b", (tden, tst), "a"))),
    ])
    return _report(f"crossed module {xm.name}", [*check_action(act).violations, *bad])


def check_xmod_hom(f):
    from leibxmod.algebra import AlgebraHom
    src, tgt = f.source, f.target
    bad = [*check_hom(AlgebraHom(src.top, tgt.top, f.top_map)).violations,
           *check_hom(AlgebraHom(src.base, tgt.base, f.base_map)).violations]
    tcols, bcols = f.top_map.zcols, f.base_map.zcols
    scale, diff = join([("n", 1, src.delta.zcols, "n", bcols, ""),
                        ("n", -1, tcols, "n", tgt.delta.zcols, "")])
    n = src.top.dim
    flat = {k * n + j: v for (j,), acc in diff.items() for k, v in acc.items()}
    if any(flat.values()):
        bad.append(("delta compatibility", _residual(flat, scale, tgt.base.dim * n)))
    _, _, tLt, tRt = action_grids(tgt.action)
    fl = _through(bcols, tLt, src.base.dim, tgt.top.dim)
    fr = _through(tcols, tRt, src.top.dim, tgt.base.dim)
    L, R, _, _ = action_grids(src.action)
    bad += _violations({"q": src.base.basis_names, "n": src.top.basis_names}, [
        ("equivariance-left ", 0, 0, tgt.top.dim, "qn", "qn",
         ((1, L, "qn", tcols, ""), (-1, tcols, "n", fl, "q"))),
        ("equivariance-right ", 0, 1, tgt.top.dim, "qn", "nq",
         ((1, R, "nq", tcols, ""), (-1, bcols, "q", fr, "n"))),
    ])
    return _report(f"crossed module hom {src.name} -> {tgt.name}", bad)
