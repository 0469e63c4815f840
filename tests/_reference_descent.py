"""The dense routines that leibxmod used before the maps of the six-term
sequence descended and restricted through one helper each, kept as a
test oracle.

_theta_matrices is the old function of leibxmod.extensions,
multiplier_functorial_map the old one of leibxmod.tensor, subalgebra_on
the old one of leibxmod.algebra, all verbatim, and inclusion the old
classmethod CrossedModule.inclusion of leibxmod.xmod as a function (cls
written CrossedModule).  _sections, the linear sections of the
projection under a plain or a skewed policy through which
_theta_matrices lifts, is a later function of leibxmod.extensions,
verbatim; the library's connecting map lifts through the induced square
maps instead, and the tests compare it with _theta_matrices under both
policies.  Every bracket and action is one dense
contraction of a pair of vectors (LeibnizAlgebra.bracket,
LeibnizAction.act_left and act_right), every relation is tested by a
dense matrix-vector product, and every restriction to a subspace tests
membership with contains_vector and then again inside coords.
lemma35_check is the old one of leibxmod.extensions, each dense call
that left the library replaced by its twin among the oracles.
_base_action_on_ambient is the old function of leibxmod.tensor,
verbatim, and base_on_top the old descent of its 2 dim q maps in
_squares, verbatim as a function; the library reads the base action on
the top square off the top evaluation instead.  The differential tests
in test_descent.py and test_extensions.py compare the library's
routines with them.
"""

from math import lcm

import _reference_rref
from _dense import from_columns, unit_vec, vec_is_zero
from _reference_checks import _act_left, _act_right, _bracket, _mul_vec
from _reference_quotient import contains_vector
from leibxmod.algebra import LeibnizAction, LeibnizAlgebra, _report, ideal_closure
from leibxmod.extensions import Extension
from _reference_grid import entries, grid, transposed
from leibxmod.ratlin import RatMatrix, Subspace, _plus, kernel
from leibxmod.tensor import (
    _descend,
    _index,
    _legs,
    _symbols,
    exterior_square_data,
    induced_exterior_hom,
    schur_multiplier,
)
from leibxmod.xmod import CrossedModule, XModHom, check_xmod, check_xmod_hom


def coords(s: Subspace, v) -> tuple:
    """The coordinates of v in the canonical basis of s, its entries at the
    pivots; raises if v is not a member."""
    if not contains_vector(s, v):
        raise ValueError("vector not in subspace")
    return tuple(v[p] for p in s.pivots)


def _sections(e: Extension, skew: bool) -> "tuple[RatMatrix, RatMatrix]":
    """Linear sections of both projection components.  The plain policy
    takes the projection's sections, solved once per projection; the skew
    policy adds kernel basis vectors to them cyclically, giving a
    genuinely different section when the kernel is nonzero."""
    out = []
    for s, ker in zip(e.proj.sections, (e.kernel.top_sub, e.kernel.base_sub)):
        if skew and ker.dim and s.cols:
            # column j plus canonical kernel basis row j mod dim, on ints
            (ds, cs), (dk, ks) = s.zcols, ker.zbasis
            s = RatMatrix.from_sparse(s.rows, (ds * dk, tuple(
                _plus(cs[j], ks[j % ker.dim], dk, ds) for j in range(s.cols))))
        out.append(s)
    return tuple(out)


def _theta_matrices(e: Extension, kxm: CrossedModule,
                    skew: bool) -> "tuple[RatMatrix, RatMatrix]":
    esd = exterior_square_data(e.quotient)
    _, incl_m = schur_multiplier(e.quotient)
    s1, s2 = _sections(e, skew)
    dq, dn = e.quotient.base.dim, e.quotient.top.dim
    amb_top = [None] * esd.qn.ambient_dim
    for a in range(dq):
        pa = s2.column(a)
        for b in range(dn):
            hb = s1.column(b)
            amb_top[_index(dq, dn, 0, a, b)] = _act_left(e.total.action, pa, hb)
            amb_top[_index(dq, dn, 1, b, a)] = _act_right(e.total.action, hb, pa)
    A = from_columns(amb_top, rows=e.total.top.dim)
    amb_base = [None] * esd.qq.ambient_dim
    for a in range(dq):
        for c in range(dq):
            v = _bracket(e.total.base, s2.column(a), s2.column(c))
            amb_base[_index(dq, dq, 0, a, c)] = amb_base[_index(dq, dq, 1, a, c)] = v
    B = from_columns(amb_base, rows=e.total.base.dim)
    # centrality makes the lifted evaluation kill the relations exactly
    for r in esd.qn.relations.basis.entries:
        if not vec_is_zero(_mul_vec(A, r)):
            raise AssertionError(
                "lifted evaluation does not vanish on the top square relations")
    for r in esd.qq.relations.basis.entries:
        if not vec_is_zero(_mul_vec(B, r)):
            raise AssertionError(
                "lifted evaluation does not vanish on the base square relations")
    # on the quotient, column j is the lifted evaluation of the free symbol
    theta_top = from_columns([amb_top[f] for f in esd.qn.qmap.free],
                             rows=e.total.top.dim)
    theta_base = from_columns([amb_base[f] for f in esd.qq.qmap.free],
                              rows=e.total.base.dim)
    tcols = []
    for k in range(incl_m.top_map.cols):
        v = _mul_vec(theta_top, incl_m.top_map.column(k))
        if not contains_vector(e.kernel.top_sub, v):
            raise AssertionError("connecting image escapes the kernel top")
        tcols.append(coords(e.kernel.top_sub, v))
    bcols = []
    for k in range(incl_m.base_map.cols):
        v = _mul_vec(theta_base, incl_m.base_map.column(k))
        if not contains_vector(e.kernel.base_sub, v):
            raise AssertionError("connecting image escapes the kernel base")
        bcols.append(coords(e.kernel.base_sub, v))
    return (from_columns(tcols, rows=kxm.top.dim),
            from_columns(bcols, rows=kxm.base.dim))


def multiplier_functorial_map(f: XModHom) -> XModHom:
    """Restriction of the induced exterior maps to the multipliers."""
    top_hom, base_hom = induced_exterior_hom(f)
    m_src, _ = schur_multiplier(f.source)
    m_tgt, _ = schur_multiplier(f.target)
    src = exterior_square_data(f.source)
    tgt = exterior_square_data(f.target)
    kt_src = kernel(src.lambda_n.matrix)
    kb_src = kernel(src.mu_q.matrix)
    kt_tgt = kernel(tgt.lambda_n.matrix)
    kb_tgt = kernel(tgt.mu_q.matrix)
    tcols = []
    for u in kt_src.basis.entries:
        w = _mul_vec(top_hom.matrix, u)
        if not contains_vector(kt_tgt, w):
            raise AssertionError("induced top map does not preserve the multiplier")
        tcols.append(coords(kt_tgt, w))
    bcols = []
    for u in kb_src.basis.entries:
        w = _mul_vec(base_hom.matrix, u)
        if not contains_vector(kb_tgt, w):
            raise AssertionError("induced base map does not preserve the multiplier")
        bcols.append(coords(kb_tgt, w))
    out = XModHom(m_src, m_tgt,
                  from_columns(tcols, rows=m_tgt.top.dim),
                  from_columns(bcols, rows=m_tgt.base.dim))
    orep = check_xmod_hom(out)
    if not orep.valid:
        raise AssertionError(
            f"multiplier map is not a crossed module map:\n{orep.summary()}")
    return out


def subalgebra_on(a: LeibnizAlgebra, s: Subspace, name: str) -> "tuple[LeibnizAlgebra, RatMatrix]":
    """Algebra structure induced on a bracket-closed subspace.

    Returns the algebra in the coordinates of s's canonical basis plus
    the inclusion matrix (a.dim x s.dim).  Raises if s is not closed.
    """
    base = s.basis.entries
    c = []
    for x in base:
        row = []
        for y in base:
            b = _bracket(a, x, y)
            if not contains_vector(s, b):
                raise ValueError("subspace is not bracket-closed")
            row.append(coords(s, b))
        c.append(tuple(row))
    names = tuple(f"s{i+1}" for i in range(s.dim))
    sub = LeibnizAlgebra(name, s.dim, names, tuple(c))
    incl = from_columns(list(base), rows=a.dim) if base else RatMatrix.zeros(a.dim, 0)
    return sub, incl


def inclusion(q: LeibnizAlgebra, s, name=None) -> CrossedModule:
    """(n, q, i) for a two-sided ideal n = s of q with the bracket action."""
    if ideal_closure(q, s) != s:
        raise ValueError(f"subspace is not a two-sided ideal of {q.name}")
    top, incl = subalgebra_on(q, s, name or f"{q.name}_ideal")
    left = tuple(
        tuple(coords(s, _bracket(q, unit_vec(q.dim, i), incl.column(j)))
              for j in range(top.dim))
        for i in range(q.dim))
    right = tuple(
        tuple(coords(s, _bracket(q, incl.column(j), unit_vec(q.dim, i)))
              for i in range(q.dim))
        for j in range(top.dim))
    action = LeibnizAction(q, top, left, right)
    return CrossedModule(name or f"({top.name},{q.name},incl)", top, q, incl, action)


def lemma35_check(e: Extension):
    if not e.flags.central:
        raise ValueError("the abelian connecting structure needs a central extension")
    bad = []
    esd_t = exterior_square_data(e.total)
    span, ideal, bp, psi2 = e.one_leg
    if ideal != span:
        bad.append(("one-leg span is not already an ideal", ()))
    for i, u in enumerate(ideal.basis.entries):
        for j, v in enumerate(ideal.basis.entries):
            r = _bracket(esd_t.qn.resolved, u, v)
            if not vec_is_zero(r):
                bad.append((f"one-leg ideal bracket ({i},{j})", r))
    for i, row in enumerate(bp.resolved.c):
        for j, r in enumerate(row):
            if not vec_is_zero(r):
                bad.append((f"kernel-base square bracket ({i},{j})", r))
    dcols = []
    for v in ideal.basis.entries:
        y = _mul_vec(esd_t.id_wedge_delta.matrix, v)
        try:
            dcols.append(_reference_rref.solve(psi2.matrix, y))
        except ValueError:
            bad.append(("connecting image escapes the kernel-base square", y))
    if not bad:
        top = LeibnizAlgebra.abelian(f"I({e.name})", ideal.dim,
                                     tuple(f"i{k+1}" for k in range(ideal.dim)))
        cm = CrossedModule(
            f"(I,b^p)({e.name})", top, bp.resolved,
            from_columns(dcols, rows=bp.resolved.dim),
            LeibnizAction.trivial(bp.resolved, top))
        bad.extend(check_xmod(cm).violations)
    return _report(f"abelian connecting structure of {e.name}", bad)


def _base_action_on_ambient(xm: CrossedModule, dn: int):
    """Linear maps for the base q acting on the tensor ambient of (q, n)
    symbols, where q acts on n = xm.top by xm.action:

      ^q (x * y) = (^q x) * y - (^q y) * x,    (x * y)^q = x^q * y + x * y^q,

    with ^q x = [q, x] and x^q = [x, q] on the q factor.

    Returns (den, left, right): left[i][k] is den times ^{q_i} of ambient
    symbol k and right[i][k] den times symbol k acted on by q_i on the
    right, as sparse int vectors, so left[i] and right[i] are the sparse
    columns of the two maps of basis element q_i, scaled by den, the lcm
    of the denominators of q and of the action.
    """
    q, act = xm.base, xm.action
    dq = q.dim
    # indexed by factor, 0 for q and 1 for n; in block s, x lies in factor s
    units = ([((a, 1),) for a in range(dq)], [((b, 1),) for b in range(dn)])
    (dQ, qst), dA = q.zst, act.den
    qst, sl, sr = grid(qst, dq, dq), grid(act.sl, dq, dn), grid(act.sr, dn, dq)
    den = lcm(dQ, dA)
    cs = (den // dQ, den // dA)
    lefts, rights = (qst, sl), (qst, sr)
    legs = [_legs(dq, dn, k) for k in range(2 * dq * dn)]
    left = tuple(
        tuple(tuple(_symbols(dq, dn, (
            (cs[s], s, lefts[s][i][x], units[1 - s][y]),
            (-cs[1 - s], 1 - s, lefts[1 - s][i][y], units[s][x]))).items())
            for s, x, y in legs)
        for i in range(dq))
    right = tuple(
        tuple(tuple(_symbols(dq, dn, (
            (cs[s], s, rights[s][x][i], units[1 - s][y]),
            (cs[1 - s], s, units[s][x], rights[1 - s][y][i]))).items())
            for s, x, y in legs)
        for i in range(dq))
    return den, left, right


def base_on_top(xm: CrossedModule, qn) -> LeibnizAction:
    """The action of xm.base on the top square qn: each map of a basis
    element descended."""
    q, dq, dn = xm.base, xm.base.dim, xm.top.dim
    den, left, right = _base_action_on_ambient(xm, dn)
    sl = [_descend(qn, (den, left[i]), qn.qmap) for i in range(dq)]
    if None in sl:
        raise AssertionError(f"base action does not preserve the relations of {qn.name}")
    sr = [_descend(qn, (den, right[i]), qn.qmap) for i in range(dq)]
    if None in sr:
        raise AssertionError(f"base action does not preserve the relations of {qn.name}")
    return LeibnizAction.from_sparse(
        q, qn.resolved, qn.qmap.zimages[0] * den, entries(tuple(v for _, v in sl)),
        entries(transposed(tuple(v for _, v in sr), qn.qmap.dim)))
