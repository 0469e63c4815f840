"""The dense routines that leibxmod used before the maps of the six-term
sequence descended and restricted through one helper each, kept as a
test oracle.

_theta_matrices is the old function of leibxmod.extensions,
multiplier_functorial_map the old one of leibxmod.tensor, subalgebra_on
the old one of leibxmod.algebra, all verbatim, and inclusion the old
classmethod CrossedModule.inclusion of leibxmod.xmod as a function (cls
written CrossedModule).  Every bracket and action is one dense
contraction of a pair of vectors (LeibnizAlgebra.bracket,
LeibnizAction.act_left and act_right), every relation is tested by a
dense matrix-vector product, and every restriction to a subspace tests
membership with contains_vector and then again inside coords.  The
differential tests in test_descent.py compare the library's routines
with them.
"""

from leibxmod.algebra import LeibnizAction, LeibnizAlgebra, is_ideal
from leibxmod.extensions import Extension, _sections
from leibxmod.ratlin import RatMatrix, Subspace, kernel, unit_vec, vec_is_zero
from leibxmod.tensor import (
    exterior_square_data,
    induced_exterior_hom,
    schur_multiplier,
)
from leibxmod.xmod import CrossedModule, XModHom, check_xmod_hom


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
            amb_top[esd.qn.mn_index(a, b)] = e.total.action.act_left(pa, hb)
            amb_top[esd.qn.nm_index(b, a)] = e.total.action.act_right(hb, pa)
    A = RatMatrix.from_columns(amb_top, rows=e.total.top.dim)
    amb_base = [None] * esd.qq.ambient_dim
    for a in range(dq):
        for c in range(dq):
            v = e.total.base.bracket(s2.column(a), s2.column(c))
            amb_base[esd.qq.mn_index(a, c)] = amb_base[esd.qq.nm_index(a, c)] = v
    B = RatMatrix.from_columns(amb_base, rows=e.total.base.dim)
    # centrality makes the lifted evaluation kill the relations exactly
    for r in esd.qn.relations.basis.entries:
        if not vec_is_zero(A.mul_vec(r)):
            raise AssertionError(
                "lifted evaluation does not vanish on the top square relations")
    for r in esd.qq.relations.basis.entries:
        if not vec_is_zero(B.mul_vec(r)):
            raise AssertionError(
                "lifted evaluation does not vanish on the base square relations")
    # on the quotient, column j is the lifted evaluation of the free symbol
    theta_top = RatMatrix.from_columns([amb_top[f] for f in esd.qn.qmap.free],
                                       rows=e.total.top.dim)
    theta_base = RatMatrix.from_columns([amb_base[f] for f in esd.qq.qmap.free],
                                        rows=e.total.base.dim)
    tcols = []
    for k in range(incl_m.top_map.cols):
        v = theta_top.mul_vec(incl_m.top_map.column(k))
        if not e.kernel.top_sub.contains_vector(v):
            raise AssertionError("connecting image escapes the kernel top")
        tcols.append(e.kernel.top_sub.coords(v))
    bcols = []
    for k in range(incl_m.base_map.cols):
        v = theta_base.mul_vec(incl_m.base_map.column(k))
        if not e.kernel.base_sub.contains_vector(v):
            raise AssertionError("connecting image escapes the kernel base")
        bcols.append(e.kernel.base_sub.coords(v))
    return (RatMatrix.from_columns(tcols, rows=kxm.top.dim),
            RatMatrix.from_columns(bcols, rows=kxm.base.dim))


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
        w = top_hom.apply(u)
        if not kt_tgt.contains_vector(w):
            raise AssertionError("induced top map does not preserve the multiplier")
        tcols.append(kt_tgt.coords(w))
    bcols = []
    for u in kb_src.basis.entries:
        w = base_hom.apply(u)
        if not kb_tgt.contains_vector(w):
            raise AssertionError("induced base map does not preserve the multiplier")
        bcols.append(kb_tgt.coords(w))
    out = XModHom(m_src, m_tgt,
                  RatMatrix.from_columns(tcols, rows=m_tgt.top.dim),
                  RatMatrix.from_columns(bcols, rows=m_tgt.base.dim))
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
            b = a.bracket(x, y)
            if not s.contains_vector(b):
                raise ValueError("subspace is not bracket-closed")
            row.append(s.coords(b))
        c.append(tuple(row))
    names = tuple(f"s{i+1}" for i in range(s.dim))
    sub = LeibnizAlgebra(name, s.dim, names, tuple(c))
    incl = RatMatrix.from_columns(list(base), rows=a.dim) if base else RatMatrix.zeros(a.dim, 0)
    return sub, incl


def inclusion(q: LeibnizAlgebra, s, name=None) -> CrossedModule:
    """(n, q, i) for a two-sided ideal n = s of q with the bracket action."""
    if not is_ideal(q, s):
        raise ValueError(f"subspace is not a two-sided ideal of {q.name}")
    top, incl = subalgebra_on(q, s, name or f"{q.name}_ideal")
    left = tuple(
        tuple(s.coords(q.bracket(unit_vec(q.dim, i), incl.column(j)))
              for j in range(top.dim))
        for i in range(q.dim))
    right = tuple(
        tuple(s.coords(q.bracket(incl.column(j), unit_vec(q.dim, i)))
              for i in range(q.dim))
        for j in range(top.dim))
    action = LeibnizAction(q, top, left, right)
    return CrossedModule(name or f"({top.name},{q.name},incl)", top, q, incl, action)
