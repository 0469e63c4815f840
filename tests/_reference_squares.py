"""The full evaluations the squares skip over a base with the identity.

Where the first crossed module of a square is an adjoint identity, five
families of the squares repeat work done elsewhere, and the library reads
them off it (see the docstrings of tensor._glue, _build_presentation,
_well_defined, CrossedModule.center and ExteriorSquareData.multiplier).
These are the evaluations it made before, kept as oracles: the glue's
pullback as the kernel of [eta.delta | -delta.delta], the relations with
the agreement rows, well-definedness tested on both blocks, the center's
base part as an annihilator of its own, and the multiplier's four laws
each evaluated.
"""

from leibxmod.algebra import LeibnizAction, LeibnizAlgebra, _pairwise, annihilator
from leibxmod.ratlin import (
    RatMatrix,
    Subspace,
    _image,
    _images,
    _restriction,
    _row,
    _scaled,
    kernel,
)
from leibxmod.tensor import MutualActionPair, _action_rows, _cross, _pair_basis, _pair_parts
from leibxmod.xmod import CrossedModule, SubPair, XModHom, check_xmod_hom


def glue(eta: CrossedModule, delta: CrossedModule) -> list:
    """u * v' - v *' u' over the pairs of a basis of the pullback, the
    kernel of [eta.delta | -delta.delta], whatever eta.delta is."""
    m, n = eta.top, delta.top
    (de, ce), (dd, cd) = eta.delta.zcols, delta.delta.zcols
    pullback = kernel(RatMatrix.from_sparse(eta.base.dim, (de * dd, tuple(
        [_scaled(v, dd) for v in ce] + [_scaled(v, -de) for v in cd]))))
    pairs = [_pair_parts(m.dim, w) for w in pullback.zrows]
    return _cross(m.dim, n.dim, pairs, pairs, -1)


def agreement_rows(pair: MutualActionPair) -> list:
    """The agreement rows on pairs of basis vectors of den W, whatever the
    sides of the presentation."""
    basis = pair.evaluation_basis
    return [r for r in _cross(pair.m.dim, pair.n.dim, basis, basis, -1) if r]


def exterior_relations(eta: CrossedModule, delta: CrossedModule) -> Subspace:
    """The relations of exterior_presentation(eta, delta): the action rows
    it takes, the agreement rows whatever the sides, and the kernel glue."""
    pair = MutualActionPair.from_shared_base(eta, delta)
    same = ((eta.top, eta.delta, eta.action) == (delta.top, delta.delta, delta.action)
            and pair.m_on_n == pair.m.adjoint)
    rows = _action_rows(pair, 1 if same else 2) + agreement_rows(pair) + glue(eta, delta)
    return Subspace.from_integer_rows(2 * pair.m.dim * pair.n.dim, rows)


def well_defined(pair: MutualActionPair, qmap) -> bool:
    """The factored test on both blocks: [r, e_s] for every s, and [e_s, r]
    for s in block 0 and in block 1 (see tensor._well_defined)."""
    dm, dn = pair.m.dim, pair.n.dim
    half = dm * dn
    ev, none = pair.zevaluations[1], ((),) * half
    lcols = (ev[0][:half] + none, none + ev[1][half:])
    ls = [(_row(_image(r, lcols[0])), _row(_image(r, lcols[1]))) for r in qmap.relations.zrows]
    gs = [(_row(_image(r, ev[0])), _row(_image(r, ev[1]))) for r in qmap.relations.zrows]
    tests = _cross(dm, dn, _pair_basis(dm, dn, ls), pair.evaluation_basis)
    for t, du, dv in ((0, dm, dn), (1, dn, dm)):
        us = Subspace.from_integer_rows(du, ev[t][t * half:][:half]).zrows
        if us:
            vs = Subspace.from_integer_rows(dv, [g[1 - t] for g in gs]).zrows
            tests += _cross(dm, dn, [((u, ()), ((), u))[t] for u in us],
                            [((v, ()), ((), v))[1 - t] for v in vs])
    return all(qmap.kills(r) for r in tests)


def center(xm: CrossedModule) -> SubPair:
    """(n^q, st_q(n) & Z(q)), each part its own annihilator."""
    act, q = xm.action, xm.base
    return SubPair(xm, annihilator(xm.top.dim, ((act.sl, "r."), (act.sr, ".r"))),
                   annihilator(q.dim, ((act.sl, ".r"), (act.sr, "r."),
                                       (q.zst[1], ".r"), (q.zst[1], "r."))))


def multiplier(esd) -> "tuple[CrossedModule, XModHom]":
    """The multiplier of the squares esd with its inclusion, the top, base
    and both action laws each evaluated as its own product."""
    name = esd.phi.target.name
    kt, kb = kernel(esd.lambda_n.matrix), kernel(esd.mu_q.matrix)
    kts, kbs, act = kt.zbasis, kb.zbasis, esd.action
    if _pairwise(esd.qn.resolved.zst, kts, kts):
        raise AssertionError("multiplier top is not abelian")
    if _pairwise(esd.qq.resolved.zst, kbs, kbs):
        raise AssertionError("multiplier base is not abelian")
    dcols = _restriction(kb, _images(esd.id_wedge_delta.matrix.zcols, kts))
    if dcols is None:
        raise AssertionError("connecting map does not restrict to the multiplier")
    if _pairwise((act.den, act.sl), kbs, kts) or _pairwise((act.den, act.sr), kts, kbs):
        raise AssertionError("multiplier action is not trivial")
    top = LeibnizAlgebra.abelian(f"M({name}).top", kt.dim,
                                 tuple(f"a{i+1}" for i in range(kt.dim)))
    base = LeibnizAlgebra.abelian(f"M({name}).base", kb.dim,
                                  tuple(f"b{i+1}" for i in range(kb.dim)))
    mult = CrossedModule(f"M({name})", top, base, RatMatrix.from_sparse(kb.dim, dcols),
                         LeibnizAction.trivial(base, top))
    incl = XModHom(mult, esd.induced_xmod, RatMatrix.from_sparse(kt.ambient_dim, kts),
                   RatMatrix.from_sparse(kb.ambient_dim, kbs))
    irep = check_xmod_hom(incl)
    if not irep.valid:
        raise AssertionError(
            f"multiplier inclusion is not a crossed module map:\n{irep.summary()}")
    return mult, incl
