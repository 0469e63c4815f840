"""Invariants of the exact pipeline under a change of basis whose
entries have denominators 2 and 3.

Every benchmark input and fixture has integer structure constants, so
the integer twins behind the laws, the relations and the quotient maps
have denominator 1 there.  A rational change of basis gives them
denominators 2, 3 and 6, and the multiplier dimensions, hl(q, 2) and the
classification flags of an extension must not move."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from leibxmod.algebra import LeibnizAction, LeibnizAlgebra, check_leibniz
from leibxmod.extensions import Extension, classify
from leibxmod.homology import hl
from leibxmod.ratlin import RatMatrix
from leibxmod.tensor import exterior_square_data, schur_multiplier
from leibxmod.xmod import CrossedModule, XModHom, check_xmod

from _dense import from_rows
from _reference_checks import _act_left, _act_right, _bracket, _mul_vec
from helpers import central_fixture_extensions, fixture_algebras

PROPERTY = settings(derandomize=True, database=None, max_examples=20,
                    deadline=None)
HALVES_AND_THIRDS = [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3),
                     Fraction(-3, 2), Fraction(5, 6)]


def _elementary(d, i, j, lam):
    """The d x d identity with lam at (i, j), and its inverse."""
    e = [[Fraction(int(r == c)) for c in range(d)] for r in range(d)]
    einv = [row[:] for row in e]
    e[i][j] = lam
    einv[i][j] = 1 / lam if i == j else -lam
    return from_rows(e, d), from_rows(einv, d)


@st.composite
def rational_bases(draw, d):
    """(g, g^-1) for a product of elementary matrices: a scaling by 2/3
    and a transvection by 1/2 (a scaling when d = 1), then up to two more
    with entries drawn from HALVES_AND_THIRDS."""
    g = ginv = RatMatrix.identity(d)
    if not d:
        return g, ginv
    ops = [(0, 0, Fraction(2, 3)), (0, 1 % d, Fraction(1, 2))]
    for _ in range(draw(st.integers(0, 2))):
        ops.append((draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1)),
                    draw(st.sampled_from(HALVES_AND_THIRDS))))
    for i, j, lam in ops:
        e, einv = _elementary(d, i, j, lam)
        g, ginv = g.mul(e), einv.mul(ginv)
    return g, ginv


def rebased(a, basis):
    """The algebra a in the basis of the columns of g, basis = (g, g^-1)."""
    g, ginv = basis
    c = tuple(tuple(_mul_vec(ginv, _bracket(a, g.column(i), g.column(j)))
                    for j in range(a.dim)) for i in range(a.dim))
    return LeibnizAlgebra(a.name, a.dim, a.basis_names, c)


def rebased_xmod(xm, top_basis, base_basis):
    """The crossed module xm with its top and base rebased."""
    (gt, gtinv), (gb, gbinv) = top_basis, base_basis
    top, base = rebased(xm.top, top_basis), rebased(xm.base, base_basis)
    left = tuple(tuple(_mul_vec(gtinv, _act_left(xm.action, gb.column(i), gt.column(j)))
                       for j in range(top.dim)) for i in range(base.dim))
    right = tuple(tuple(_mul_vec(gtinv, _act_right(xm.action, gt.column(j), gb.column(i)))
                        for i in range(base.dim)) for j in range(top.dim))
    return CrossedModule(xm.name, top, base, gbinv.mul(xm.delta).mul(gt),
                         LeibnizAction(base, top, left, right))


@PROPERTY
@given(st.data())
def test_multiplier_and_homology_survive_a_rational_basis(data):
    a = data.draw(st.sampled_from(fixture_algebras()))
    b = rebased(a, data.draw(rational_bases(a.dim)))
    assert check_leibniz(b).valid
    xm, xb = CrossedModule.adjoint_identity(a), CrossedModule.adjoint_identity(b)
    ma, mb = schur_multiplier(xm)[0], schur_multiplier(xb)[0]
    assert (ma.top.dim, ma.base.dim) == (mb.top.dim, mb.base.dim)
    assert hl(a, 2) == hl(b, 2)


@PROPERTY
@given(st.data())
def test_crossed_module_squares_survive_rational_bases(data):
    # top and base rebased apart, so that delta, the action and the base
    # have twins with different denominators
    xm = data.draw(st.sampled_from([e.total for e in central_fixture_extensions()]))
    xb = rebased_xmod(xm, data.draw(rational_bases(xm.top.dim)),
                      data.draw(rational_bases(xm.base.dim)))
    assert check_xmod(xb).valid
    ea, eb = exterior_square_data(xm), exterior_square_data(xb)
    assert ((ea.qn.resolved.dim, ea.qq.resolved.dim)
            == (eb.qn.resolved.dim, eb.qq.resolved.dim))
    ma, mb = schur_multiplier(xm)[0], schur_multiplier(xb)[0]
    assert (ma.top.dim, ma.base.dim) == (mb.top.dim, mb.base.dim)


def test_a_rational_basis_scales_the_twins():
    # the two fixed steps of rational_bases alone give every nonabelian
    # fixture a structure-constant and action twin with denominator > 1
    for a in fixture_algebras():
        g = ginv = RatMatrix.identity(a.dim)
        for i, j, lam in ((0, 0, Fraction(2, 3)), (0, 1 % max(a.dim, 1), Fraction(1, 2))):
            e, einv = _elementary(a.dim, i, j, lam)
            g, ginv = g.mul(e), einv.mul(ginv)
        b = rebased(a, (g, ginv))
        if any(v for row in a.zst[1] for v in row):
            assert b.zst[0] > 1, a.name
            assert CrossedModule.adjoint_identity(b).action.den > 1, a.name


@PROPERTY
@given(st.data())
def test_classification_survives_a_rational_basis(data):
    e = data.draw(st.sampled_from(central_fixture_extensions()))
    total, quo = e.total, e.quotient
    bases = [data.draw(rational_bases(d))
             for d in (total.top.dim, total.base.dim, quo.top.dim, quo.base.dim)]
    total2 = rebased_xmod(total, bases[0], bases[1])
    quo2 = rebased_xmod(quo, bases[2], bases[3])
    assert check_xmod(total2).valid and check_xmod(quo2).valid
    proj = XModHom(total2, quo2, bases[2][1].mul(e.proj.top_map).mul(bases[0][0]),
                   bases[3][1].mul(e.proj.base_map).mul(bases[1][0]))
    assert classify(Extension.from_projection(proj, e.name)) == classify(e)
