"""The entries form of the two-index tables against the grid form it
replaced (_reference_grid.py).

Every law report, center, annihilator and product the library evaluates
on the entries of its tables equals the old evaluation on grids, on the
fixtures, the random corpus, the generated central extensions and
rational rebasings of them; join equals the old grid join on random
tables through both slot specs; every table the library stores or builds
is in the canonical entries form; and the shape checks that the grid
made for free raise their messages."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_grid as G
import test_rational_basis as rb
from helpers import (
    central_extension_corpus,
    central_fixture_extensions,
    fixture_algebras,
    heis3,
    n2,
    random_leibniz_corpus,
    sl2,
)
from leibxmod import cli
from leibxmod.algebra import (
    AlgebraHom,
    LeibnizAction,
    LeibnizAlgebra,
    _pairwise,
    _products,
    center,
    check_action,
    check_hom,
    check_leibniz,
    subalgebra_on,
)
from leibxmod.extensions import Extension
from leibxmod.ratlin import RatMatrix, join
from leibxmod.tensor import exterior_square_data, schur_multiplier
from leibxmod.xmod import CrossedModule, XModHom, check_xmod, check_xmod_hom, liezation

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)


def _rebasings():
    """Each fixture algebra and each central fixture extension's total in
    the basis of the two fixed elementary steps of rational_bases: twins
    with denominators 2, 3 and 6."""
    def basis(d):
        g = ginv = RatMatrix.identity(d)
        for i, j, lam in ((0, 0, Fraction(2, 3)), (0, 1 % max(d, 1), Fraction(1, 2))):
            if d:
                e, einv = rb._elementary(d, i, j, lam)
                g, ginv = g.mul(e), einv.mul(ginv)
        return g, ginv
    out = [CrossedModule.adjoint_identity(rb.rebased(a, basis(a.dim))) for a in fixture_algebras()]
    return out + [rb.rebased_xmod(e.total, basis(e.total.top.dim), basis(e.total.base.dim))
                  for e in central_fixture_extensions()]


def _corpus():
    """(crossed modules, crossed module maps): the loadable .xmod and .hom
    fixtures and the fixtures' extensions, (q, q, id) and (Z(q), q, incl)
    of the fixture algebras and of random_leibniz_corpus, the totals,
    quotients and projections of central_extension_corpus(0), and the
    rational rebasings."""
    xms, homs = [], []
    for p in sorted(FIXTURES.iterdir()):
        try:
            obj = cli.load_fixture(p)
        except cli.FixtureError:
            continue
        if isinstance(obj, CrossedModule):
            xms.append(obj)
        elif isinstance(obj, XModHom):
            homs.append(obj)
    for q in fixture_algebras() + random_leibniz_corpus():
        xms += [CrossedModule.adjoint_identity(q), CrossedModule.inclusion(q, center(q))]
    for e in central_fixture_extensions() + central_extension_corpus(0):
        xms += [e.total, e.quotient]
        homs.append(e.proj)
    return xms + _rebasings(), homs


def _same(got, expect):
    assert got == expect
    assert got.summary() == expect.summary()


def test_every_law_report_matches_the_grid_oracle():
    xms, homs = _corpus()
    for xm in xms:
        for a in (xm.top, xm.base):
            _same(check_leibniz(a), G.check_leibniz(a))
            f = AlgebraHom(a, a, RatMatrix.identity(a.dim))
            _same(check_hom(f), G.check_hom(f))
        _same(check_action(xm.action), G.check_action(xm.action))
        _same(check_xmod(xm), G.check_xmod(xm))
        homs.append(XModHom.identity(xm))
    for f in homs:
        for g in (AlgebraHom(f.source.top, f.target.top, f.top_map),
                  AlgebraHom(f.source.base, f.target.base, f.base_map)):
            _same(check_hom(g), G.check_hom(g))
        _same(check_xmod_hom(f), G.check_xmod_hom(f))


def test_centers_and_products_match_the_grid_oracle():
    xms, _ = _corpus()
    for xm in xms:
        z, zg = xm.center, G.center_xmod(xm)
        assert (z.top_sub, z.base_sub) == (zg.top_sub, zg.base_sub), xm.name
        for a in (xm.top, xm.base):
            assert center(a) == G.center(a), a.name
            den, st, st_t = G.grids(a)
            us, vs = center(a).zbasis, _full(a.dim)
            assert sorted(_products(vs, a.zst, ".r")) == sorted(G._products(vs, (den, st_t)))
            assert sorted(_products(vs, a.zst, "r.")) == sorted(G._products(vs, (den, st)))
            assert sorted(_pairwise(a.zst, vs, us)) == sorted(G._pairwise((den, st_t), vs, us))
            assert sorted(_pairwise(a.zst, vs, vs)) == sorted(G._pairwise((den, st_t), vs, vs))
        act, (L, R, Lt, Rt) = xm.action, G.action_grids(xm.action)
        bs, ts = _full(xm.base.dim), _full(xm.top.dim)
        for got, expect in (((bs, (act.den, act.sl), ".r"), (bs, Lt)),
                            ((bs, (act.den, act.sr), "r."), (bs, R)),
                            ((ts, (act.den, act.sl), "r."), (ts, L)),
                            ((ts, (act.den, act.sr), ".r"), (ts, Rt))):
            assert sorted(_products(*got)) == sorted(G._products(*expect)), xm.name
        assert (sorted(_pairwise((act.den, act.sl), bs, ts))
                == sorted(G._pairwise(Lt, bs, ts))), xm.name
        assert (sorted(_pairwise((act.den, act.sr), ts, bs))
                == sorted(G._pairwise(Rt, ts, bs))), xm.name


def _full(d: int) -> tuple:
    """The integer twin of the unit vectors of QQ^d."""
    return 1, tuple(((i, 1),) for i in range(d))


# -- join on random tables, through both slot specs -----------------------------------

@st.composite
def _vectors(draw, dim):
    """A sparse int vector of QQ^dim, nonzero values at increasing indices."""
    ks = draw(st.lists(st.integers(0, dim - 1), max_size=dim, unique=True)) if dim else []
    return tuple((k, draw(st.integers(-4, 4).filter(bool))) for k in sorted(ks))


@st.composite
def _grids(draw, rows, cols, dim):
    return tuple(tuple(draw(_vectors(dim)) for _ in range(cols)) for _ in range(rows))


@st.composite
def _terms(draw):
    """One to three terms over random int tables (no law need hold): x a
    table or a tuple of vectors, y a table read at a random slot or a
    tuple of vectors, each twin at a random denominator; the terms in the
    entries form and in the old grid form."""
    p, q, l, r, k = (draw(st.integers(0, 3)) for _ in range(5))
    new, old = [], []
    for _ in range(draw(st.integers(1, 3))):
        c, dx, dy = draw(st.integers(-3, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
        if draw(st.booleans()):
            x = draw(_grids(p, q, l))
            xn, xo, xs, key = G.entries(x), x, "pq", "pqr"
        else:
            xn = xo = draw(_grids(1, p, l))[0]
            xs, key = "p", ("p", 1, "r")
        slot = draw(st.sampled_from(["r.", ".r", ""]))
        if slot:
            y = draw(_grids(r, l, k))  # y[r][l], the old form
            yn = G.entries(y) if slot == "r." else G.entries(G.transposed(y, l))
            new.append((key, c, (dx, xn), xs, (dy, yn), slot))
            old.append((key, c, (dx, xo), xs, (dy, y), "r"))
        else:
            y = draw(_grids(1, l, k))[0]
            new.append((key[:-1], c, (dx, xn), xs, (dy, y), ""))
            old.append((key[:-1], c, (dx, xo), xs, (dy, y), ""))
    return new, old


@PROPERTY
@given(_terms())
def test_join_matches_the_grid_join_through_both_slots(terms):
    new, old = terms
    assert join(new) == G.join(old)


# -- the canonical entries form -------------------------------------------------------

def _canonical(entries, n: int, m: int, d: int) -> None:
    """Sorted by key, keys unique and in range, and every vector nonempty,
    sorted by index in range, with nonzero int values."""
    keys = [key for key, _ in entries]
    assert keys == sorted(set(keys))
    assert all(0 <= i < n and 0 <= j < m for i, j in keys)
    for _, v in entries:
        assert v and [k for k, _ in v] == sorted({k for k, _ in v})
        assert all(0 <= k < d and type(t) is int and t for k, t in v)


def _check_canonical(obj) -> None:
    """Every table twin held by obj, or by the objects it is built on."""
    if isinstance(obj, LeibnizAlgebra):
        _canonical(obj.zst[1], obj.dim, obj.dim, obj.dim)
    elif isinstance(obj, LeibnizAction):
        dm, dn = obj.actor.dim, obj.acted.dim
        _canonical(obj.sl, dm, dn, dn)
        _canonical(obj.sr, dn, dm, dn)
        _check_canonical(obj.actor)
        _check_canonical(obj.acted)
    elif isinstance(obj, CrossedModule):
        _check_canonical(obj.action)
    elif isinstance(obj, (AlgebraHom, XModHom)):
        _check_canonical(obj.source)
        _check_canonical(obj.target)
    elif isinstance(obj, Extension):
        _check_canonical(obj.proj)


def test_every_stored_and_built_table_is_canonical_entries():
    objs = []
    for p in sorted(FIXTURES.iterdir()):
        try:
            objs.append(cli.load_fixture(p))
        except cli.FixtureError:
            pass
    for q in fixture_algebras() + random_leibniz_corpus(4):
        xm = CrossedModule.adjoint_identity(q)
        objs += [xm, CrossedModule.inclusion(q, center(q)), xm.abelianization[0],
                 subalgebra_on(q, xm.derived.base_sub, "d")[0], liezation(xm)[0]]
    objs += central_fixture_extensions()
    for xm in [o for o in objs if isinstance(o, CrossedModule)]:
        esd = exterior_square_data(xm)
        objs += [esd.induced_xmod, esd.action, esd.phi, schur_multiplier(xm)[0]]
    for obj in objs:
        _check_canonical(obj)
    assert LeibnizAlgebra.abelian("a", 3).zst == (1, ())
    triv = LeibnizAction.trivial(sl2(), n2())
    assert triv.sl == triv.sr == ()


# -- the shape checks -----------------------------------------------------------------

def _zero(d):
    return (Fraction(0),) * d


@pytest.mark.parametrize("c", [
    (((_zero(2), _zero(2)), (_zero(2),))),  # a short row
    ((_zero(2), _zero(2)),),  # a missing row
])
def test_a_dense_table_of_the_wrong_shape_is_refused(c):
    with pytest.raises(ValueError, match="^structure table shape mismatch$"):
        LeibnizAlgebra("a", 2, ("x", "y"), c)


@pytest.mark.parametrize("side, left, right", [
    ("left", ((_zero(2),),), ((_zero(2),), (_zero(2),))),  # a short row
    ("left", (), ((_zero(2),), (_zero(2),))),  # a missing row
    ("right", ((_zero(2), _zero(2)),), ((_zero(2),), ())),  # a short row
    ("right", ((_zero(2), _zero(2)),), ((_zero(2),),)),  # a missing row
])
def test_a_dense_action_of_the_wrong_shape_is_refused(side, left, right):
    actor, acted = LeibnizAlgebra.abelian("m", 1), n2()
    with pytest.raises(ValueError, match=f"^{side} action table shape mismatch$"):
        LeibnizAction(actor, acted, left, right)


M, N = LeibnizAlgebra.abelian("m", 1), heis3()
ONE = ((0, 1),)


@pytest.mark.parametrize("message, build", [
    ("structure table", lambda k: LeibnizAlgebra.from_sparse("a", ("x", "y"), (1, ((k, ONE),)))),
    ("left action table", lambda k: LeibnizAction.from_sparse(M, N, 1, ((k, ONE),), ())),
    ("right action table",
     lambda k: LeibnizAction.from_sparse(M, N, 1, (), (((k[1], k[0]), ONE),))),
])
@pytest.mark.parametrize("key", [(2, 0), (0, 3), (-1, 0), (0, -1)])
def test_entries_out_of_range_are_refused(message, build, key):
    # (2, 0) leaves every table's first range, (0, 3) every second one
    with pytest.raises(ValueError, match=f"^{message} shape mismatch$"):
        build(key)
