"""Tensor/exterior products of mutually acting algebras and the multiplier."""

import dataclasses
import json
from fractions import Fraction
from fractions import Fraction as QQ
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import _reference_bracket as ref_bracket
from _dense import from_rows, integer_entries, unit_vec
from _reference_checks import _mul_vec, contract
import _reference_quotient as ref_quotient
from _reference_quotient import contains_vector, project
from leibxmod import algebra, cli, tensor
from leibxmod.algebra import (
    AlgebraHom,
    LeibnizAction,
    LeibnizAlgebra,
    center,
    check_leibniz,
)
from _reference_grid import entries
from leibxmod.homology import hl
from leibxmod.ratlin import (
    RatMatrix,
    Subspace,
    _plus,
    dense,
    integer_view,
    kernel,
    rank,
    sparse,
    sparse_table,
)
from leibxmod.tensor import (
    MutualActionPair,
    exterior_presentation,
    exterior_square_data,
    induced_exterior_hom,
    multiplier_functorial_map,
    one_leg_span,
    schur_multiplier,
)
from leibxmod.xmod import (
    CrossedModule,
    XModHom,
    center_xmod,
    check_xmod,
    check_xmod_hom,
    liezation,
)

from helpers import (
    bracket_table,
    central_fixture_extensions,
    count_law_evaluations,
    direction,
    fixture_algebras,
    heis3,
    k_abelian,
    n2,
    quotient_basis_lifts,
    r2_nonlie,
    random_leibniz_corpus,
    renamed_adjoint_identity,
    representatives,
    sl2,
    sol2_lie,
    zero_over,
)
from test_checks import PROPERTY, tables, vectors
from test_rational_basis import rational_bases, rebased

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def adjoint_pair(a):
    ad = LeibnizAction.adjoint(a)
    return MutualActionPair(a, a, ad, ad)


def abelian_module(top_dim, base_dim, sigma_rows, name="ab"):
    """Any linear map between abelian algebras with the trivial action."""
    top = LeibnizAlgebra.abelian(f"{name}.top", top_dim)
    base = LeibnizAlgebra.abelian(f"{name}.base", base_dim)
    sigma = from_rows(sigma_rows, cols=top_dim)
    return CrossedModule(name, top, base, sigma, LeibnizAction.trivial(base, top))


# -- pair construction ---------------------------------------------------------

def test_pair_rejects_mismatched_actions():
    a, b = n2(), k_abelian(2)
    with pytest.raises(ValueError):
        MutualActionPair(a, b, LeibnizAction.adjoint(a), LeibnizAction.adjoint(b))


def test_shared_base_requires_common_base():
    with pytest.raises(ValueError):
        MutualActionPair.from_shared_base(
            CrossedModule.adjoint_identity(n2()),
            CrossedModule.adjoint_identity(sl2()))


def tensor_product(pair):
    """The tensor product of a mutual action pair: no glue rows."""
    return tensor._build_presentation(pair, (), f"{pair.m.name}(x){pair.n.name}")


def test_tensor_rejects_invalid_action():
    # adjoint left with a zeroed right half breaks the first axiom on sl2
    a = sl2()
    ad = LeibnizAction.adjoint(a)
    z = (QQ(0),) * 3
    broken = LeibnizAction(a, a, ad.left, tuple(tuple(z for _ in range(3))
                                                for _ in range(3)))
    with pytest.raises(ValueError):
        tensor_product(MutualActionPair(a, a, broken, broken))


# -- tensor product ------------------------------------------------------------

def test_tensor_n2_adjoint():
    t = tensor_product(adjoint_pair(n2()))
    assert t.ambient_dim == 8
    assert t.relations.dim == 5
    assert t.resolved.dim == 3
    assert t.resolved.basis_names == ("e1*e1", "e1*e1", "e2*e1")
    # the class of the symbol of block s at (x, y)
    cls = lambda s, x, y: project(t.qmap, unit_vec(8, tensor._index(2, 2, s, x, y)))
    # e2 legs against e2 die; the two mixed symbols are identified
    zero = (QQ(0),) * 3
    for s, x, y in ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)):
        assert cls(s, x, y) == zero
    assert cls(0, 1, 0) == cls(1, 1, 0)
    assert cls(0, 0, 0) != cls(1, 0, 0)


def test_tensor_representative_consistency():
    for pair in (adjoint_pair(n2()), adjoint_pair(sl2())):
        t = tensor_product(pair)
        for i in range(t.ambient_dim):
            for j in range(t.ambient_dim):
                primary, alt = representatives(t, i, j)
                assert project(t.qmap, primary) == project(t.qmap, alt)


def test_tensor_bracket_well_defined_on_classes():
    t = tensor_product(adjoint_pair(n2()))
    for r in t.relations.basis.entries:
        for s in range(t.ambient_dim):
            e = unit_vec(t.ambient_dim, s)
            assert contains_vector(t.relations, contract(bracket_table(t), r, e, t.ambient_dim))
            assert contains_vector(t.relations, contract(bracket_table(t), e, r, t.ambient_dim))


def test_well_definedness_spans_each_projection_of_the_relations_once(monkeypatch):
    # on the squares of (sl2, sl2, id): the basis of L(R), the two spans of
    # the evaluations and the two projections of G(R), each once (a
    # projection spanned again for every basis vector it was paired with
    # made nine)
    real_span, real_test, inside, spans = Subspace.from_integer_rows, tensor._well_defined, [], []

    def span(*args, **kwargs):
        spans.extend(inside)
        return real_span(*args, **kwargs)

    def well_defined(pair, qmap):
        inside.append(1)
        try:
            return real_test(pair, qmap)
        finally:
            inside.pop()

    monkeypatch.setattr(Subspace, "from_integer_rows", span)
    monkeypatch.setattr(tensor, "_well_defined", well_defined)
    exterior_square_data(cli.load_fixture(FIXTURES / "sl2_id.xmod"))
    assert len(spans) == 5


def test_tensor_resolved_matches_ambient_bracket():
    t = tensor_product(adjoint_pair(n2()))
    sec = quotient_basis_lifts(t)
    assert len(sec) == t.resolved.dim
    for i in range(t.resolved.dim):
        for j in range(t.resolved.dim):
            assert t.resolved.c[i][j] == project(
                t.qmap, contract(bracket_table(t), sec[i], sec[j], t.ambient_dim))
    assert check_leibniz(t.resolved).valid


def test_symbol_maps_are_bilinear():
    t = tensor_product(adjoint_pair(n2()))
    u, v = (QQ(2), QQ(-1)), (QQ(1), QQ(3))
    by_parts = [QQ(0)] * 8
    for a, ca in enumerate(u):
        for b, cb in enumerate(v):
            by_parts[tensor._index(2, 2, 0, a, b)] += ca * cb
    symbol = tensor._symbols(2, 2, ((1, 0, sparse(u), sparse(v)),))
    assert dense(symbol.items(), t.ambient_dim) == tuple(by_parts)


# -- glue subspace and exterior product ----------------------------------------

def test_square_subspace_requires_shared_base():
    # the mutual actions, and so the exterior product, need one base
    eta, delta = CrossedModule.adjoint_identity(n2()), CrossedModule.adjoint_identity(sl2())
    with pytest.raises(ValueError):
        MutualActionPair.from_shared_base(eta, delta)
    with pytest.raises(ValueError):
        exterior_presentation(eta, delta)


def test_square_subspace_n2():
    # the span of the glue generators, as the old glue subspace built it
    qid = CrossedModule.adjoint_identity(n2())
    box = Subspace.from_integer_rows(8, tensor._glue(qid, qid))
    assert box == ref_quotient.square_subspace(qid, qid)
    # pullback is the diagonal, so one generator per ordered basis pair
    assert box.dim == 4
    u = lambda i: unit_vec(8, i)
    diff = tuple(x - y for x, y in zip(u(0), u(4)))
    assert contains_vector(box, diff)


def test_exterior_square_n2():
    esd = exterior_square_data(CrossedModule.adjoint_identity(n2()))
    qn, qq = esd.qn, esd.qq
    assert qn.resolved.dim == 2 and qq.resolved.dim == 2
    assert qn.resolved.basis_names == ("e1*e1", "e2*e1")
    assert qq.resolved.basis_names == ("e1*e1", "e2*e1")
    # the square of this algebra is abelian
    zero = (QQ(0),) * 2
    assert all(v == zero for row in qq.resolved.c for v in row)
    cls = lambda s, x, y: project(qq.qmap, unit_vec(8, tensor._index(2, 2, s, x, y)))
    assert cls(0, 0, 0) == cls(1, 0, 0)
    assert cls(0, 0, 0) != zero
    assert cls(0, 0, 1) == zero
    assert cls(0, 1, 1) == zero
    # evaluation sends e1*e1 to [e1,e1] = e2 and e2*e1 to 0
    assert _mul_vec(esd.mu_q.matrix, unit_vec(2, 0)) == (QQ(0), QQ(1))
    assert _mul_vec(esd.mu_q.matrix, unit_vec(2, 1)) == (QQ(0), QQ(0))
    assert _mul_vec(esd.lambda_n.matrix, unit_vec(2, 0)) == (QQ(0), QQ(1))
    assert _mul_vec(esd.lambda_n.matrix, unit_vec(2, 1)) == (QQ(0), QQ(0))
    # delta is the identity here, so the connecting map is too
    assert esd.id_wedge_delta.matrix == RatMatrix.identity(2)


def test_exterior_square_is_crossed_module_with_central_kernel():
    for a in (n2(), heis3(), sl2()):
        esd = exterior_square_data(CrossedModule.adjoint_identity(a))
        assert check_xmod(esd.induced_xmod).valid
        assert check_xmod_hom(esd.phi).valid
        z = center_xmod(esd.induced_xmod)
        assert z.top_sub.contains_subspace(kernel(esd.lambda_n.matrix))
        assert z.base_sub.contains_subspace(kernel(esd.mu_q.matrix))


def test_exterior_of_center_inclusion_in_heis3():
    h = heis3()
    eta = CrossedModule.inclusion(h, center(h))
    delta = CrossedModule.adjoint_identity(h)
    pres = exterior_presentation(eta, delta)
    assert pres.resolved.dim == 4
    assert pres.resolved.basis_names == ("s1*x", "s1*y", "x*s1", "y*s1")
    full = one_leg_span(pres, Subspace.full(1), Subspace.full(3))
    assert full.dim == pres.resolved.dim
    none = one_leg_span(pres, Subspace.zero(1), Subspace.zero(3))
    assert none.dim == 0


# -- multiplier ----------------------------------------------------------------

def test_multiplier_n2():
    xm = CrossedModule.adjoint_identity(n2())
    mult, incl = schur_multiplier(xm)
    assert (mult.top.dim, mult.base.dim) == (1, 1)
    assert mult.delta == RatMatrix.identity(1)
    assert check_xmod(mult).valid
    assert check_xmod_hom(incl).valid
    # both kernels are spanned by the class of e2*e1
    esd = exterior_square_data(xm)
    assert kernel(esd.lambda_n.matrix).basis.entries == ((QQ(0), QQ(1)),)
    assert kernel(esd.mu_q.matrix).basis.entries == ((QQ(0), QQ(1)),)


def test_multiplier_sl2_vanishes():
    xm = CrossedModule.adjoint_identity(sl2())
    mult, _ = schur_multiplier(xm)
    assert (mult.top.dim, mult.base.dim) == (0, 0)
    esd = exterior_square_data(xm)
    assert esd.qq.resolved.dim == 3
    assert rank(esd.mu_q.matrix) == 3


def test_multiplier_heis3():
    mult, _ = schur_multiplier(CrossedModule.adjoint_identity(heis3()))
    assert (mult.top.dim, mult.base.dim) == (5, 5)


def test_multiplier_of_zero_over_line():
    zero = LeibnizAlgebra.abelian("0", 0)
    k = k_abelian(1)
    xm = CrossedModule("(0,K,i)", zero, k, RatMatrix.zeros(1, 0),
                       LeibnizAction.trivial(k, zero))
    mult, _ = schur_multiplier(xm)
    assert (mult.top.dim, mult.base.dim) == (0, 1)
    esd = exterior_square_data(xm)
    assert esd.qn.resolved.dim == 0
    assert esd.qq.resolved.dim == 1


def test_multiplier_of_abelian_module_is_whole_square():
    # trivial action and zero brackets kill both evaluation maps, so the
    # multiplier is the full pair of squares and keeps the connecting map
    xm = abelian_module(2, 1, [[1, 0]])
    esd = exterior_square_data(xm)
    assert esd.lambda_n.matrix.is_zero()
    assert esd.mu_q.matrix.is_zero()
    mult, _ = schur_multiplier(xm)
    assert mult.top.dim == esd.qn.resolved.dim == 1
    assert mult.base.dim == esd.qq.resolved.dim == 1
    assert mult.delta == esd.id_wedge_delta.matrix


def test_multiplier_base_size_matches_homology_oracle():
    # two independent routes: kernel of the square evaluation against the
    # rank computation in the chain complex
    algebras = fixture_algebras() + random_leibniz_corpus()
    for q in algebras:
        esd = exterior_square_data(CrossedModule.adjoint_identity(q))
        assert kernel(esd.mu_q.matrix).dim == hl(q, 2), q.name


# -- functoriality -------------------------------------------------------------

def test_induced_hom_identity():
    xm = CrossedModule.adjoint_identity(n2())
    th, bh = induced_exterior_hom(XModHom.identity(xm))
    assert th.matrix == RatMatrix.identity(2)
    assert bh.matrix == RatMatrix.identity(2)


def test_induced_hom_requires_surjective():
    zero = LeibnizAlgebra.abelian("0", 0)
    k = k_abelian(1)
    xm = CrossedModule("(0,K,i)", zero, k, RatMatrix.zeros(1, 0),
                       LeibnizAction.trivial(k, zero))
    not_onto = XModHom(xm, xm, RatMatrix.zeros(0, 0), RatMatrix.zeros(1, 1))
    with pytest.raises(ValueError):
        induced_exterior_hom(not_onto)


def test_induced_hom_of_lie_projection():
    xm = CrossedModule.adjoint_identity(n2())
    _, proj = liezation(xm)
    th, bh = induced_exterior_hom(proj)
    # e1*e1 survives, e2*e1 maps to zero since e2 spans the kernel
    assert th.matrix.entries == ((QQ(1), QQ(0)),)
    assert bh.matrix.entries == ((QQ(1), QQ(0)),)
    assert kernel(bh.matrix).basis.entries == ((QQ(0), QQ(1)),)


def test_multiplier_map_identity_and_projection():
    xm = CrossedModule.adjoint_identity(n2())
    mid = multiplier_functorial_map(XModHom.identity(xm))
    assert mid.top_map == RatMatrix.identity(1)
    assert mid.base_map == RatMatrix.identity(1)
    lz, proj = liezation(xm)
    mlz, _ = schur_multiplier(lz)
    assert (mlz.top.dim, mlz.base.dim) == (1, 1)
    mp = multiplier_functorial_map(proj)
    assert mp.top_map.is_zero() and mp.base_map.is_zero()
    assert mp.target is mlz


@PROPERTY
@given(st.data())
def test_vanishes_matches_every_pairwise_contraction(data):
    # the pairwise product behind the multiplier's abelian and
    # trivial-action checks: one join over the sparse bases against a
    # dense contraction per pair, value for value up to a positive scale
    d1, d2, d3 = (data.draw(st.integers(0, 3)) for _ in range(3))
    table = data.draw(tables(d1, d2, d3))
    view = sparse_table(table)
    us = [data.draw(vectors(d1)) for _ in range(data.draw(st.integers(0, 3)))]
    vs = [data.draw(vectors(d2)) for _ in range(data.draw(st.integers(0, 3)))]
    expect = [contract(table, u, v, d3) for u in us for v in vs]
    got = algebra._pairwise(integer_view(view),
                            integer_view([sparse(u) for u in us], 1),
                            integer_view([sparse(v) for v in vs], 1))
    assert (not got) == all(not any(w) for w in expect)
    assert (sorted(map(direction, got))
            == sorted(direction(integer_entries(w)[1]) for w in expect if any(w)))


def test_pairwise_drops_values_that_cancel():
    # f(e1 + e2, e1 + e2) = f(e1, e1) + f(e2, e2) = 0 is reached by two
    # nonzero products, and a value that cancels is not a nonzero value
    one, z = (QQ(1),), (QQ(0),)
    view = sparse_table(((one, z), (z, (QQ(-1),))))
    u = integer_view([sparse((QQ(1), QQ(1)))], 1)
    assert algebra._pairwise(integer_view(view), u, u) == []


def test_presentation_builds_no_representative_table(monkeypatch):
    # the sweep and the agreement rows run on the evaluation spans; the
    # full table is built only to name a failure
    real = tensor._representatives

    def refuse(pair):
        raise AssertionError("representative table built")

    monkeypatch.setattr(tensor, "_representatives", refuse)
    pres = tensor._build_presentation(adjoint_pair(sl2()), [], "probe")
    monkeypatch.setattr(tensor, "_representatives", real)
    assert pres.resolved.zst == ref_bracket.resolved_table(pres)


def test_views_built_from_sparse_images_equal_the_views_of_the_tables():
    # the resolved squares, the actions on them and the multiplier are
    # built from integer twins; their dense views give back the same sparse
    # views, and objects rebuilt from them, equal and with equal hashes
    for xm in (CrossedModule.adjoint_identity(n2()),
               CrossedModule.adjoint_identity(heis3()),
               CrossedModule.adjoint_identity(sl2()), zero_over(n2())):
        esd = exterior_square_data(xm)
        mult, _ = schur_multiplier(xm)
        for a in (esd.qn.resolved, esd.qq.resolved, mult.top, mult.base):
            assert _divided(*a.zst) == sparse_table(a.c)
            fresh = LeibnizAlgebra(a.name, a.dim, a.basis_names, a.c)
            assert a == fresh and hash(a) == hash(fresh)
        for act in (esd.action, mult.action):
            assert _divided(act.den, act.sl) == sparse_table(act.left)
            assert _divided(act.den, act.sr) == sparse_table(act.right)
            fresh = LeibnizAction(act.actor, act.acted, act.left, act.right)
            assert act == fresh and hash(act) == hash(fresh)


def _divided(den, view):
    """The Fraction entries of the int entries view of an integer twin."""
    return tuple((key, tuple((k, Fraction(t, den)) for k, t in v)) for key, v in view)


# -- failure paths -------------------------------------------------------------
# Each runtime assertion below is reached through a deliberately broken
# input or a perturbed ambient map; the messages are pinned exactly.

def _raises_exactly(message, f, *args):
    with pytest.raises(AssertionError) as err:
        f(*args)
    assert str(err.value) == message


def test_sweep_reports_relation_times_symbol():
    # e_12 is not a relation, and a relation row it brings in, bracketed
    # with symbol 2 on the right, leaves the enlarged subspace
    _raises_exactly(
        "bracket of probe not well-defined: relation * symbol 2 escapes "
        "the relation subspace",
        tensor._build_presentation, adjoint_pair(sl2()), [((12, 1),)], "probe")


def test_sweep_reports_symbol_times_relation(monkeypatch):
    # with no defining rows the relations are the span of e_0 and e_3, and
    # the sweep's first failure is symbol 4 times a relation
    monkeypatch.setattr(tensor, "_action_rows", lambda pair, sides: [])
    monkeypatch.setattr(tensor, "_agreement_rows", lambda pair: [])
    _raises_exactly(
        "bracket of probe not well-defined: symbol 4 * relation escapes "
        "the relation subspace",
        tensor._build_presentation, adjoint_pair(n2()), [((0, 1),), ((3, 1),)],
        "probe")


def test_sweep_reports_a_failure_the_scan_does_not_name(monkeypatch):
    # the factored test and the per-symbol scan must agree; when only the
    # factored test fails, that disagreement is the failure
    monkeypatch.setattr(tensor, "_well_defined", lambda pair, qmap: False)
    _raises_exactly(
        "bracket of probe fails the factored well-definedness test, but the "
        "scan finds no relation and symbol that escape the relation subspace",
        tensor._build_presentation, adjoint_pair(n2()), [], "probe")


@pytest.mark.parametrize("failing, message", [
    (1, "multiplier top is not abelian"),
    (2, "multiplier base is not abelian"),
    (3, "multiplier action is not trivial"),
    (4, "multiplier action is not trivial"),
])
def test_multiplier_reports_each_law(monkeypatch, failing, message):
    # the checks run top, base, left action, right action; the given one fails
    calls = []

    def pairwise(*args):
        calls.append(args)
        return [((0, 1),)] if len(calls) == failing else []

    monkeypatch.setattr(tensor, "_pairwise", pairwise)
    # a new crossed module, so its multiplier is computed afresh
    _raises_exactly(message, schur_multiplier, CrossedModule.adjoint_identity(n2()))


@pytest.mark.parametrize("side, message", [
    (0, "lambda(^p t) != ^p lambda(t) on n2(^)n2 at p = e1"),
    (1, "lambda(t^p) != lambda(t)^p on n2(^)n2 at p = e1"),
])
def test_base_action_reports_a_table_off_the_evaluation(monkeypatch, side, message):
    # add to ^{e1} t_1 (side 0) or t_1^{e1} (side 1) of the base action on
    # the top square a free symbol that lambda does not kill
    real = tensor._base_on_top

    def perturbed(xm, qn, lam):
        b = real(xm, qn, lam)
        k = next(j for j, v in enumerate(lam[1]) if v)
        tables = [dict(b.sl), dict(b.sr)]
        tables[side][0, 0] = _plus(tables[side].get((0, 0), ()), ((k, 1),))
        return LeibnizAction.from_sparse(b.actor, b.acted, b.den,
                                         *(tuple(sorted(t.items())) for t in tables))

    monkeypatch.setattr(tensor, "_base_on_top", perturbed)
    _raises_exactly(message, tensor._squares, CrossedModule.adjoint_identity(n2()))


def test_connecting_map_reports_unpreserved_relations(monkeypatch):
    real = tensor._substitution

    def perturbed(src, tgt, fm, fn):
        den, cols = real(src, tgt, fm, fn)
        cols = list(cols)
        cols[0] = _plus_unit(cols[0], 0)
        return den, cols

    monkeypatch.setattr(tensor, "_substitution", perturbed)
    _raises_exactly("connecting map does not preserve the relations",
                    tensor._squares,
                    CrossedModule.adjoint_identity(n2()))


def test_induced_map_reports_unpreserved_relations():
    # swapping e1 and e2 is not a homomorphism of n2, and the substitution
    # it induces does not respect the relations of the squares
    esd = exterior_square_data(CrossedModule.adjoint_identity(n2()))
    swap = from_rows([[0, 1], [1, 0]])
    _raises_exactly("induced map n2(^)n2 -> n2(^)n2 does not preserve relations",
                    tensor._induced_presentation_hom, esd.qn, esd.qq, swap, swap)


@pytest.mark.parametrize("square, message", [
    ("heis3(^)heis3_ideal", "top evaluation map does not kill the relations"),
    ("heis3(^)heis3", "base evaluation map does not kill the relations"),
])
def test_evaluation_reports_unkilled_relations(monkeypatch, square, message):
    # the evaluation of the named square also sends the pivot symbol of its
    # first relation row to e_1, so that row is no longer killed; the top
    # and base squares of (Z(heis3), heis3, incl) have different names
    real = tensor.exterior_presentation

    def perturbed(eta, delta, name=None):
        pres = real(eta, delta, name)
        if pres.name == square:
            dens, ev = pres.pair.zevaluations
            moved = list(ev[1])
            p = pres.relations.pivots[0]
            moved[p] = _plus_unit(moved[p], 0)
            vars(pres.pair)["zevaluations"] = (dens, (ev[0], tuple(moved)))
        return pres

    monkeypatch.setattr(tensor, "exterior_presentation", perturbed)
    _raises_exactly(message, tensor._squares,
                    CrossedModule.inclusion(heis3(), center(heis3())))


def test_squares_build_one_presentation_each(monkeypatch, capsys, tmp_path):
    # (q, q, id) has one square, qn is qq, whatever the crossed module's
    # name; any other crossed module has two
    built, real = [], tensor._build_presentation

    def counted(pair, extra_rows, name, sides):
        built.append(name)
        return real(pair, extra_rows, name, sides)

    monkeypatch.setattr(tensor, "_build_presentation", counted)
    q = heis3()
    for xm in (CrossedModule.adjoint_identity(q),
               CrossedModule("renamed", q, q, RatMatrix.identity(q.dim), q.adjoint)):
        built.clear()
        esd = exterior_square_data(xm)
        assert built == ["heis3(^)heis3"] and esd.qn is esd.qq
        # one evaluation map, whose kernel is taken once
        assert esd.mu_q is esd.lambda_n
    built.clear()
    exterior_square_data(CrossedModule.inclusion(heis3(), center(heis3())))
    assert built == ["heis3(^)heis3_ideal", "heis3(^)heis3"]
    # (q', q, id) on a renamed copy q' of q is an adjoint identity up to
    # names, whose laws are read off q's reports, but its squares take their
    # names and bases from its own algebras: two presentations
    built.clear()
    esd = exterior_square_data(renamed_adjoint_identity(q))
    assert built == ["heis3(^)heis3'", "heis3(^)heis3"]
    assert esd.qn.resolved.basis_names[0] == "x'*x" and esd.mu_q is not esd.lambda_n
    # the square names come from the algebras, so the renamed (q, q, id)
    # prints the default-named one's multiplier but for the xmod field
    for name in ("heis3.algebra", "heis3_adjoint.action"):
        (tmp_path / name).write_text((FIXTURES / name).read_text())
    doc = json.loads((FIXTURES / "heis3_id.xmod").read_text())
    doc["name"] = "renamed"
    (tmp_path / "renamed.xmod").write_text(json.dumps(doc))
    payloads = []
    for path in (FIXTURES / "heis3_id.xmod", tmp_path / "renamed.xmod"):
        assert cli.main(["multiplier", str(path), "--json"]) == 0
        payloads.append(json.loads(capsys.readouterr().out))
    assert [p.pop("xmod") for p in payloads] == ["(heis3,heis3,id)", "renamed"]
    assert payloads[0] == payloads[1]


def _oracle_crossed_modules():
    """The .xmod fixtures, the totals and quotients of the central fixture
    extensions, (q, q, id) and (Z(q), q, incl) of the fixture algebras and
    of the random corpus."""
    out = [cli.load_fixture(p) for p in sorted(FIXTURES.glob("*.xmod"))]
    out += [xm for e in central_fixture_extensions() for xm in (e.total, e.quotient)]
    for q in fixture_algebras() + random_leibniz_corpus():
        out += [CrossedModule.adjoint_identity(q), CrossedModule.inclusion(q, center(q))]
    return [xm for xm in out if check_xmod(xm).valid]


def _matches_the_bracket_reference(press) -> int:
    """Assert that each presentation's resolved table is the old loop's;
    the number of nonzero tables."""
    for pres in press:
        assert pres.resolved.zst == ref_bracket.resolved_table(pres), pres.name
        assert (tensor._representatives(pres.pair)
                == entries(ref_bracket.representatives(pres.pair))), pres.name
    return sum(bool(pres.resolved.zst[1]) for pres in press)


def test_resolved_bracket_matches_the_entry_by_entry_reference():
    # the bracket of a square factors through its evaluations; the old
    # loop projects one symbol per pair of free symbols
    press = [tensor_product(adjoint_pair(q))
             for q in fixture_algebras() + random_leibniz_corpus() + [r2_nonlie(), sol2_lie()]]
    for xm in _oracle_crossed_modules():
        esd = exterior_square_data(xm)
        press += {id(p): p for p in (esd.qn, esd.qq)}.values()
    assert _matches_the_bracket_reference(press) >= 4


@PROPERTY
@given(st.data())
def test_resolved_bracket_matches_the_reference_in_rational_bases(data):
    q = data.draw(st.sampled_from(fixture_algebras() + [r2_nonlie(), sol2_lie()]))
    b = rebased(q, data.draw(rational_bases(q.dim)))
    press = [tensor_product(adjoint_pair(b))]
    for xm in (CrossedModule.adjoint_identity(b), CrossedModule.inclusion(b, center(b))):
        esd = exterior_square_data(xm)
        press += [esd.qn, esd.qq]
    _matches_the_bracket_reference(press)


def test_an_adjoint_identity_input_is_its_own_base_square(monkeypatch):
    # an input equal to (q, q, id) builds its one square from its own
    # action, which check_xmod has checked, and descends one evaluation
    calls, real = count_law_evaluations(monkeypatch), tensor._descend
    descents = []
    monkeypatch.setattr(tensor, "_descend",
                        lambda *a: descents.append(a[2]) or real(*a))
    q = heis3()
    xm = CrossedModule(f"({q.name},{q.name},id)", q, q, RatMatrix.identity(q.dim),
                       LeibnizAction(q, q, q.c, q.c))
    assert xm.action is not q.adjoint and xm == CrossedModule.adjoint_identity(q)
    esd = exterior_square_data(xm)
    assert esd.qn is esd.qq and esd.qn.pair.m_on_n is xm.action
    assert esd.qn.pair.n_on_m is xm.action
    assert esd.mu_q is esd.lambda_n
    # lambda, then id ^ delta; the base action is read off lambda
    assert descents.count(None) == 1 and len(descents) == 2
    assert calls["action"] == 2 and "validity" not in vars(q.adjoint)


def test_squares_are_built_once_per_object(monkeypatch):
    # the squares are a cached property of the crossed module: a second
    # read of one object builds nothing, an equal new object builds afresh
    built, real = [], tensor._build_presentation

    def counted(pair, extra_rows, name, sides):
        built.append(name)
        return real(pair, extra_rows, name, sides)

    monkeypatch.setattr(tensor, "_build_presentation", counted)
    xm = CrossedModule.inclusion(heis3(), center(heis3()))
    esd = exterior_square_data(xm)
    assert exterior_square_data(xm) is esd and xm.squares is esd
    assert schur_multiplier(xm) is esd.multiplier and len(built) == 2
    twin = dataclasses.replace(xm)
    assert twin == xm and exterior_square_data(twin) is not esd
    assert len(built) == 4


def _leaving(source, target, dim):
    """A matrix with dim rows that sends the first basis vector of the
    subspace source to a unit vector outside the subspace target."""
    j = next(j for j in range(dim) if not contains_vector(target, unit_vec(dim, j)))
    p = source.pivots[0]
    cols = source.ambient_dim
    return from_rows([[QQ(int((r, c) == (j, p))) for c in range(cols)]
                                for r in range(dim)], cols=cols)


def test_multiplier_reports_a_connecting_map_that_leaves_it(monkeypatch):
    real = tensor.exterior_square_data

    def moved(xm):
        esd = real(xm)
        kt, kb = kernel(esd.lambda_n.matrix), kernel(esd.mu_q.matrix)
        return dataclasses.replace(esd, id_wedge_delta=AlgebraHom(
            esd.qn.resolved, esd.qq.resolved, _leaving(kt, kb, esd.qq.resolved.dim)))

    monkeypatch.setattr(tensor, "exterior_square_data", moved)
    _raises_exactly("connecting map does not restrict to the multiplier",
                    schur_multiplier, CrossedModule.adjoint_identity(n2()))


@pytest.mark.parametrize("side, message", [
    (0, "induced top map does not preserve the multiplier"),
    (1, "induced base map does not preserve the multiplier"),
])
def test_multiplier_map_reports_a_square_map_that_leaves_it(monkeypatch, side, message):
    # the induced map on one square replaced by one that sends the first
    # multiplier basis vector out of the multiplier
    real = tensor.induced_exterior_hom

    def moved(f):
        homs = list(real(f))
        src, tgt = exterior_square_data(f.source), exterior_square_data(f.target)
        ks = [kernel(m.matrix) for m in (src.lambda_n, src.mu_q)]
        kt = [kernel(m.matrix) for m in (tgt.lambda_n, tgt.mu_q)]
        h = homs[side]
        homs[side] = AlgebraHom(h.source, h.target,
                                _leaving(ks[side], kt[side], h.target.dim))
        return tuple(homs)

    monkeypatch.setattr(tensor, "induced_exterior_hom", moved)
    _raises_exactly(message, multiplier_functorial_map,
                    XModHom.identity(CrossedModule.adjoint_identity(n2())))


def _plus_unit(col, k):
    """The sparse vector col plus the unit vector at k."""
    out = dict(col)
    out[k] = out.get(k, QQ(0)) + 1
    return tuple(sorted(out.items()))
