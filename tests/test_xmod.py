"""Crossed-module layer: validity, ideals, commutators, quotient functors."""

import random
from fractions import Fraction as QQ
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_checks as ref_checks
import _reference_xmod as ref
from _dense import from_rows, integer_entries, span, unit_vec, vec_is_zero
from _reference_quotient import contains_vector
from leibxmod import algebra, cli, ratlin, tensor, xmod
from leibxmod.algebra import (
    LeibnizAction,
    center,
    is_lie,
)
from leibxmod.ratlin import (
    RatMatrix,
    Subspace,
    integer_view,
    sparse,
)
from leibxmod.tensor import MutualActionPair
from leibxmod.xmod import (
    CrossedModule,
    SubPair,
    XModFlags,
    XModHom,
    abelianization,
    center_xmod,
    check_xmod,
    check_xmod_hom,
    commutator,
    crossed_ideal_closure,
    derived_xmod,
    derived_xmod as _derived,
    is_crossed_ideal,
    liezation,
    predicates,
    quotient_xmod,
)

from helpers import (
    count_law_evaluations,
    zero_pair,
    direction,
    fixture_algebras,
    heis3,
    k_abelian,
    n2,
    r2_nonlie,
    random_leibniz_corpus,
    sl2,
    zero_algebra,
    zero_over,
)
from test_checks import crossed_modules, perturbed_crossed_modules, vectors
from test_rational_basis import rational_bases, rebased, rebased_xmod


def span_of(xm, top_vecs, base_vecs):
    return SubPair(xm,
                   span(xm.top.dim, top_vecs),
                   span(xm.base.dim, base_vecs))


# -- validity ----------------------------------------------------------------

def test_adjoint_identity_valid_on_fixtures():
    for a in fixture_algebras():
        assert check_xmod(CrossedModule.adjoint_identity(a)).valid


def test_adjoint_identity_evaluates_its_action_report_once(monkeypatch):
    # the bracket action is one object per algebra object, with its report;
    # an equal algebra is another object and is checked again
    calls = count_law_evaluations(monkeypatch)
    q = heis3()
    one, two = CrossedModule.adjoint_identity(q), CrossedModule.adjoint_identity(q)
    assert one is not two and one.action is two.action is LeibnizAction.adjoint(q)
    assert check_xmod(one).valid and check_xmod(two).valid
    assert (calls["action"], calls["xmod"]) == (1, 2)
    other = CrossedModule.adjoint_identity(heis3())
    assert other.action == one.action and check_xmod(other).valid
    assert (calls["action"], calls["xmod"]) == (2, 3)


def test_inclusion_of_ideal_valid():
    q = n2()
    s = span(2, [(QQ(0), QQ(1))])
    xm = CrossedModule.inclusion(q, s)
    assert check_xmod(xm).valid
    assert xm.top.dim == 1 and xm.base.dim == 2

    h = heis3()
    zc = span(3, [(QQ(0), QQ(0), QQ(1))])
    assert check_xmod(CrossedModule.inclusion(h, zc)).valid


def test_inclusion_rejects_non_ideal():
    q = n2()
    s = span(2, [(QQ(1), QQ(0))])
    with pytest.raises(ValueError):
        CrossedModule.inclusion(q, s)


def test_trivial_map_module_valid():
    # abelian top with a trivial action and delta = 0
    m = k_abelian(2)
    q = n2()
    xm = CrossedModule("(K2,N2,0)", m, q, RatMatrix.zeros(2, 2),
                       LeibnizAction.trivial(q, m))
    assert check_xmod(xm).valid


def test_zero_action_breaks_peiffer_on_n2():
    q = n2()
    xm = CrossedModule("(N2,N2,id) zero action", q, q, RatMatrix.identity(2),
                       LeibnizAction.trivial(q, q))
    rep = check_xmod(xm)
    assert not rep.valid
    assert any(lbl.startswith("peiffer-left (e1,e1)") for lbl, _ in rep.violations)
    minus_e2 = (QQ(0), QQ(-1))
    assert rep.violations == (("equivariance-left (e1,e1)", minus_e2),
                              ("equivariance-right (e1,e1)", minus_e2),
                              ("peiffer-left (e1,e1)", minus_e2),
                              ("peiffer-right (e1,e1)", minus_e2))


def test_every_xmod_term_reported():
    # r2 ([e2,e1] = e2) over itself with a valid sparse action and a
    # perturbed delta, chosen so that flipping the sign of either term of
    # an equivariance or Peiffer residual, dropping it, putting the other
    # term in its place, or swapping its arguments (left for right action,
    # [x,y] for [y,x]) changes this report
    q = r2_nonlie()
    z, one = QQ(0), QQ(1)
    left = (((z, z), (z, z)), ((z, -one), (z, z)))
    right = (((z, z), (z, z)), ((z, one), (z, z)))
    delta = from_rows([[-1, 1], [-1, 0]])
    rep = check_xmod(CrossedModule("xm", q, q, delta, LeibnizAction(q, q, left, right)))
    expected = [
        ("equivariance-right (e1,e1)", (0, 1)), ("equivariance-right (e2,e1)", (1, 0)),
        ("equivariance-left (e2,e1)", (-1, 1)), ("equivariance-left (e2,e2)", (0, -1)),
        ("peiffer-left (e1,e1)", (0, 1)), ("peiffer-left (e2,e1)", (0, -1)),
        ("peiffer-right (e2,e1)", (0, -2)), ("peiffer-right (e2,e2)", (0, 1)),
    ]
    assert rep.violations == tuple(
        (label, tuple(QQ(x) for x in r)) for label, r in expected)


def test_delta_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        CrossedModule("bad", k_abelian(2), n2(), RatMatrix.zeros(2, 3),
                      LeibnizAction.trivial(n2(), k_abelian(2)))


# -- crossed ideals and closure ----------------------------------------------

def test_closure_of_zero_is_zero():
    xm = CrossedModule.adjoint_identity(n2())
    out = crossed_ideal_closure(xm, zero_pair(xm))
    assert out.dims() == (0, 0)


def test_closure_from_base_line_on_n2():
    # e2 enters the base via the bracket, then the action of the enlarged
    # base puts e2 (and nothing more) into the top: least crossed ideal
    # over ({0}, span{e1}) is (span{e2}, full)
    xm = CrossedModule.adjoint_identity(n2())
    seed = span_of(xm, [], [(QQ(1), QQ(0))])
    out = crossed_ideal_closure(xm, seed)
    assert out.dims() == (1, 2)
    assert contains_vector(out.top_sub, (QQ(0), QQ(1)))
    assert is_crossed_ideal(xm, out)
    # and it is least: dropping the top line breaks the ideal invariants
    assert not is_crossed_ideal(xm, span_of(xm, [], [(QQ(1), QQ(0)),
                                                     (QQ(0), QQ(1))]))


def test_closure_on_abelian_is_delta_saturation():
    k = k_abelian(1)
    xm = CrossedModule("(K,K,id)", k, k, RatMatrix.identity(1),
                       LeibnizAction.trivial(k, k))
    assert check_xmod(xm).valid
    seed = span_of(xm, [(QQ(1),)], [])
    out = crossed_ideal_closure(xm, seed)
    assert out.top_sub.dim == 1 and out.base_sub.dim == 1


def test_closure_output_is_crossed_ideal():
    rng = random.Random(7)
    for a in fixture_algebras() + random_leibniz_corpus(count=4, seed=11):
        xm = CrossedModule.adjoint_identity(a)
        seed_vec = tuple(QQ(rng.randint(-2, 2)) for _ in range(a.dim))
        seed = span_of(xm, [seed_vec], [])
        assert is_crossed_ideal(xm, crossed_ideal_closure(xm, seed))


# -- commutator, center, derived ----------------------------------------------

def test_commutator_of_zeros_is_zero():
    xm = CrossedModule.adjoint_identity(sl2())
    out = commutator(xm, zero_pair(xm), zero_pair(xm))
    assert out.dims() == (0, 0)


def test_commutator_requires_crossed_ideals():
    xm = CrossedModule.adjoint_identity(n2())
    notideal = span_of(xm, [(QQ(1), QQ(0))], [])
    with pytest.raises(ValueError):
        commutator(xm, notideal, xm.full_pair())


def test_derived_of_n2_identity():
    xm = CrossedModule.adjoint_identity(n2())
    d = derived_xmod(xm)
    e2 = (QQ(0), QQ(1))
    assert d.dims() == (1, 1)
    assert contains_vector(d.top_sub, e2) and contains_vector(d.base_sub, e2)


def test_derived_of_sl2_identity_is_full():
    xm = CrossedModule.adjoint_identity(sl2())
    assert derived_xmod(xm).dims() == (3, 3)


def test_center_of_abelian_trivial_action_is_full():
    m = k_abelian(2)
    xm = CrossedModule("(K2,K2,0)", m, m, RatMatrix.zeros(2, 2),
                       LeibnizAction.trivial(m, m))
    assert center_xmod(xm).dims() == (2, 2)


def test_center_of_n2_identity():
    xm = CrossedModule.adjoint_identity(n2())
    z = center_xmod(xm)
    e2 = (QQ(0), QQ(1))
    assert z.dims() == (1, 1)
    assert contains_vector(z.top_sub, e2) and contains_vector(z.base_sub, e2)


def test_center_of_sl2_identity_is_zero():
    xm = CrossedModule.adjoint_identity(sl2())
    assert center_xmod(xm).dims() == (0, 0)


def test_center_and_derived_are_crossed_ideals():
    for a in fixture_algebras() + random_leibniz_corpus(count=6, seed=23):
        xm = CrossedModule.adjoint_identity(a)
        assert is_crossed_ideal(xm, center_xmod(xm))
        assert is_crossed_ideal(xm, derived_xmod(xm))


def test_derived_top_matches_bracket_and_action_span():
    # top of the derived pair = span{[n_i,n_j]} + span{^q n, n^q}
    fixtures = [CrossedModule.adjoint_identity(a) for a in fixture_algebras()]
    q = n2()
    s = span(2, [(QQ(0), QQ(1))])
    fixtures.append(CrossedModule.inclusion(q, s))
    for a in random_leibniz_corpus(count=4, seed=31):
        fixtures.append(CrossedModule.adjoint_identity(a))
    for xm in fixtures:
        d = derived_xmod(xm)
        expect = ref.span_brackets(xm.top, Subspace.full(xm.top.dim),
                               Subspace.full(xm.top.dim))
        acts = []
        for i in range(xm.base.dim):
            for j in range(xm.top.dim):
                acts.append(xm.action.left[i][j])
                acts.append(xm.action.right[j][i])
        expect = expect.add(span(xm.top.dim, acts))
        assert d.top_sub == expect


# -- quotients, abelianization, Liezation --------------------------------------

def test_quotient_by_zero_is_isomorphic_copy():
    xm = CrossedModule.adjoint_identity(heis3())
    out, proj = quotient_xmod(xm, zero_pair(xm))
    assert (out.top.dim, out.base.dim) == (3, 3)
    assert out.top.c == xm.top.c and out.base.c == xm.base.c
    assert check_xmod_hom(proj).valid


def test_quotient_by_full_is_zero():
    xm = CrossedModule.adjoint_identity(n2())
    out, _ = quotient_xmod(xm, xm.full_pair())
    assert (out.top.dim, out.base.dim) == (0, 0)


def test_quotient_rejects_non_ideal_pair():
    xm = CrossedModule.adjoint_identity(n2())
    notideal = span_of(xm, [(QQ(1), QQ(0))], [(QQ(1), QQ(0))])
    with pytest.raises(ValueError):
        quotient_xmod(xm, notideal)


def test_quotient_rejects_an_invalid_crossed_module_before_the_ideal_test():
    # (n2, 0, 0) with the trivial action fails Peiffer, and span{e1}, not an
    # ideal of n2, still passes the crossed-ideal test; the quotient reads
    # the validity report first, so the input error is a ValueError
    xm = CrossedModule("(n2,0,0)", n2(), zero_algebra(), RatMatrix(0, 2, ()),
                       LeibnizAction.trivial(zero_algebra(), n2()))
    t = span_of(xm, [(QQ(1), QQ(0))], [])
    assert not check_xmod(xm).valid and is_crossed_ideal(xm, t)
    with pytest.raises(ValueError, match="invalid crossed module"):
        quotient_xmod(xm, t)


def test_abelianization_of_n2_identity():
    xm = CrossedModule.adjoint_identity(n2())
    ab, proj = abelianization(xm)
    assert (ab.top.dim, ab.base.dim) == (1, 1)
    assert all(vec_is_zero(v) for row in ab.action.left for v in row)
    assert all(vec_is_zero(v) for row in ab.action.right for v in row)
    assert check_xmod_hom(proj).valid


def test_abelianization_of_perfect_is_zero():
    xm = CrossedModule.adjoint_identity(sl2())
    ab, _ = abelianization(xm)
    assert (ab.top.dim, ab.base.dim) == (0, 0)


def test_abelianization_of_abelian_keeps_dims():
    m = k_abelian(2)
    xm = CrossedModule("(K2,K2,0)", m, m, RatMatrix.zeros(2, 2),
                       LeibnizAction.trivial(m, m))
    ab, _ = abelianization(xm)
    assert (ab.top.dim, ab.base.dim) == (2, 2)


def test_liezation_of_lie_is_identity_projection():
    xm = CrossedModule.adjoint_identity(sl2())
    out, proj = liezation(xm)
    assert (out.top.dim, out.base.dim) == (3, 3)
    assert proj.top_map == RatMatrix.identity(3)


def test_liezation_of_n2_identity_kills_square():
    xm = CrossedModule.adjoint_identity(n2())
    out, _ = liezation(xm)
    assert (out.top.dim, out.base.dim) == (1, 1)
    assert is_lie(out.top) and is_lie(out.base)


def test_liezation_of_abelian_unchanged():
    m = k_abelian(3)
    xm = CrossedModule("(K3,K3,0)", m, m, RatMatrix.zeros(3, 3),
                       LeibnizAction.trivial(m, m))
    out, _ = liezation(xm)
    assert (out.top.dim, out.base.dim) == (3, 3)


def test_liezation_valid_on_fixtures_and_randoms():
    for a in fixture_algebras() + random_leibniz_corpus(count=5, seed=41):
        out, proj = liezation(CrossedModule.adjoint_identity(a))
        assert check_xmod(out).valid
        assert check_xmod_hom(proj).valid


# -- predicates -----------------------------------------------------------------

def test_predicates_sl2():
    flags = predicates(CrossedModule.adjoint_identity(sl2()))
    assert flags.is_perfect and not flags.is_abelian


def test_predicates_k_identity():
    k = k_abelian(1)
    xm = CrossedModule("(K,K,id)", k, k, RatMatrix.identity(1),
                       LeibnizAction.trivial(k, k))
    flags = predicates(xm)
    assert flags.is_abelian and not flags.is_perfect


def test_predicates_n2_neither():
    flags = predicates(CrossedModule.adjoint_identity(n2()))
    assert not flags.is_perfect and not flags.is_abelian


DISAGREE = "center-based and component-based abelian predicates disagree"


@pytest.mark.parametrize("xm, wrong", [
    # sl2 is not abelian, and a full center says it is; k2 is, and a zero
    # center says it is not
    (CrossedModule.adjoint_identity(sl2()), Subspace.full),
    (CrossedModule.adjoint_identity(k_abelian(2)), Subspace.zero),
])
def test_abelian_predicates_that_disagree_raise(monkeypatch, xm, wrong):
    monkeypatch.setattr(xmod, "annihilator", lambda dim, views: wrong(dim))
    with pytest.raises(AssertionError) as err:
        predicates(xm)
    assert str(err.value) == DISAGREE


def test_abelian_predicates_that_disagree_exit_3(monkeypatch, capsys):
    # stemcover asks whether its perfect input is abelian
    monkeypatch.setattr(xmod, "annihilator", lambda dim, views: Subspace.full(dim))
    assert cli.main(["stemcover", str(FIXTURES / "sl2_id.xmod")]) == 3
    assert capsys.readouterr().err == f"error: internal invariant failed: {DISAGREE}\n"


@pytest.mark.parametrize("name", ["n2_id.xmod", "heis3_id.xmod", "n2pad.xmod"])
def test_center_takes_four_eliminations(monkeypatch, name):
    # one annihilator per part: each a kernel, which eliminates its rows
    # and then spans its basis
    xm = cli.load_fixture(FIXTURES / name)
    expect, calls, real = ref_checks.center_xmod(xm), [], ratlin._eliminate

    def counted(rows, reduce=True):
        calls.append(len(rows))
        return real(rows, reduce)

    monkeypatch.setattr(ratlin, "_eliminate", counted)
    assert center_xmod(xm) == expect
    assert len(calls) == 4


def _no_pairwise_and_no_full_basis(monkeypatch):
    """Make a product of two subspaces (algebra._pairwise) and a basis of
    a whole space (Subspace.full) raise, wherever they are called."""
    def pairwise(*args):
        raise AssertionError("a product of two subspaces was taken")

    def full(cls, dim):
        raise AssertionError("a basis of the whole space was built")

    for module in (algebra, xmod):
        monkeypatch.setattr(module, "_pairwise", pairwise)
    monkeypatch.setattr(Subspace, "full", classmethod(full))


def _counted_joins(monkeypatch) -> list:
    """One entry per join that algebra makes (every product is one)."""
    joins, real = [], algebra.join

    def counted(terms):
        joins.append(1)
        return real(terms)

    monkeypatch.setattr(algebra, "join", counted)
    return joins


@pytest.mark.parametrize("name", ["n2_id.xmod", "heis3_id.xmod", "n2pad.xmod"])
def test_closure_step_takes_six_products_with_the_whole_algebra(monkeypatch, name):
    # [b, q], [q, b], ^b n, n^b, ^q t and t^q: one join each, no product of
    # two subspaces and no basis of a whole space
    xm = cli.load_fixture(FIXTURES / name)
    seeds = [zero_pair(xm), xm.full_pair(), span_of(xm, [unit_vec(xm.top.dim, 0)], []),
             span_of(xm, [], [unit_vec(xm.base.dim, xm.base.dim - 1)])]
    expect = [ref.crossed_ideal_closure(xm, sp) for sp in seeds]
    _no_pairwise_and_no_full_basis(monkeypatch)
    joins = _counted_joins(monkeypatch)
    for sp, closed in zip(seeds, expect):
        joins.clear()
        t, b = xmod._step(xm, sp.top_sub, sp.base_sub)
        assert len(joins) == 6
        assert closed.top_sub.contains_subspace(t) and closed.base_sub.contains_subspace(b)
        assert t.contains_subspace(sp.top_sub) and b.contains_subspace(sp.base_sub)
    assert crossed_ideal_closure(xm, seeds[2]) == expect[2]


def test_ideal_closure_takes_no_product_of_two_subspaces(monkeypatch):
    # a round is s, [a, s] and [s, a] read through the algebra's twins
    cases = [(a, span(a.dim, [unit_vec(a.dim, k)]))
             for a in ALGEBRAS if a.dim for k in range(a.dim)]
    expect = [ref.ideal_closure(a, s) for a, s in cases]
    _no_pairwise_and_no_full_basis(monkeypatch)
    assert [algebra.ideal_closure(a, s) for a, s in cases] == expect


def _counted_sides(monkeypatch) -> dict:
    """The products that a commutator takes: the calls of xmod._acts (the
    top side) and those of xmod._pairwise that _acts does not make (the
    base side)."""
    calls = {"top": 0, "base": 0}
    real_acts, real_pairwise = xmod._acts, xmod._pairwise

    def acts(xm, ys, xs):
        calls["top"] += 1
        calls["base"] -= 2  # its two _pairwise calls are not the base's
        return real_acts(xm, ys, xs)

    def pairwise(table_t, us, vs):
        calls["base"] += 1
        return real_pairwise(table_t, us, vs)

    monkeypatch.setattr(xmod, "_acts", acts)
    monkeypatch.setattr(xmod, "_pairwise", pairwise)
    return calls


@pytest.mark.parametrize("name", ["n2_id.xmod", "heis3_id.xmod", "n2pad.xmod"])
def test_commutator_of_a_pair_with_itself_takes_each_product_once(monkeypatch, name):
    xm = cli.load_fixture(FIXTURES / name)
    pairs = [xm.full_pair(), xm.center,
             ref.crossed_ideal_closure(xm, span_of(xm, [unit_vec(xm.top.dim, 0)], []))]
    expect = [ref.commutator(xm, p, p) for p in pairs]
    calls = _counted_sides(monkeypatch)
    for p, out in zip(pairs, expect):
        calls.update(top=0, base=0)
        assert commutator(xm, p, p) == out
        assert calls == {"top": 1, "base": 1}
    # the derived pair is that commutator on the full pair
    fresh = CrossedModule(xm.name, xm.top, xm.base, xm.delta, xm.action)
    calls.update(top=0, base=0)
    assert fresh.derived == expect[0]
    assert calls == {"top": 1, "base": 1}
    # two different pairs, the full pair and the center, take both sides
    calls.update(top=0, base=0)
    assert commutator(xm, pairs[0], pairs[1]) == ref.commutator(xm, pairs[0], pairs[1])
    assert calls == {"top": 2, "base": 2}


# -- homomorphisms ----------------------------------------------------------------

def test_identity_hom_valid():
    xm = CrossedModule.adjoint_identity(heis3())
    assert check_xmod_hom(XModHom.identity(xm)).valid


def test_inclusion_into_adjoint_identity_is_a_hom():
    q = n2()
    s = span(2, [(QQ(0), QQ(1))])
    sub = CrossedModule.inclusion(q, s)
    whole = CrossedModule.adjoint_identity(q)
    f = XModHom(sub, whole, sub.delta, RatMatrix.identity(2))
    assert check_xmod_hom(f).valid


def test_broken_hom_reported():
    xm = CrossedModule.adjoint_identity(n2())
    k = k_abelian(1)
    tgt = CrossedModule("(K,K,id)", k, k, RatMatrix.identity(1),
                        LeibnizAction.trivial(k, k))
    # base map sends e2 -> e, so it is not an algebra hom and clashes
    # with delta compatibility against the top map e1 -> e, e2 -> 0
    f = XModHom(xm, tgt,
                from_rows([(QQ(1), QQ(0))]),
                from_rows([(QQ(0), QQ(1))]))
    rep = check_xmod_hom(f)
    assert not rep.valid


def test_kernel_pair_of_projection():
    xm = CrossedModule.adjoint_identity(n2())
    out, proj = quotient_xmod(xm, derived_xmod(xm))
    kp = proj.kernel_pair()
    assert kp.dims() == (1, 1)
    assert is_crossed_ideal(xm, kp)
    assert proj.is_surjective()


# -- the integer-twin routines against the dense reference ------------------------
# _reference_xmod.py keeps the dense closure, ideal test, commutator, span
# of brackets and pulled-back action; the library's must give equal
# subspaces, pairs and actions, and raise the same errors.

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PROPERTY = settings(derandomize=True, database=None, max_examples=60,
                    deadline=None)


# the fixture algebras, with Leibniz algebras whose left and right
# brackets span different subspaces
ALGEBRAS = fixture_algebras() + [r2_nonlie()] + random_leibniz_corpus(4)


def _pool():
    """The fixture crossed modules, the totals and quotients of the
    fixture extensions, and (0, q, i) and (n, q, i) for the derived
    algebra and the center n of each q of ALGEBRAS: a delta that is not
    injective or not onto, and an action whose left and right tables
    differ in shape."""
    out = [cli.load_fixture(p) for p in sorted(FIXTURES.glob("*.xmod"))]
    for name in ("n2_over_k.extension", "split_over_n2.extension"):
        e = cli.load_fixture(FIXTURES / name)
        out += [e.total, e.quotient]
    for q in ALGEBRAS:
        full = Subspace.full(q.dim)
        out += [zero_over(q), CrossedModule.inclusion(q, ref.span_brackets(q, full, full)),
                CrossedModule.inclusion(q, center(q))]
    return out


POOL = _pool()


def test_the_whole_pair_is_a_crossed_ideal_without_a_step(monkeypatch):
    # by definition, on a valid crossed module and an invalid one alike:
    # the (n2, n2, id) whose delta swaps e1 and e2 fails the laws
    q = n2()
    swapped = from_rows([(QQ(0), QQ(1)), (QQ(1), QQ(0))], cols=2)
    xms = [cli.load_fixture(p) for p in sorted(FIXTURES.glob("*.xmod"))]
    xms.append(CrossedModule("(n2,n2,id)", q, q, swapped, LeibnizAction.adjoint(q)))
    assert not check_xmod(xms[-1]).valid
    assert all(ref.is_crossed_ideal(xm, xm.full_pair()) for xm in xms)

    def step(*args):
        raise AssertionError("the whole pair was stepped")

    monkeypatch.setattr(xmod, "_step", step)
    assert all(is_crossed_ideal(xm, xm.full_pair()) for xm in xms)


def test_predicates_match_the_whole_pair_reference():
    # the whole pair read off the dimensions of the derived pair and the
    # center, against the old row-for-row comparison with the full pair
    xms = [xm for xm in POOL + [CrossedModule.adjoint_identity(a) for a in ALGEBRAS]
           if check_xmod(xm).valid]
    seen = set()
    for xm in xms:
        flags = predicates(xm)
        assert (flags.is_perfect, flags.is_abelian) == ref.predicates(xm), xm.name
        seen.add((flags.is_perfect, flags.is_abelian))
    assert {(True, False), (False, True), (False, False)} <= seen


@st.composite
def pool_xmods(draw):
    """A crossed module of the pool, with its top and base rebased apart
    in bases with denominators 2 and 3, or (q, q, id) of an algebra of
    ALGEBRAS in such a basis."""
    if draw(st.booleans()):
        xm = draw(st.sampled_from(POOL))
        return rebased_xmod(xm, draw(rational_bases(xm.top.dim)),
                            draw(rational_bases(xm.base.dim)))
    a = draw(st.sampled_from(ALGEBRAS))
    return CrossedModule.adjoint_identity(rebased(a, draw(rational_bases(a.dim))))


def any_xmods():
    """A crossed module drawn by pool_xmods, a single-entry perturbation
    of a fixture one, or random tables of dimension at most 3."""
    return st.one_of(pool_xmods(), perturbed_crossed_modules(), crossed_modules())


@st.composite
def spans(draw, d):
    """The span of 0 to 2 random rational vectors of length d."""
    return span(d, [draw(vectors(d)) for _ in range(draw(st.integers(0, 2)))])


@st.composite
def seed_pairs(draw, xm):
    return SubPair(xm, draw(spans(xm.top.dim)), draw(spans(xm.base.dim)))


@st.composite
def pairs(draw, xm):
    """A seed pair, its closure, or the full, zero or central pair."""
    how = draw(st.sampled_from(["seed", "closure", "full", "zero", "center"]))
    if how in ("seed", "closure"):
        seed = draw(seed_pairs(xm))
        return seed if how == "seed" else ref.crossed_ideal_closure(xm, seed)
    if how == "center":
        return center_xmod(xm)
    return xm.full_pair() if how == "full" else zero_pair(xm)


def _outcome(f, *args):
    """f(*args), or the type and message of the ValueError or
    AssertionError it raises."""
    try:
        return f(*args)
    except (ValueError, AssertionError) as err:
        return type(err), str(err)


def test_closure_and_ideal_test_match_the_dense_reference():
    verdicts = set()

    @PROPERTY
    @given(st.data())
    def check(data):
        xm = data.draw(any_xmods())
        seed = data.draw(seed_pairs(xm))
        closed = crossed_ideal_closure(xm, seed)
        assert closed == ref.crossed_ideal_closure(xm, seed)
        assert is_crossed_ideal(xm, closed) and ref.is_crossed_ideal(xm, closed)
        verdict = is_crossed_ideal(xm, seed)
        assert verdict == ref.is_crossed_ideal(xm, seed)
        verdicts.add(verdict)

    check()
    assert verdicts == {True, False}


def test_commutator_matches_the_dense_reference():
    # valid, perturbed and random crossed modules, with crossed ideals,
    # arbitrary pairs and a repeated argument, as derived_xmod passes; an
    # invalid module, on which the dense reference can give a span that
    # is not closed, is refused first with its report
    kinds = set()

    @PROPERTY
    @given(st.data())
    def check(data):
        xm = data.draw(any_xmods())
        a = data.draw(pairs(xm))
        b = a if data.draw(st.booleans()) else data.draw(pairs(xm))
        rep = check_xmod(xm)
        for x, y in ((a, b), (b, a)):
            got = _outcome(commutator, xm, x, y)
            if rep.valid:
                assert got == _outcome(ref.commutator, xm, x, y)
                kinds.add(got[0] if isinstance(got, tuple) else SubPair)
            else:
                assert got == (ValueError, f"invalid crossed module:\n{rep.summary()}")
                kinds.add("invalid")

    check()
    assert kinds == {SubPair, ValueError, "invalid"}


def test_commutator_refuses_an_invalid_crossed_module_before_the_closure():
    # (n2, n2, id) with delta swapping e1 and e2: the span of the full
    # pair's commutator is not closed, which the closure assertion would
    # report as a failed theorem; the validity report comes first
    q = n2()
    swapped = from_rows([(QQ(0), QQ(1)), (QQ(1), QQ(0))], cols=2)
    xm = CrossedModule("(n2,n2,id)", q, q, swapped, LeibnizAction.adjoint(q))
    rep = check_xmod(xm)
    assert not rep.valid
    with pytest.raises(AssertionError, match="is not already a crossed ideal"):
        ref.commutator(xm, xm.full_pair(), xm.full_pair())
    with pytest.raises(ValueError) as err:
        commutator(xm, xm.full_pair(), xm.full_pair())
    assert str(err.value) == f"invalid crossed module:\n{rep.summary()}"


@PROPERTY
@given(st.data())
def test_acts_match_every_pairwise_action(data):
    # the generators ^y x and x^y of the closure step and the commutator,
    # against one dense action per pair, value for value up to a positive
    # scale
    xm = data.draw(crossed_modules())
    ys = [data.draw(vectors(xm.base.dim)) for _ in range(data.draw(st.integers(0, 3)))]
    xs = [data.draw(vectors(xm.top.dim)) for _ in range(data.draw(st.integers(0, 3)))]
    expect = [w for y in ys for x in xs
              for w in (ref_checks._act_left(xm.action, y, x),
                        ref_checks._act_right(xm.action, x, y)) if any(w)]
    got = xmod._acts(xm, integer_view([sparse(y) for y in ys], 1),
                     integer_view([sparse(x) for x in xs], 1))
    assert (sorted(map(direction, got))
            == sorted(direction(integer_entries(w)[1]) for w in expect))


def test_commutator_with_the_full_pair_matches_the_dense_reference():
    # [full, u] and [u, full] for the closure u of every basis vector of
    # the top and the base: D_j(s) is not within D_h(t) in general, as for
    # u = (span{e2}, n2) in (n2, n2, id)
    for xm in [CrossedModule.adjoint_identity(a) for a in ALGEBRAS] + POOL:
        full = xm.full_pair()
        for k in range(xm.top.dim + xm.base.dim):
            seed = (span_of(xm, [unit_vec(xm.top.dim, k)], []) if k < xm.top.dim
                    else span_of(xm, [], [unit_vec(xm.base.dim, k - xm.top.dim)]))
            u = ref.crossed_ideal_closure(xm, seed)
            for a, b in ((full, u), (u, full)):
                assert _outcome(commutator, xm, a, b) == _outcome(ref.commutator, xm, a, b)


def test_commutator_is_symmetric():
    # [a, b] = [b, a]: the base is spanned by [h, j] and [j, h], since delta
    # of the top generator t^h is [delta t, h].  Pinned on (r2, r2, id) and
    # u = (span{e2}, span{e2}), where [h, j] alone misses [e2, e1] = e2
    xm = CrossedModule.adjoint_identity(r2_nonlie())
    u = span_of(xm, [unit_vec(2, 1)], [unit_vec(2, 1)])
    assert commutator(xm, xm.full_pair(), u) == commutator(xm, u, xm.full_pair())
    assert commutator(xm, xm.full_pair(), u).dims() == (1, 1)

    @PROPERTY
    @given(st.data())
    def check(data):
        xm = data.draw(pool_xmods())
        a, b = (crossed_ideal_closure(xm, data.draw(seed_pairs(xm))) for _ in range(2))
        assert _outcome(commutator, xm, a, b) == _outcome(commutator, xm, b, a)

    check()


@PROPERTY
@given(st.data())
def test_span_brackets_matches_the_dense_reference(data):
    def span_brackets(a, X, Y):
        # the product of two subspaces, as the commutator and the
        # multiplier's laws take it
        if X.ambient_dim != a.dim or Y.ambient_dim != a.dim:
            raise ValueError("subspace/algebra dimension mismatch")
        return Subspace.from_integer_rows(a.dim, algebra._pairwise(a.zst, X.zbasis, Y.zbasis))

    xm = data.draw(pool_xmods())
    a = data.draw(st.sampled_from([xm.top, xm.base]))
    X = data.draw(spans(a.dim))
    Y = data.draw(spans(data.draw(st.sampled_from([a.dim, a.dim, a.dim + 1]))))
    assert _outcome(span_brackets, a, X, Y) == _outcome(ref.span_brackets, a, X, Y)


@PROPERTY
@given(st.data())
def test_pulled_back_actions_match_the_dense_reference(data):
    xm = data.draw(any_xmods())
    other = data.draw(st.sampled_from([xm, CrossedModule.adjoint_identity(xm.base)]))
    for x, y in ((xm, other), (other, xm)):
        got, expect = tensor._through_base(x, y), ref._through_base(x, y)
        assert got == expect and hash(got) == hash(expect)
    pair = MutualActionPair.from_shared_base(xm, other)
    assert (pair.m_on_n, pair.n_on_m) == (ref._through_base(xm, other),
                                          ref._through_base(other, xm))


def test_structure_theory_never_densifies(monkeypatch):
    # closures, ideal tests, commutators, centers, predicates, the
    # abelianization and the pulled-back actions read the integer twins:
    # no dense table (the body of c, left and right) is built
    xms = (cli.load_fixture(FIXTURES / "split_over_n2.extension").total,
           cli.load_fixture(FIXTURES / "n2pad.xmod"))

    def densified(*args, **kwargs):
        raise AssertionError("a dense table was built")

    monkeypatch.setattr(algebra, "_densified", densified)
    for xm in xms:
        seed = span_of(xm, [unit_vec(xm.top.dim, 1)], [])
        closed = crossed_ideal_closure(xm, seed)
        assert is_crossed_ideal(xm, closed) and not is_crossed_ideal(xm, seed)
        assert derived_xmod(xm).dims() == (1, 1)
        assert center_xmod(xm).dims() == (2, 2)
        assert predicates(xm) == XModFlags(is_perfect=False, is_abelian=False)
        ab, _ = abelianization(xm)
        assert (ab.top.dim, ab.base.dim) == (2, 2)
        pair = MutualActionPair.from_shared_base(CrossedModule.adjoint_identity(xm.base), xm)
        assert pair.n_on_m.actor == xm.top
