from fractions import Fraction

import pytest

from leibxmod.algebra import (
    AlgebraHom,
    LeibnizAction,
    LeibnizAlgebra,
    center,
    check_action,
    check_hom,
    check_leibniz,
    ideal_closure,
    _quotient,
    is_lie,
    subalgebra_on,
)
from leibxmod.ratlin import RatMatrix, Subspace
from leibxmod.xmod import CrossedModule, SubPair, quotient_xmod

from _dense import from_rows, span, zero_vec
from _reference_checks import _bracket
from _reference_xmod import span_brackets

from helpers import (
    bad_dim1,
    fixture_algebras,
    heis3,
    k_abelian,
    n2,
    r2_nonlie,
    random_leibniz_corpus,
    sl2,
    sol2_lie,
    zero_algebra,
)


def test_check_leibniz_abelian():
    assert check_leibniz(k_abelian(3)).valid


def test_check_leibniz_n2():
    assert check_leibniz(n2()).valid


def test_check_leibniz_bad_dim1():
    rep = check_leibniz(bad_dim1())
    assert not rep.valid
    assert rep.violations[0][0] == "(e,e,e)"
    # residual of [e,[e,e]] - [[e,e],e] + [[e,e],e] is e - e + e = +e
    assert rep.violations[0][1] == (Fraction(1),)
    assert rep.violations == (("(e,e,e)", (Fraction(1),)),)


def test_check_leibniz_standard_fixtures():
    for a in fixture_algebras() + [r2_nonlie(), sol2_lie(), zero_algebra()]:
        assert check_leibniz(a).valid, a.name


def test_is_lie():
    assert is_lie(k_abelian(2))
    assert not is_lie(n2())
    assert is_lie(sl2())
    assert is_lie(heis3())
    assert not is_lie(r2_nonlie())


def test_trivial_action_valid():
    act = LeibnizAction.trivial(sl2(), n2())
    assert check_action(act).valid


def test_adjoint_action_valid_on_fixtures():
    for a in fixture_algebras():
        assert check_action(LeibnizAction.adjoint(a)).valid, a.name


def test_adjoint_action_on_ideal():
    # q = n2 acting on the ideal span{e2} by brackets
    q = n2()
    act = LeibnizAction(
        actor=q,
        acted=k_abelian(1, "ideal_e2"),
        left=tuple((q.c[i][1][1:],) for i in range(2)),
        right=((q.c[1][0][1:], q.c[1][1][1:]),),
    )
    assert check_action(act).valid


def test_zeroed_right_table_on_n2_still_valid():
    # every action term of these tables lands in span{e2}, which
    # annihilates, so all six axioms happen to survive the zeroing
    a = n2()
    adj = LeibnizAction.adjoint(a)
    halved = LeibnizAction(a, a, adj.left,
                           tuple(tuple(zero_vec(2) for _ in range(2)) for _ in range(2)))
    assert check_action(halved).valid


def test_broken_action_reported():
    # for sl2 the Jacobi identity makes axiom 1 fail once the right
    # table is zeroed: ^{[m,m']}n - ^m(^{m'}n) = -[m',[m,n]] != 0
    a = sl2()
    adj = LeibnizAction.adjoint(a)
    broken = LeibnizAction(a, a, adj.left,
                           tuple(tuple(zero_vec(3) for _ in range(3)) for _ in range(3)))
    rep = check_action(broken)
    assert not rep.valid
    assert any(label.startswith("axiom1") for label, _ in rep.violations)
    # the full report, in order: axioms 1 and 5 interleaved over (m, m', n),
    # then axiom 6 over (n, m, n'); axioms 2-4 hold with a zero right table
    expected = [
        ("axiom1 (e,e,f)", (2, 0, 0)), ("axiom5 (e,e,f)", (-2, 0, 0)),
        ("axiom5 (e,f,e)", (2, 0, 0)), ("axiom1 (e,f,f)", (0, -2, 0)),
        ("axiom1 (e,f,h)", (0, 0, -2)), ("axiom5 (e,f,h)", (0, 0, 2)),
        ("axiom5 (e,h,f)", (0, 0, -2)), ("axiom1 (e,h,h)", (4, 0, 0)),
        ("axiom1 (f,e,e)", (-2, 0, 0)), ("axiom5 (f,e,f)", (0, 2, 0)),
        ("axiom1 (f,e,h)", (0, 0, -2)), ("axiom5 (f,e,h)", (0, 0, 2)),
        ("axiom1 (f,f,e)", (0, 2, 0)), ("axiom5 (f,f,e)", (0, -2, 0)),
        ("axiom5 (f,h,e)", (0, 0, -2)), ("axiom1 (f,h,h)", (0, 4, 0)),
        ("axiom1 (h,e,f)", (0, 0, 2)), ("axiom5 (h,e,h)", (-4, 0, 0)),
        ("axiom1 (h,f,e)", (0, 0, 2)), ("axiom5 (h,f,h)", (0, -4, 0)),
        ("axiom1 (h,h,e)", (-4, 0, 0)), ("axiom5 (h,h,e)", (4, 0, 0)),
        ("axiom1 (h,h,f)", (0, -4, 0)), ("axiom5 (h,h,f)", (0, 4, 0)),
        ("axiom6 (e,e,f)", (-2, 0, 0)), ("axiom6 (f,e,f)", (0, 2, 0)),
        ("axiom6 (f,e,h)", (0, 0, 2)), ("axiom6 (h,e,h)", (-4, 0, 0)),
        ("axiom6 (e,f,e)", (2, 0, 0)), ("axiom6 (e,f,h)", (0, 0, 2)),
        ("axiom6 (f,f,e)", (0, -2, 0)), ("axiom6 (h,f,h)", (0, -4, 0)),
        ("axiom6 (e,h,f)", (0, 0, -2)), ("axiom6 (f,h,e)", (0, 0, -2)),
        ("axiom6 (h,h,e)", (4, 0, 0)), ("axiom6 (h,h,f)", (0, 4, 0)),
    ]
    assert rep.violations == tuple(
        (label, tuple(Fraction(x) for x in r)) for label, r in expected)


def test_every_axiom_term_reported():
    # n2 acting on itself by sparse +-1 tables, chosen so that all six
    # axioms fail and flipping the sign of any one term of any axiom,
    # dropping it, or putting another term of that axiom in its place
    # changes this report
    a = n2()
    z, one = Fraction(0), Fraction(1)
    left = (((z, z), (z, z)), ((one, z), (-one, z)))
    right = (((z, z), (-one, z)), ((z, -one), (-one, z)))
    rep = check_action(LeibnizAction(a, a, left, right))
    expected = [
        ("axiom1 (e1,e1,e1)", (1, 0)), ("axiom1 (e1,e1,e2)", (-1, 0)),
        ("axiom5 (e2,e1,e2)", (1, 0)), ("axiom5 (e2,e2,e2)", (-2, 0)),
        ("axiom3 (e1,e1,e1)", (-1, 0)), ("axiom3 (e2,e1,e1)", (-1, 0)),
        ("axiom3 (e2,e1,e2)", (-1, 0)), ("axiom3 (e2,e2,e1)", (1, 0)),
        ("axiom4 (e1,e1,e1)", (0, -1)), ("axiom2 (e2,e1,e1)", (-1, 0)),
        ("axiom4 (e1,e1,e2)", (-1, 2)), ("axiom2 (e2,e1,e2)", (0, -1)),
        ("axiom4 (e1,e2,e2)", (0, 1)), ("axiom6 (e1,e2,e2)", (0, -2)),
        ("axiom2 (e2,e2,e1)", (0, 1)), ("axiom4 (e2,e1,e2)", (0, 1)),
    ]
    assert rep.violations == tuple(
        (label, tuple(Fraction(x) for x in r)) for label, r in expected)


def quotient_algebra(a, ideal):
    """The quotient algebra by an ideal, with its projection."""
    q, qm = _quotient(a, ideal, f"{a.name}_quot")
    return q, AlgebraHom(a, q, qm.projection)


def test_span_brackets():
    # [a, a] is the base of the derived pair of (a, a, id), and the dense span
    for a, expect in ((k_abelian(2), Subspace.zero(2)), (n2(), span(2, [[0, 1]])),
                      (sl2(), Subspace.full(3))):
        full = Subspace.full(a.dim)
        assert CrossedModule.adjoint_identity(a).derived.base_sub == expect
        assert span_brackets(a, full, full) == expect


def test_center():
    assert center(k_abelian(3)) == Subspace.full(3)
    assert center(n2()) == span(2, [[0, 1]])
    assert center(sl2()) == Subspace.zero(3)
    assert center(heis3()) == span(3, [[0, 0, 1]])


def test_center_brackets_vanish():
    for a in fixture_algebras():
        z = center(a)
        for v in z.basis.entries:
            for i in range(a.dim):
                e = tuple(Fraction(1 if t == i else 0) for t in range(a.dim))
                assert _bracket(a, v, e) == zero_vec(a.dim)
                assert _bracket(a, e, v) == zero_vec(a.dim)


def test_ideal_closure():
    a = n2()
    assert ideal_closure(a, Subspace.zero(2)) == Subspace.zero(2)
    assert ideal_closure(a, span(2, [[1, 0]])) == Subspace.full(2)
    b = k_abelian(3)
    seed = span(3, [[1, 1, 0]])
    assert ideal_closure(b, seed) == seed


def test_derived_is_ideal():
    for a in fixture_algebras() + random_leibniz_corpus(6):
        derived = span_brackets(a, Subspace.full(a.dim), Subspace.full(a.dim))
        assert ideal_closure(a, derived) == derived, a.name


def test_quotient_algebra():
    a = n2()
    q0, h0 = quotient_algebra(a, Subspace.zero(2))
    assert q0.dim == 2 and q0.c == a.c
    assert check_hom(h0).valid

    q1, h1 = quotient_algebra(a, span(2, [[0, 1]]))
    assert q1.dim == 1
    assert q1.c[0][0] == zero_vec(1)
    assert check_hom(h1).valid

    s = sl2()
    q2, _ = quotient_algebra(s, Subspace.full(3))
    assert q2.dim == 0


def test_quotient_rejects_non_ideal():
    xm, line = CrossedModule.adjoint_identity(n2()), span(2, [[1, 0]])
    with pytest.raises(ValueError, match="not a crossed ideal"):
        quotient_xmod(xm, SubPair(xm, line, line))


def test_quotient_stability_randomized():
    for a in random_leibniz_corpus(8):
        derived = ideal_closure(
            a, span_brackets(a, Subspace.full(a.dim), Subspace.full(a.dim)))
        q, h = quotient_algebra(a, derived)
        assert check_leibniz(q).valid
        assert check_hom(h).valid


def test_check_hom():
    a = n2()
    assert check_hom(AlgebraHom.identity(a)).valid
    zero = AlgebraHom(a, k_abelian(2), RatMatrix.zeros(2, 2))
    assert check_hom(zero).valid
    bad = AlgebraHom(a, k_abelian(2), RatMatrix.identity(2))
    rep = check_hom(bad)
    assert not rep.valid
    assert rep.violations[0][0] == "(e1,e1)"


def test_every_hom_term_reported():
    # a linear map sol2 -> r2 on which flipping the sign of either term of
    # f([x,y]) - [f x, f y], dropping it, putting the other term in its
    # place, or swapping its arguments changes this report
    f = AlgebraHom(sol2_lie(), r2_nonlie(), from_rows([[-1, 2], [-1, 0]]))
    expected = [("(e1,e1)", (0, -1)), ("(e1,e2)", (2, 2)), ("(e2,e1)", (-2, 0))]
    assert check_hom(f).violations == tuple(
        (label, tuple(Fraction(x) for x in r)) for label, r in expected)


def test_lie_adjoint_antisymmetry():
    for a in [sl2(), heis3(), sol2_lie()]:
        assert is_lie(a)
        adj = LeibnizAction.adjoint(a)
        assert check_action(adj).valid
        for i in range(a.dim):
            for j in range(a.dim):
                assert adj.left[i][j] == tuple(-x for x in adj.right[j][i])


def test_subalgebra_on():
    a = sl2()
    sub, incl = subalgebra_on(a, span(3, [[1, 0, 0]]), "line_e")
    assert sub.dim == 1 and sub.c[0][0] == zero_vec(1)
    assert incl.column(0) == (Fraction(1), Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        subalgebra_on(a, span(3, [[1, 0, 0], [0, 1, 0]]), "bad")


def test_random_corpus_is_deterministic_and_valid():
    c1 = random_leibniz_corpus(12)
    c2 = random_leibniz_corpus(12)
    assert len(c1) == 12
    assert [a.c for a in c1] == [a.c for a in c2]
    assert all(a.dim <= 3 for a in c1)
    assert any(not is_lie(a) for a in c1)
    assert any(a.dim == 3 for a in c1)
