from fractions import Fraction

import pytest

from leibxmod import homology
from leibxmod.homology import boundary, hl
from leibxmod.ratlin import RatMatrix, rank

from helpers import fixture_algebras, k_abelian, n2, random_leibniz_corpus, sl2


def test_boundary_abelian_is_zero():
    q = k_abelian(2)
    for n in range(1, 5):
        assert boundary(q, n).is_zero()


def test_boundary_degree_range():
    with pytest.raises(ValueError):
        boundary(n2(), 5)
    with pytest.raises(ValueError):
        boundary(n2(), 0)
    with pytest.raises(ValueError):
        hl(n2(), 4)


def test_n2_d2():
    # d2(x (x) y) = [x, y]: only e1 (x) e1 -> e2 survives
    d2 = boundary(n2(), 2)
    assert d2.column(0) == (Fraction(0), Fraction(1))
    assert all(d2.column(j) == (Fraction(0), Fraction(0)) for j in range(1, 4))
    assert rank(d2) == 1


def test_n2_d3_rank():
    # hand expansion: image is spanned by e1 (x) e2 and e2 (x) e2
    d3 = boundary(n2(), 3)
    assert rank(d3) == 2
    # d3(e1 (x) e1 (x) e1) = [e1,e1](x)e1 - [e1,e1](x)e1 - e1(x)[e1,e1] = -e1(x)e2
    img = d3.column(0)
    expect = [Fraction(0)] * 4
    expect[0 * 2 + 1] = Fraction(-1)
    assert img == tuple(expect)


def test_complex_property_d_compose_d_zero():
    for q in fixture_algebras() + random_leibniz_corpus(8):
        for n in (2, 3, 4):
            dn = boundary(q, n)
            dn1 = boundary(q, n - 1)
            assert dn1.mul(dn).is_zero(), (q.name, n)


def test_hl_abelian():
    for d in (1, 2, 3):
        q = k_abelian(d)
        assert hl(q, 1) == d
        assert hl(q, 2) == d * d


def test_hl_n2():
    assert hl(n2(), 2) == 1


def test_hl_sl2():
    assert hl(sl2(), 2) == 0


def test_hl_degree_zero_and_one():
    assert hl(sl2(), 0) == 1
    # HL_1 = q / [q,q]
    assert hl(sl2(), 1) == 0
    assert hl(n2(), 1) == 1


def test_size_budget_refuses_before_allocation(monkeypatch):
    # n2 has dim 2: d_2 is 2x4 (8 entries), d_3 is 4x8 (32 entries)
    monkeypatch.setattr(homology, "MAX_BOUNDARY_ENTRIES", 31)
    assert boundary(n2(), 2).rows == 2
    assert hl(n2(), 1) == 1  # needs d_1 and d_2 only

    def no_allocation(*args, **kwargs):
        raise AssertionError("an over-budget boundary was allocated")

    monkeypatch.setattr(homology, "RatMatrix", no_allocation)
    with pytest.raises(ValueError, match=r"d_3 .* 4x8 = 32 entries, over the budget of 31"):
        boundary(n2(), 3)
    # hl(q, 2) needs d_3 as well, and refuses before building d_2
    with pytest.raises(ValueError, match=r"d_3 .* 32 entries"):
        hl(n2(), 2)


def test_size_budget_admits_dimension_5_degree_4():
    assert 5 ** 3 * 5 ** 4 <= homology.MAX_BOUNDARY_ENTRIES
