from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_homology as ref
from leibxmod import homology, ratlin
from leibxmod.algebra import LeibnizAlgebra, check_leibniz, is_lie
from leibxmod.homology import boundary, hl
from leibxmod.ratlin import RatMatrix, rank

from _dense import from_rows
from _reference_checks import _bracket, _mul_vec
from helpers import fixture_algebras, k_abelian, n2, random_leibniz_corpus, sl2

PROPERTY = settings(derandomize=True, database=None, max_examples=60,
                    deadline=None)


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


def heisenberg(d):
    """[e_(2i-1), e_(2i)] = e_d = -[e_(2i), e_(2i-1)], zero otherwise."""
    c = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(0, d - 1, 2):
        c[i][i + 1][d - 1] = Fraction(1)
        c[i + 1][i][d - 1] = Fraction(-1)
    return LeibnizAlgebra(f"heis{d}", d, [f"e{i + 1}" for i in range(d)], c)


def test_hl_never_densifies(monkeypatch):
    def densified(*args, **kwargs):
        raise AssertionError("hl built a dense matrix")

    monkeypatch.setattr(homology, "RatMatrix", densified)
    monkeypatch.setattr(ratlin, "_integer_rows", densified)
    q = heisenberg(5)
    # HL_2 is the dimension of the multiplier of (heis5, heis5, id)
    assert (hl(q, 2), hl(q, 3)) == (15, 61)


def test_hl_refuses_before_the_generator_runs(monkeypatch):
    def generated(*args, **kwargs):
        raise AssertionError("an over-budget boundary was generated")

    monkeypatch.setattr(homology, "MAX_BOUNDARY_ENTRIES", 31)
    monkeypatch.setattr(homology, "_images", generated)
    with pytest.raises(ValueError, match=r"d_3 .* 4x8 = 32 entries, over the budget of 31"):
        hl(n2(), 2)


def test_hl_ranks_the_transposed_rows_as_generated(monkeypatch):
    # degree m yields one row per target tensor, d^(m-1) of them, and hl
    # ranks those very lists: no transpose between generator and rank
    images, generated, ranked = homology._images, [], []

    def watched(*args):
        for rows in images(*args):
            generated.append(rows)
            yield rows

    def integer_rank(rows):
        ranked.append(rows)
        return ratlin.integer_rank(rows)

    monkeypatch.setattr(homology, "_images", watched)
    monkeypatch.setattr(homology, "integer_rank", integer_rank)
    assert hl(heisenberg(5), 2) == 15
    assert len(generated) == 3
    for m, rows in enumerate(generated, 1):
        assert len(rows) <= 5 ** (m - 1), m
    assert list(map(id, ranked)) == list(map(id, generated[1:]))


# -- the sparse rows against the old dense boundary --------------------------------

# Zero is drawn often, so that rows cancel; denominators differ, so that
# the common scaling of the constants matters.
RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6, 7, 12])))


@st.composite
def tables(draw):
    """A random bilinear table of dimension at most 3.  The boundary
    formula needs no Leibniz identity, and both sides compute the same
    one, so these are compared too."""
    d = draw(st.integers(0, 3))
    c = [[[draw(RATIONALS) for _ in range(d)] for _ in range(d)] for _ in range(d)]
    return LeibnizAlgebra(f"t{d}", d, [f"e{i + 1}" for i in range(d)], c)


@st.composite
def leibniz_algebras(draw):
    """A valid Leibniz algebra of dimension 2 or 3 from the random
    generator: half-integer cocycles and a unimodular change of basis."""
    corpus = random_leibniz_corpus(3, seed=draw(st.integers(0, 10 ** 6)))
    return corpus[draw(st.integers(0, 2))]


def same_as_reference(q):
    for n in range(1, homology.MAX_BOUNDARY_DEGREE + 1):
        got = boundary(q, n)
        assert got == ref.boundary(q, n), (q.name, n)
        assert all(type(x) is Fraction for r in got.entries for x in r)
    for n in range(1, homology.MAX_BOUNDARY_DEGREE):
        assert hl(q, n) == ref.hl(q, n), (q.name, n)


@PROPERTY
@given(st.one_of(leibniz_algebras(), tables()))
def test_boundary_and_hl_match_reference(q):
    same_as_reference(q)


def test_fixture_boundaries_and_hl_match_reference():
    for q in fixture_algebras() + [heisenberg(5)]:
        same_as_reference(q)


def dense_non_lie_5():
    """n2 + heis3 ([e1, e1] = e2, [e3, e4] = e5 = -[e4, e3]), a Leibniz
    algebra of dimension 5 that is not Lie, conjugated by a product of
    transvections over every ordered pair of basis vectors: nearly every
    structure constant is nonzero, and some have denominator 2."""
    d = 5
    c = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    c[0][0][1] = c[2][3][4] = Fraction(1)
    c[3][2][4] = Fraction(-1)
    a = LeibnizAlgebra("n2+heis3", d, [f"e{i + 1}" for i in range(d)], c)
    g = ginv = RatMatrix.identity(d)
    pairs = [(i, j) for i in range(d) for j in range(d) if i < j]
    pairs += [(j, i) for i, j in pairs]
    for n, (i, j) in enumerate(pairs):
        lam = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2))[n % 4]
        e = [[Fraction(int(r == k)) for k in range(d)] for r in range(d)]
        einv = [row[:] for row in e]
        e[i][j], einv[i][j] = lam, -lam
        g, ginv = g.mul(from_rows(e)), from_rows(einv).mul(ginv)
    dense = [[_mul_vec(ginv, _bracket(a, g.column(i), g.column(j))) for j in range(d)]
             for i in range(d)]
    return LeibnizAlgebra("dense5", d, a.basis_names, dense)


def test_dense_non_lie_dimension_5_matches_reference():
    # the only other dimension-5 case, heis5, is Lie and sparse
    q = dense_non_lie_5()
    assert check_leibniz(q).valid and not is_lie(q)
    assert sum(1 for row in q.c for br in row for x in br if x) > 100
    assert any(x.denominator > 1 for row in q.c for br in row for x in br)
    for n in range(1, homology.MAX_BOUNDARY_DEGREE + 1):
        assert boundary(q, n) == ref.boundary(q, n), n
    assert hl(q, 3) == ref.hl(q, 3)
