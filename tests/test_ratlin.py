import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_rref as ref
from _dense import from_columns, from_rows, span, vec, zero_vec
from _reference_checks import _mul_vec
from _reference_descent import coords
from _reference_quotient import contains_vector
from leibxmod.cli import FixtureError, _rat
from leibxmod.ratlin import (
    RatMatrix,
    Subspace,
    _eliminate,
    _primitive,
    column_space,
    kernel,
    quotient,
    rank,
    solve_matrix,
    sparse_kernel,
)

from leibxmod.tensor import MutualActionPair, _action_rows, _agreement_rows, _glue
from leibxmod.xmod import CrossedModule
from test_ladder import load_ladder, rung_algebra

QQ = Fraction


def M(rows):
    return from_rows(rows)


def rref(m):
    """The reduced row echelon form of the row space of m and its pivots:
    the canonical basis of the span of its rows."""
    s = column_space(m.transpose())
    return s.basis, s.pivots


def solve(m, b):
    """One solution of m x = b, free variables zero: a column of solve_matrix."""
    return solve_matrix(m, from_columns([b], rows=m.rows)).column(0)


def intersect(a, b):
    """The annihilator of the sum of the annihilators of a and b."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = a.ambient_dim
    return sparse_kernel(n, sparse_kernel(n, a.zrows).zrows + sparse_kernel(n, b.zrows).zrows)


def test_rat_coercion():
    # the fixture reader is the one coercion of rationals: strings only
    assert _rat("3", "x") == QQ(3)
    assert _rat("2/6", "x") == QQ(1, 3)
    assert _rat("-5", "x") == QQ(-5)
    for bad in ("1/0", 0.5, 3):
        with pytest.raises(FixtureError):
            _rat(bad, "x")


def test_rref_dependent_rows_collapse():
    r, piv = rref(M([[1, 2], [2, 4]]))
    assert r == M([[1, 2]])
    assert piv == (0,)


def test_rref_identity():
    r, piv = rref(RatMatrix.identity(3))
    assert r == RatMatrix.identity(3)
    assert piv == (0, 1, 2)


def test_rref_permutation():
    r, piv = rref(M([[0, 1], [1, 0]]))
    assert r == RatMatrix.identity(2)
    assert piv == (0, 1)


def test_kernel_zero_matrix():
    k = kernel(RatMatrix.zeros(2, 3))
    assert k == Subspace.full(3)


def test_kernel_identity():
    assert kernel(RatMatrix.identity(2)) == Subspace.zero(2)


def test_kernel_rank_nullity_example():
    k = kernel(M([[1, 1]]))
    assert k.dim == 1
    assert contains_vector(k, vec([1, -1]))


def test_subspace_sum_and_intersection():
    a = span(2, [[1, 0]])
    b = span(2, [[0, 1]])
    assert a.add(b) == Subspace.full(2)
    assert intersect(a, b) == Subspace.zero(2)
    c = span(2, [[1, 1], [1, 0]])
    d = span(2, [[1, 1]])
    assert intersect(c, d) == d


def test_membership_and_coords():
    s = span(3, [[1, 0, 2], [0, 1, -1]])
    assert contains_vector(s, [1, 1, 1])
    assert not contains_vector(s, [0, 0, 1])
    co = coords(s, vec([1, 1, 1]))
    back = [QQ(0)] * 3
    for c, row in zip(co, s.basis.entries):
        for k, a in enumerate(row):
            back[k] += c * a
    assert tuple(back) == vec([1, 1, 1])


def test_quotient_line():
    qm = quotient(2, span(2, [[1, 0]]))
    assert qm.dim == 1
    assert _mul_vec(qm.section, vec([1])) == vec([0, 1])
    assert _mul_vec(qm.projection, vec([5, 7])) == vec([7])


def test_quotient_by_zero_is_identity():
    qm = quotient(3, Subspace.zero(3))
    assert qm.projection == RatMatrix.identity(3)
    assert qm.section == RatMatrix.identity(3)


def test_quotient_by_full_space():
    qm = quotient(2, Subspace.full(2))
    assert qm.dim == 0


def test_solve():
    m = M([[1, 2], [0, 1]])
    x = solve(m, [3, 1])
    assert _mul_vec(m, x) == vec([3, 1])
    with pytest.raises(ValueError):
        solve(M([[1, 1], [1, 1]]), [0, 1])
    sm = solve_matrix(m, RatMatrix.identity(2))
    assert m.mul(sm) == RatMatrix.identity(2)


def random_matrix(rng, rows, cols):
    return from_rows(
        [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
         for _ in range(rows)],
        cols=cols)


def test_rank_nullity_randomized():
    rng = random.Random(20250817)
    for _ in range(40):
        rows, cols = rng.randint(0, 5), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        assert rank(m) + kernel(m).dim == cols
        for v in kernel(m).basis.entries:
            assert _mul_vec(m, v) == zero_vec(rows)


def test_rref_canonical_and_row_space_preserving():
    rng = random.Random(7)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        r, piv = rref(m)
        r2, piv2 = rref(r)
        assert (r2, piv2) == (r, piv)
        s1 = span(cols, m.entries)
        s2 = span(cols, r.entries)
        assert s1 == s2
        assert list(piv) == sorted(piv)


def test_quotient_contract_randomized():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 6)
        gens = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                for _ in range(rng.randint(0, n))]
        r = span(n, gens)
        qm = quotient(n, r)
        assert qm.projection.mul(qm.section) == RatMatrix.identity(qm.dim)
        assert kernel(qm.projection) == r
        for v in r.basis.entries:
            assert _mul_vec(qm.projection, v) == zero_vec(qm.dim)


def test_sum_intersection_dimension_formula():
    rng = random.Random(4242)
    for _ in range(30):
        n = rng.randint(1, 6)
        a = span(
            n, [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                for _ in range(rng.randint(0, n))])
        b = span(
            n, [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                for _ in range(rng.randint(0, n))])
        inter = intersect(a, b)
        assert a.add(b).dim == a.dim + b.dim - inter.dim
        assert a.contains_subspace(inter) and b.contains_subspace(inter)


def test_column_space():
    m = M([[1, 0], [0, 0]])
    assert column_space(m) == span(2, [[1, 0]])


def test_determinism_bitwise():
    rows = [[Fraction(1, 3), Fraction(2)], [Fraction(2, 3), Fraction(4)]]
    outs = {rref(M(rows)) for _ in range(3)}
    assert len(outs) == 1


# -- differential and invariance properties -------------------------------------

PROPERTY = settings(derandomize=True, database=None, max_examples=200,
                    deadline=None)

# Zero is drawn often, so that rows and columns vanish and ranks drop.
RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6, 7, 12])))


@st.composite
def matrices(draw, rows=None, cols=None):
    """Matrices with mixed denominators, including 0-row and 0-column
    shapes, zero rows, repeated rows and rational combinations of rows."""
    if rows is None:
        rows = draw(st.integers(0, 8))
    if cols is None:
        cols = draw(st.integers(0, 7))
    base = [[draw(RATIONALS) for _ in range(cols)]
            for _ in range(draw(st.integers(1, 4)))]
    out = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["free", "free", "zero", "copy", "mix"]))
        if kind == "free":
            out.append([draw(RATIONALS) for _ in range(cols)])
        elif kind == "zero":
            out.append([Fraction(0)] * cols)
        elif kind == "copy":
            out.append(list(draw(st.sampled_from(base))))
        else:
            acc = [Fraction(0)] * cols
            for b in base:
                c = draw(RATIONALS)
                acc = [a + c * x for a, x in zip(acc, b)]
            out.append(acc)
    return RatMatrix(rows, cols, tuple(tuple(r) for r in out))


@st.composite
def systems(draw):
    """(m, rhs) with rhs columns that are consistent (m x) or arbitrary."""
    m = draw(matrices())
    cols = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            cols.append(_mul_vec(m, [draw(RATIONALS) for _ in range(m.cols)]))
        else:
            cols.append(tuple(draw(RATIONALS) for _ in range(m.rows)))
    rhs = RatMatrix(m.rows, len(cols),
                    tuple(tuple(c[i] for c in cols) for i in range(m.rows)))
    return m, rhs


def outcome(f, *args):
    """The value of f(*args), or the type and message of what it raised."""
    try:
        return ("value", f(*args))
    except Exception as ex:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(ex), str(ex))


@PROPERTY
@given(matrices())
def test_rref_rank_kernel_match_reference(m):
    assert rref(m) == ref.rref(m)
    assert rank(m) == ref.rank(m)
    k = kernel(m)
    assert (k.basis, k.pivots) == ref.kernel(m)


@PROPERTY
@given(systems())
def test_solve_matches_reference(system):
    m, rhs = system
    assert outcome(solve_matrix, m, rhs) == outcome(ref.solve_matrix, m, rhs)
    for j in range(rhs.cols):
        b = rhs.column(j)
        assert outcome(solve, m, b) == outcome(ref.solve, m, b)


def test_solve_shape_errors_match_reference():
    m = M([[1, 2], [3, 4]])
    rhs = RatMatrix.identity(3)
    assert outcome(solve_matrix, m, rhs) == outcome(ref.solve_matrix, m, rhs)


@PROPERTY
@given(st.data())
def test_rref_invariant_under_row_operations(data):
    """The rref of a row space cannot depend on which row supplies a pivot:
    permuting rows, scaling a row by a nonzero rational and adding one row
    to another leave it unchanged."""
    m = data.draw(matrices())
    rows = [list(r) for r in m.entries]
    expect = rref(m)
    perm = data.draw(st.permutations(range(m.rows)))
    moved = [rows[i] for i in perm]
    assert rref(RatMatrix(m.rows, m.cols, tuple(map(tuple, moved)))) == expect
    if m.rows:
        i = data.draw(st.integers(0, m.rows - 1))
        j = data.draw(st.integers(0, m.rows - 1))
        s = data.draw(RATIONALS.filter(bool))
        scaled = [list(r) for r in rows]
        scaled[i] = [s * x for x in scaled[i]]
        assert rref(RatMatrix(m.rows, m.cols, tuple(map(tuple, scaled)))) == expect
        if i != j:
            added = [list(r) for r in rows]
            added[i] = [a + b for a, b in zip(added[i], added[j])]
            assert rref(RatMatrix(m.rows, m.cols, tuple(map(tuple, added)))) == expect


def _same_elimination(rows):
    """_eliminate and the old one give the same pivots and rows, int for
    int, with the Gauss-Jordan pass and without, on primitive rows."""
    for reduce in (True, False):
        assert _eliminate([dict(r) for r in rows], reduce) == ref.eliminate(
            [dict(r) for r in rows], reduce)


@PROPERTY
@given(st.lists(st.dictionaries(st.integers(0, 11), st.integers(-6, 6).filter(bool),
                                min_size=1, max_size=7), max_size=14))
def test_eliminate_matches_the_old_gauss_jordan_pass_on_random_rows(rows):
    _same_elimination([_primitive(r) for r in rows])


def test_eliminate_matches_the_old_gauss_jordan_pass_on_ladder_relation_rows():
    # the rows the squares of (q, q, id) eliminate: every action rule on
    # both sides, the agreement rows and the glue generators
    ladder = load_ladder()
    for name in ("heis7", "sl2+sl2", "tri6", "free2-7"):
        qid = CrossedModule.adjoint_identity(rung_algebra(ladder, name))
        pair = MutualActionPair.from_shared_base(qid, qid)
        rows = _action_rows(pair) + _agreement_rows(pair) + _glue(qid, qid)
        _same_elimination([_primitive(dict(r)) for r in rows if r])
