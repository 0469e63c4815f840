"""Subspaces held as canonical integer rows, against the dense oracle."""

from fractions import Fraction
from math import gcd
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_subspace as ref
from _dense import from_columns, integer_entries, span
from helpers import zero_pair
from leibxmod import cli, ratlin
from leibxmod.algebra import _pairwise, ideal_closure
from leibxmod.ratlin import (
    Subspace,
    _restriction,
    column_space,
    kernel,
    sparse_kernel,
)
from test_ratlin import intersect
from leibxmod.xmod import (
    SubPair,
    center_xmod,
    commutator,
    crossed_ideal_closure,
    derived_xmod,
    is_crossed_ideal,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

PROPERTY = settings(derandomize=True, database=None, max_examples=200,
                    deadline=None)

# Zero is drawn often, so that vectors vanish and spans collapse.
RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6, 7, 12])))


@st.composite
def generators(draw, n):
    """Rational vectors of length n with mixed denominators: free ones,
    zero ones, repeats and rational combinations of earlier ones."""
    out = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["free", "free", "zero", "copy", "mix"]))
        if kind == "zero" or (kind in ("copy", "mix") and not out):
            out.append((Fraction(0),) * n)
        elif kind == "free":
            out.append(tuple(draw(RATIONALS) for _ in range(n)))
        elif kind == "copy":
            out.append(draw(st.sampled_from(out)))
        else:
            acc = [Fraction(0)] * n
            for v in out:
                c = draw(RATIONALS)
                acc = [a + c * x for a, x in zip(acc, v)]
            out.append(tuple(acc))
    return out


@st.composite
def subspaces(draw, n):
    """(library subspace, reference subspace, generators) of QQ^n: the
    zero and the full subspace, or the span of drawn generators."""
    kind = draw(st.sampled_from(["span", "span", "span", "zero", "full"]))
    if kind == "zero":
        return Subspace.zero(n), ref.Subspace.zero(n), []
    if kind == "full":
        units = [tuple(Fraction(int(i == k)) for k in range(n)) for i in range(n)]
        return Subspace.full(n), ref.Subspace.full(n), units
    gens = draw(generators(n))
    return span(n, gens), ref.Subspace.from_vectors(n, gens), gens


@st.composite
def probes(draw, n, gens):
    """A vector of length n: a combination of gens (so a member), a free
    one, or, rarely, one of the wrong length."""
    kind = draw(st.sampled_from(["member", "member", "free", "short"]))
    if kind == "short":
        return tuple(draw(RATIONALS) for _ in range(n + 1))
    acc = [Fraction(0)] * n
    if kind == "member":
        for v in gens:
            c = draw(RATIONALS)
            acc = [a + c * x for a, x in zip(acc, v)]
        return tuple(acc)
    return tuple(draw(RATIONALS) for _ in range(n))


def outcome(f, *args):
    """The value of f(*args), a subspace as its basis and pivots, or the
    type and message of what it raised."""
    try:
        out = f(*args)
    except Exception as ex:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(ex), str(ex))
    if isinstance(out, (Subspace, ref.Subspace)):
        return ("value", out.basis, out.pivots)
    return ("value", out)


@PROPERTY
@given(st.data())
def test_views_match_the_dense_reference(data):
    n = data.draw(st.integers(0, 5))
    s, r, gens = data.draw(subspaces(n))
    assert (s.basis, s.pivots, s.dim) == (r.basis, r.pivots, r.dim)
    assert s.zbasis == ref._twin(r)
    assert Subspace.from_integer_rows(n, [integer_entries(v)[1] for v in gens]) == s
    m = from_columns(gens, rows=n)
    assert outcome(column_space, m) == outcome(
        ref.Subspace.from_vectors, n, [m.column(j) for j in range(m.cols)])


@PROPERTY
@given(st.data())
def test_every_method_matches_the_dense_reference(data):
    n = data.draw(st.integers(0, 5))
    a, ra, gens = data.draw(subspaces(n))
    m = n if data.draw(st.integers(0, 9)) else n + 1  # rarely a mismatch
    b, rb, _ = data.draw(subspaces(m))
    assert (a == b) == (ra == rb)
    for name in ("contains_subspace", "add"):
        assert outcome(getattr(a, name), b) == outcome(getattr(ra, name), rb)
    assert outcome(intersect, a, b) == outcome(ra.intersect, rb)
    for _ in range(3):
        # membership of a vector is containment of its span, on int rows
        v = data.draw(probes(n, gens))
        assert (outcome(lambda: a.contains_subspace(span(n, [v])))
                == outcome(ra.contains_vector, v))


@PROPERTY
@given(st.data())
def test_restriction_matches_the_dense_reference(data):
    n = data.draw(st.integers(0, 5))
    s, r, gens = data.draw(subspaces(n))
    vectors = [integer_entries(data.draw(probes(n, gens).filter(
        lambda v: len(v) == n)))[1] for _ in range(data.draw(st.integers(0, 3)))]
    twin = (data.draw(st.integers(1, 12)), tuple(vectors))
    assert _restriction(s, twin) == ref._restriction(r, twin)


@PROPERTY
@given(st.data())
def test_canonical_rows_do_not_depend_on_the_generators(data):
    n = data.draw(st.integers(0, 5))
    gens = data.draw(generators(n))
    s = span(n, gens)
    scaled = [tuple(c * x for x in v)
              for v, c in zip(gens, data.draw(st.lists(
                  RATIONALS.filter(bool), min_size=len(gens), max_size=len(gens))))]
    moved = data.draw(st.permutations(scaled))
    extra = data.draw(st.lists(st.sampled_from(gens), max_size=2)) if gens else []
    t = span(n, moved + extra)
    assert t == s and hash(t) == hash(s)
    for p, row in zip(s.pivots, s.zrows):
        assert [k for k, _ in row] == sorted({k for k, _ in row})
        assert row[0][0] == p and row[0][1] > 0
        assert gcd(*[v for _, v in row]) == 1


def _raise(*args, **kwargs):
    raise AssertionError("a Fraction was created")


def test_subspace_operations_create_no_fraction(monkeypatch):
    # the structure theory reads and builds subspaces as int rows only: no
    # dense RREF, and no Fraction in the subspace layer
    xms = [cli.load_fixture(FIXTURES / name) for name in (
        "heis3_id.xmod", "n2_id.xmod", "n2pad.xmod", "sl2_id.xmod",
        "zero_k.xmod", "zero_n2.xmod")]
    xms += [cli.load_fixture(FIXTURES / name).total for name in (
        "n2_over_k.extension", "split_over_n2.extension")]
    monkeypatch.setattr(ratlin, "Fraction", _raise)
    out = []
    for xm in xms:
        top, base = xm.top, xm.base
        full, zero = xm.full_pair(), zero_pair(xm)
        seed = SubPair(xm, Subspace.from_integer_rows(top.dim, [((0, 1),)] if top.dim else []),
                       Subspace.zero(base.dim))
        closed = crossed_ideal_closure(xm, seed)
        assert is_crossed_ideal(xm, closed) and is_crossed_ideal(xm, zero)
        derived = derived_xmod(xm)
        z = center_xmod(xm)
        pairs = [closed, derived, z, commutator(xm, derived, full)]
        spans = [Subspace.from_integer_rows(top.dim, _pairwise(
                     top.zst, full.top_sub.zbasis, closed.top_sub.zbasis)),
                 ideal_closure(top, seed.top_sub), kernel(xm.delta),
                 sparse_kernel(base.dim, xm.delta.zcols[1])]
        subs = [s for p in pairs for s in (p.top_sub, p.base_sub)] + spans
        for a in subs:
            for b in subs:
                if a.ambient_dim == b.ambient_dim:
                    out += [a.add(b), intersect(a, b)]
                    assert a.contains_subspace(b) == (a.add(b) == a)
        out += subs
    assert out and not [s for s in out if "basis" in vars(s)]
