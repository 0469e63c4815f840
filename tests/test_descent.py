"""The maps of the six-term sequence against the dense reference.

The connecting map lifts through the induced square maps, and the map
induced on the multipliers, the subalgebra on a subspace and the
inclusion crossed module of an ideal descend and restrict through one
helper each, on the integer twins; _reference_descent.py keeps the dense
routines they replaced, the connecting map through either section policy.  They must
give equal (and equally hashed) matrices, algebras and crossed modules,
and raise the same errors.

The base action on the top square is read off the top evaluation, and
the reference descends the 2 dim q maps of the action on the symbol
ambient instead; the actions must be equal and equally hashed, and the
identity behind the reading (^p t = p * lambda(t) and t^p = lambda(t) *' p
modulo the action rows) must hold on random tables that obey no law."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_descent as ref
import _reference_xmod as ref_xmod
from _dense import span, unit_vec
from leibxmod import cli, tensor
from leibxmod.algebra import (
    LeibnizAction,
    LeibnizAlgebra,
    _pulled_back,
    center,
    check_action,
    ideal_closure,
    subalgebra_on,
)
from leibxmod.extensions import Extension
from leibxmod.ratlin import RatMatrix, Subspace, quotient
from leibxmod.tensor import (
    MutualActionPair,
    _action_rows,
    _symbols,
    exterior_square_data,
    multiplier_functorial_map,
)
from leibxmod.xmod import CrossedModule, SubPair

import helpers
from helpers import (
    center_quotient,
    central_extension_corpus,
    central_fixture_extensions,
    fixture_algebras,
    padded_split_extension,
    random_leibniz_corpus,
)
from test_ladder import load_ladder, rung_algebra
from test_rational_basis import rational_bases, rebased, rebased_xmod
from test_xmod import ALGEBRAS, FIXTURES, POOL, PROPERTY, _outcome, spans


def _socle_extension(base, socle_dim, seed, top_too):
    """(A, A, id) for the central extension A of base by a socle t of
    dimension socle_dim (helpers._central_extension), divided by the
    central crossed ideal (t, t), or (0, t) when not top_too."""
    a = helpers._central_extension(base, socle_dim, random.Random(seed), "A")
    xm = CrossedModule.adjoint_identity(a)
    t = span(a.dim, [unit_vec(a.dim, k) for k in range(base.dim, a.dim)])
    return Extension.from_quotient_by(
        xm, SubPair(xm, t if top_too else Subspace.zero(a.dim), t),
        name=f"{base.name}+{socle_dim}")


@st.composite
def central_extensions(draw):
    """A fixture central extension, the padded split extension of a crossed
    module of the pool, or a socle extension of a catalogue algebra."""
    how = draw(st.sampled_from(["fixture", "split", "socle"]))
    if how == "fixture":
        return draw(st.sampled_from(central_fixture_extensions()))
    if how == "split":
        return padded_split_extension(draw(st.sampled_from(POOL)))
    base = draw(st.sampled_from(helpers._CATALOGUE[1] + helpers._CATALOGUE[2]))
    return _socle_extension(base, draw(st.integers(1, 2)),
                            draw(st.integers(0, 2**16)), draw(st.booleans()))


def test_connecting_and_multiplier_maps_match_the_dense_reference():
    names = set()

    @PROPERTY
    @given(st.data())
    def check(data):
        e = data.draw(central_extensions())
        assert e.flags.central
        kxm, _ = e.kernel_xmod
        got = (e.theta.top_map, e.theta.base_map)
        for skew in (False, True):
            expect = ref._theta_matrices(e, kxm, skew)
            assert got == expect and hash(got) == hash(expect)
        got = multiplier_functorial_map(e.proj)
        assert got == ref.multiplier_functorial_map(e.proj)
        names.add(e.name)

    check()
    # every kind of draw was reached
    assert {"n2_over_k", "(n2,n2,id)_split"} <= names
    assert any(n.endswith("+1") for n in names) and any(n.endswith("+2") for n in names)


CLOSURE_ALGEBRAS = fixture_algebras() + random_leibniz_corpus()


@st.composite
def closure_seeds(draw):
    """("span", a, s) for a fixture algebra or one of the random Leibniz
    corpus and a span s in it, or ("one-leg", a, s) for the top square a of
    a central extension's total and the one-leg span s of the kernel."""
    if draw(st.booleans()):
        a = draw(st.sampled_from(CLOSURE_ALGEBRAS))
        return "span", a, draw(spans(a.dim))
    e = draw(central_extensions())
    return "one-leg", exterior_square_data(e.total).qn.resolved, e.one_leg[0]


def test_ideal_closure_matches_the_dense_reference():
    met = set()

    @PROPERTY
    @given(closure_seeds())
    def check(drawn):
        kind, a, s = drawn
        got, expect = ideal_closure(a, s), ref_xmod.ideal_closure(a, s)
        assert got == expect and hash(got) == hash(expect)
        met.add((kind, got != s))

    check()
    # one-leg spans are ideals already; some spans grow and some do not
    assert met == {("one-leg", False), ("span", False), ("span", True)}


@st.composite
def rebased_subspaces(draw):
    """An algebra of the pool in a basis with denominators 2 and 3, and its
    derived algebra, its center, the ideal closure of a span, or a span."""
    a = draw(st.sampled_from(ALGEBRAS))
    a = rebased(a, draw(rational_bases(a.dim)))
    full = Subspace.full(a.dim)
    how = draw(st.sampled_from(["derived", "center", "closure", "span"]))
    if how == "derived":
        return a, ref_xmod.span_brackets(a, full, full)
    if how == "center":
        return a, center(a)
    s = draw(spans(a.dim))
    return a, ideal_closure(a, s) if how == "closure" else s


def test_inclusions_and_subalgebras_match_the_dense_reference():
    outcomes = set()

    @PROPERTY
    @given(rebased_subspaces())
    def check(drawn):
        a, s = drawn
        for f, g, args in ((subalgebra_on, ref.subalgebra_on, (a, s, "sub")),
                           (CrossedModule.inclusion, ref.inclusion, (a, s))):
            got, expect = _outcome(f, *args), _outcome(g, *args)
            assert got == expect and hash(got) == hash(expect)
            failed = isinstance(got, tuple) and got[0] is ValueError
            outcomes.add(got[1] if failed else type(got).__name__)

    check()
    assert {"tuple", "CrossedModule", "subspace is not bracket-closed"} <= outcomes
    assert any(o.startswith("subspace is not a two-sided ideal") for o in outcomes)
    # a subspace of another ambient dimension is refused before any bracket
    a, s = ALGEBRAS[3], Subspace.full(ALGEBRAS[3].dim + 1)
    assert (_outcome(CrossedModule.inclusion, a, s) == _outcome(ref.inclusion, a, s)
            == (ValueError, "seed/algebra dimension mismatch"))


@pytest.fixture
def base_actions(monkeypatch):
    """The actions _squares pulls back, recorded as they are made."""
    made, real = [], tensor._pulled_back
    monkeypatch.setattr(tensor, "_pulled_back", lambda act, *a: made.append(act) or real(act, *a))
    return made


def _check_base_action(xm, made):
    """On the squares of a new copy of xm, the base action on the top
    square equals the reference's descent, and the action of the base
    square is the reference's pulled back through mu."""
    xm = dataclasses.replace(xm)
    made.clear()
    esd = exterior_square_data(xm)
    got = [a for a in made if a.acted is esd.qn.resolved]
    expect = ref.base_on_top(xm, esd.qn)
    assert got == [expect] and hash(got[0]) == hash(expect), xm.name
    pulled = _pulled_back(expect, esd.qq.resolved, esd.mu_q.matrix.zcols)
    assert esd.action == pulled and hash(esd.action) == hash(pulled), xm.name


def test_base_action_matches_the_descended_reference(base_actions):
    xms = [cli.load_fixture(p) for p in sorted(FIXTURES.glob("*.xmod"))]
    xms += [CrossedModule.adjoint_identity(q)
            for q in fixture_algebras() + random_leibniz_corpus(12)]
    for e in central_fixture_extensions() + central_extension_corpus(0):
        xms += [e.total, e.quotient]
    distinct = list(dict.fromkeys(xms))
    for xm in distinct:
        _check_base_action(xm, base_actions)
    assert len(xms) == 6 + 6 + 12 + 2 * (7 + 248) and len(distinct) >= 350


def test_base_action_matches_the_descended_reference_in_rational_bases(base_actions):
    @PROPERTY
    @given(st.data())
    def check(data):
        xm = data.draw(st.sampled_from(POOL))
        _check_base_action(rebased_xmod(xm, data.draw(rational_bases(xm.top.dim)),
                                        data.draw(rational_bases(xm.base.dim))), base_actions)
        names.append(xm.name)

    names = []
    check()
    assert len(names) == 60 and len(set(names)) >= 15


@pytest.mark.parametrize("name", ["heis9", "sl2x5", "tri6"])
def test_base_action_matches_the_descended_reference_on_ladder_center_quotients(
        base_actions, name):
    e = center_quotient(CrossedModule.adjoint_identity(rung_algebra(load_ladder(), name)), name)
    for xm in (e.total, e.quotient):
        _check_base_action(xm, base_actions)


@st.composite
def mutual_action_pairs(draw):
    """Algebras m and n of dimension 1 to 4 acting on each other, every
    table drawn entry by entry, mostly zero, with no law imposed.  The
    bracket of n and the action of n on m are zero in about half the
    draws: the identity below reads neither, and without their rows the
    action rows span a proper subspace more often."""
    value = st.sampled_from([0] * 24 + [1, -1, 2, Fraction(1, 2)])

    def table(rows, cols, d, zero=False):
        return tuple(tuple(tuple(Fraction(0 if zero else draw(value)) for _ in range(d))
                           for _ in range(cols)) for _ in range(rows))

    dm, dn, off = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.booleans())
    m = LeibnizAlgebra("m", dm, tuple(f"x{i}" for i in range(dm)), table(dm, dm, dm))
    n = LeibnizAlgebra("n", dn, tuple(f"y{i}" for i in range(dn)), table(dn, dn, dn, off))
    return MutualActionPair(m, n, LeibnizAction(m, n, table(dm, dn, dn), table(dn, dm, dn)),
                            LeibnizAction(n, m, table(dn, dm, dm, off), table(dm, dn, dm, off)))


def test_base_action_on_symbols_is_the_evaluation_modulo_the_action_rows():
    # the reference's images of each symbol t under p of m, on the left and
    # on the right, minus p * ev1(t) and ev1(t) *' p: in the span of the
    # action rows, whatever the tables
    invalid, checked = [], []

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(mutual_action_pairs())
    def check(pair):
        dm, dn = pair.m.dim, pair.n.dim
        xm = CrossedModule("probe", pair.n, pair.m, RatMatrix.zeros(dm, dn), pair.m_on_n)
        den, left, right = ref._base_action_on_ambient(xm, dn)
        (_, d), ev = pair.zevaluations
        rows = quotient(2 * dm * dn, Subspace.from_integer_rows(2 * dm * dn, _action_rows(pair)))
        for p in range(dm):
            unit = ((p, 1),)
            for t, v in enumerate(ev[1]):
                for image, term in ((left[p][t], (1, 0, unit, v)), (right[p][t], (1, 1, v, unit))):
                    diff = {k: d * c for k, c in image}
                    for k, c in _symbols(dm, dn, [term]).items():
                        diff[k] = diff.get(k, 0) - den * c
                    assert rows.kills(diff.items()), (p, t)
                    checked.append(rows.dim > 0 and any(diff.values()))
        invalid.append(not check_action(pair.m_on_n).valid)

    check()
    # nonzero differences tested against a proper subspace, on invalid tables
    assert sum(checked) >= 1000 and sum(invalid) >= 150
