"""The maps of the six-term sequence against the dense reference.

The connecting map lifts through the induced square maps, and the map
induced on the multipliers, the subalgebra on a subspace and the
inclusion crossed module of an ideal descend and restrict through one
helper each, on the integer twins; _reference_descent.py keeps the dense
routines they replaced, the connecting map through either section policy.  They must
give equal (and equally hashed) matrices, algebras and crossed modules,
and raise the same errors."""

import random

from hypothesis import given
from hypothesis import strategies as st

import _reference_descent as ref
import _reference_xmod as ref_xmod
from _dense import span, unit_vec
from leibxmod.algebra import center, ideal_closure, subalgebra_on
from leibxmod.extensions import Extension
from leibxmod.ratlin import Subspace
from leibxmod.tensor import exterior_square_data, multiplier_functorial_map
from leibxmod.xmod import CrossedModule, SubPair

import helpers
from helpers import (
    central_fixture_extensions,
    fixture_algebras,
    padded_split_extension,
    random_leibniz_corpus,
)
from test_rational_basis import rational_bases, rebased
from test_xmod import ALGEBRAS, POOL, PROPERTY, _outcome, spans


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
