"""The squares over a base with the identity, against the full evaluations.

Where the first crossed module of a square is an adjoint identity (q, q,
id), as for every square a command builds, the library reads five
families off work it does anyway: the glue's pullback off delta, no
agreement rows, well-definedness on block 0 alone, one annihilator for
both parts of an adjoint identity's center, and one product for the four
laws of the multiplier of a (q, q, id).  Each is compared here with the
full evaluation of _reference_squares on the fixtures, the central
extension corpus, perfbench's densified (q, q, id), the ladder's heis7 and
tri6 and crossed modules in rational bases; the loader's int fast path is
compared with Fraction.  The two centrality checks of the squares are made
to fire, on an adjoint identity and on a crossed module that is not one.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_squares as ref
from leibxmod import cli, ratlin, tensor
from leibxmod.algebra import center
from leibxmod.ratlin import Subspace, quotient
from leibxmod.tensor import _glue, _well_defined, exterior_presentation, exterior_square_data
from leibxmod.xmod import CrossedModule, check_xmod, is_adjoint_identity

from helpers import (
    central_extension_corpus,
    central_fixture_extensions,
    direct_sum,
    fixture_algebras,
    k_abelian,
    sl2,
)
from test_ladder import load_ladder, rung_algebra
from test_quotient import _perfbench_generator
from test_rational_basis import rational_bases, rebased, rebased_xmod

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def same_as_full_evaluation(xm) -> None:
    """The relations, glue span, well-definedness verdict, centers and
    multiplier of the squares of xm are those of the full evaluations."""
    esd = exterior_square_data(xm)
    qid = CrossedModule.adjoint_identity(xm.base)
    for pres, delta in ((esd.qn, xm), (esd.qq, qid)):
        amb = pres.ambient_dim
        assert pres.relations == ref.exterior_relations(qid, delta), pres.name
        assert (Subspace.from_integer_rows(amb, _glue(qid, delta))
                == Subspace.from_integer_rows(amb, ref.glue(qid, delta))), pres.name
        assert ref.well_defined(pres.pair, pres.qmap), pres.name
    mult = esd.multiplier
    assert mult == ref.multiplier(esd), xm.name
    for x in (xm, esd.induced_xmod, mult[0]):
        assert x.center == ref.center(x), x.name


def test_fixtures_match_the_full_evaluation():
    xms = [xm for xm in map(cli.load_fixture, sorted(FIXTURES.glob("*.xmod")))
           if check_xmod(xm).valid]
    assert sum(map(is_adjoint_identity, xms)) >= 3 and not all(map(is_adjoint_identity, xms))
    for xm in xms:
        same_as_full_evaluation(xm)


def test_the_central_extension_corpus_matches_the_full_evaluation():
    for e in central_extension_corpus(0):
        for xm in (e.total, e.quotient):
            same_as_full_evaluation(xm)
        # the kernel-base square of the one-leg ideal, over (q, q, id) too
        qid = CrossedModule.adjoint_identity(e.total.base)
        bxm = CrossedModule.inclusion(e.total.base, e.kernel.base_sub)
        assert (exterior_presentation(qid, bxm).relations
                == ref.exterior_relations(qid, bxm)), e.name


def test_perfbench_squares_match_the_full_evaluation(tmp_path):
    gen = _perfbench_generator()
    jobs = gen.squares_jobs(gen.Draws(201), tmp_path)
    assert len(jobs) >= 15
    for job in jobs:
        same_as_full_evaluation(cli.load_fixture(job["path"]))


def test_ladder_rungs_match_the_full_evaluation():
    ladder = load_ladder()
    for name in ("heis7", "tri6"):
        q = rung_algebra(ladder, name)
        same_as_full_evaluation(CrossedModule.adjoint_identity(q))
        same_as_full_evaluation(CrossedModule.inclusion(q, center(q)))


PROPERTY = settings(derandomize=True, database=None, max_examples=20, deadline=None)


@PROPERTY
@given(st.data())
def test_crossed_modules_in_rational_bases_match_the_full_evaluation(data):
    # top and base rebased apart, so that delta and the action have twins
    # with denominators; an algebra's adjoint identity in one rational basis
    xm = data.draw(st.sampled_from([e.total for e in central_fixture_extensions()]))
    same_as_full_evaluation(rebased_xmod(xm, data.draw(rational_bases(xm.top.dim)),
                                         data.draw(rational_bases(xm.base.dim))))
    a = data.draw(st.sampled_from(fixture_algebras()))
    same_as_full_evaluation(CrossedModule.adjoint_identity(
        rebased(a, data.draw(rational_bases(a.dim)))))


def test_block_0_decides_well_definedness_over_the_glue():
    # on the square of a (q, q, id), any relation subspace that holds the
    # glue gets one verdict from block 0 alone and from both blocks
    squares = [exterior_square_data(CrossedModule.adjoint_identity(a)).qq
               for a in fixture_algebras()]
    verdicts = set()

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(st.data())
    def run(data):
        for pres in squares:
            amb, rows = pres.ambient_dim, list(pres.relations.zrows)
            units = data.draw(st.lists(st.integers(0, amb - 1), max_size=2) if amb
                              else st.just([]))
            qm = quotient(amb, Subspace.from_integer_rows(amb, rows + [((u, 1),) for u in units]))
            verdict = _well_defined(pres.pair, qm, 1)
            assert verdict == ref.well_defined(pres.pair, qm), pres.name
            verdicts.add(verdict)

    run()
    assert verdicts == {True, False}


# -- the loader's rationals and keys ---------------------------------------------

def _fraction_rat(s, where):
    """The one coercion the loader made before: Fraction, or the message."""
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise cli.FixtureError(f"{cli._at(where)}: malformed rational {s!r}") from None


def _outcome(read, s):
    try:
        return "value", read(s, ("doc", "e"))
    except cli.FixtureError as ex:
        return "error", str(ex)


@pytest.mark.parametrize("s", ["+3", " 3", "-0", "007", "3/4", "1e3", "3_000", "--3",
                               "-", "", "1/0", "\u0663", "-\u0663", "\u00b2", "-12", "3"])
def test_rat_reads_what_fraction_reads(s):
    # the same strings accepted, with the same values, and the same messages
    # (test_cli draws more strings, comparing values and exit codes)
    assert _outcome(cli._rat, s) == _outcome(_fraction_rat, s)


def test_the_first_repeated_key_is_named():
    hook = cli._unique_keys("doc")
    assert hook([("a", 1), ("b", 2)]) == {"a": 1, "b": 2}
    with pytest.raises(cli.FixtureError) as err:
        hook([("a", 1), ("b", 2), ("b", 3), ("a", 4)])
    assert str(err.value) == "doc: duplicate key 'b'"


# -- the centrality of the evaluations' kernels ----------------------------------

def _whole_kernel_at(monkeypatch, call: int) -> None:
    """From now on, the call-th kernel the tensor module takes is the whole
    space: in _squares, the first is lambda's and the second mu's."""
    calls = []

    def kernel(m):
        calls.append(m)
        return Subspace.full(m.cols) if len(calls) == call else ratlin.kernel(m)

    monkeypatch.setattr(tensor, "kernel", kernel)


def _sl2_in_sl2_plus_k():
    """(sl2, sl2 + k, incl): not an adjoint identity, and neither square is
    abelian."""
    q = direct_sum(sl2(), k_abelian(1))
    return CrossedModule.inclusion(q, Subspace.from_integer_rows(4, [((i, 1),) for i in range(3)]))


@pytest.mark.parametrize("call, message", [
    (1, "kernel of the top evaluation is not central"),
    (2, "kernel of the base evaluation is not central"),
])
@pytest.mark.parametrize("adjoint", [True, False])
def test_a_kernel_that_is_not_central_raises(monkeypatch, tmp_path, capsys, call, message,
                                             adjoint):
    # on (sl2, sl2, id) the induced crossed module is an adjoint identity,
    # whose center is read off one annihilator; on (sl2, sl2 + k, incl) it
    # is not one, and both parts of the center are taken
    xm = CrossedModule.adjoint_identity(sl2()) if adjoint else _sl2_in_sl2_plus_k()
    assert is_adjoint_identity(xm) == adjoint
    assert is_adjoint_identity(exterior_square_data(xm).induced_xmod) == adjoint
    path = tmp_path / "x.xmod"
    path.write_text(cli.emit(cli.xmod_doc(xm)), encoding="utf-8")
    _whole_kernel_at(monkeypatch, call)
    with pytest.raises(AssertionError) as err:
        exterior_square_data(cli.load_fixture(path))
    assert str(err.value) == message
    cli._last = (None, None, None)  # so that main loads the file afresh
    _whole_kernel_at(monkeypatch, call)
    assert cli.main(["multiplier", str(path)]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: internal invariant failed: {message}\n"
