"""The sparse quotient map against the dense one it replaced, the
well-definedness sweep against dense membership tests, the factored
sweep against the per-symbol scan, and the relation rows against the
construction that visited every candidate."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_quotient as ref
from _dense import span, unit_vec
from _reference_checks import contract
from leibxmod.ratlin import (
    RatMatrix,
    Subspace,
    dense,
    integer_view,
    quotient,
    rational,
    sparse,
    transposed,
)
from leibxmod.algebra import LeibnizAction
from leibxmod.tensor import (
    MutualActionPair,
    _action_rows,
    _agreement_rows,
    _preserves,
    _well_defined,
)

from helpers import bracket_table, representative_table
from test_acceptance import _presentation_corpus
from test_checks import algebras, tables
from test_ratlin import RATIONALS, matrices

PROPERTY = settings(derandomize=True, database=None, max_examples=200,
                    deadline=None)


@st.composite
def subspaces_with_vectors(draw):
    """A rational subspace with mixed denominators (zero, full and
    0-dimensional ambients included), and vectors inside and outside it."""
    cols = draw(st.integers(0, 7))
    kind = draw(st.sampled_from(["span", "span", "zero", "full"]))
    if kind == "zero":
        gens = RatMatrix(0, cols, ())
    elif kind == "full":
        gens = RatMatrix(cols, cols, RatMatrix.identity(cols).entries)
    else:
        gens = draw(matrices(cols=cols))
    r = span(cols, gens.entries)
    vectors = [(Fraction(0),) * cols]
    for _ in range(draw(st.integers(1, 4))):
        inside = [Fraction(0)] * cols
        for g in gens.entries:
            c = draw(RATIONALS)
            inside = [a + c * x for a, x in zip(inside, g)]
        vectors.append(tuple(inside))
        vectors.append(tuple(draw(RATIONALS) for _ in range(cols)))
    return r, vectors


@PROPERTY
@given(subspaces_with_vectors())
def test_sparse_quotient_matches_dense_reference(case):
    r, vectors = case
    qm = quotient(r.ambient_dim, r)
    dq = ref.quotient(r.ambient_dim, r)
    assert qm.free == dq.free
    assert qm.dim == len(dq.free)
    assert qm.projection == dq.projection
    assert qm.section == dq.section
    for v in vectors:
        # the class of v, read off its integer twin and divided once
        den, z = integer_view(sparse(v), 0)
        image = dense(rational(qm.integer_image(z).items(), qm.zimages[0] * den), qm.dim)
        assert image == ref.project(dq, v)
        member = ref.contains_vector(r, v)
        assert qm.kills(sparse(v)) == member
        assert (not any(image)) == member


def _sweep_agrees(pres, relations):
    """Every (relation basis row, symbol) verdict of the sparse sweep,
    on both sides, equals the dense membership test."""
    amb = pres.ambient_dim
    qm = quotient(amb, relations)
    table = representative_table(pres)
    st_t = transposed(table, amb)
    for r in relations.basis.entries:
        for s in range(amb):
            e = unit_vec(amb, s)
            assert (_preserves(qm, sparse(r), st_t[s]) == ref.contains_vector(
                relations, contract(bracket_table(pres), r, e, amb))), pres.name
            assert (_preserves(qm, sparse(r), table[s]) == ref.contains_vector(
                relations, contract(bracket_table(pres), e, r, amb))), pres.name


def test_sweep_matches_dense_membership_on_corpus():
    for pres in _presentation_corpus():
        _sweep_agrees(pres, pres.relations)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(st.data())
def test_sweep_matches_dense_membership_on_partial_relations(data):
    # dropping relation rows leaves subspaces that the bracket need not
    # preserve, so both verdicts occur
    for pres in _presentation_corpus():
        rows = pres.relations.basis.entries
        keep = data.draw(st.lists(st.booleans(), min_size=len(rows),
                                  max_size=len(rows)))
        _sweep_agrees(pres, span(
            pres.ambient_dim, [r for r, k in zip(rows, keep) if k]))


def test_factored_sweep_matches_scan_on_partial_relations():
    # the factored verdict on bases of the evaluation spans equals the
    # per-symbol scan's, on the full relations and on subspaces spanned by
    # some of their rows and some unit vectors; both verdicts occur.  The
    # evaluations kill every relation, so [e_s, r] can only escape a
    # subspace that a unit vector takes outside the relations
    verdicts = set()

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(st.data())
    def run(data):
        for pres in _presentation_corpus():
            amb, rows = pres.ambient_dim, pres.relations.basis.entries
            keep = data.draw(st.lists(st.booleans(), min_size=len(rows),
                                      max_size=len(rows)))
            units = data.draw(st.lists(st.integers(0, amb - 1), max_size=2)
                              if amb else st.just([]))
            kept = [r for r, k in zip(rows, keep) if k]
            for relations in (pres.relations, span(
                    amb, kept + [unit_vec(amb, u) for u in units])):
                qm = quotient(amb, relations)
                verdict = _well_defined(pres.pair, qm)
                assert verdict == (ref.sweep_witness(pres.pair, qm) is None), pres.name
                verdicts.add(verdict)

    run()
    assert verdicts == {True, False}


def _same_rows(pair):
    # the action rows are the old ones row for row, each read off the
    # integer twins as a positive int multiple of the old row; the
    # agreement rows come from bases of the evaluation spans, not from
    # every symbol pair, and span the same subspace
    got, expect = _action_rows(pair), ref.action_rows(pair)
    assert len(got) == len(expect)
    for g, e in zip(got, expect):
        assert all(type(t) is int for _, t in g)
        assert [k for k, _ in g] == [k for k, _ in e]
        ratios = {Fraction(t) / u for (_, t), (_, u) in zip(g, e)}
        assert len(ratios) == 1 and ratios.pop() > 0
    amb = 2 * pair.m.dim * pair.n.dim
    assert (Subspace.from_integer_rows(amb, _agreement_rows(pair))
            == span(amb, [dense(r, amb) for r in ref.agreement_rows(pair)]))


def test_defining_rows_match_every_candidate_on_corpus():
    for pres in _presentation_corpus():
        _same_rows(pres.pair)


@PROPERTY
@given(st.data())
def test_defining_rows_match_every_candidate_on_random_pairs(data):
    # the actions need not be valid: the rows are built before any check
    m, n = data.draw(algebras()), data.draw(algebras())
    _same_rows(MutualActionPair(
        m, n,
        LeibnizAction(m, n, data.draw(tables(m.dim, n.dim, n.dim)),
                      data.draw(tables(n.dim, m.dim, n.dim))),
        LeibnizAction(n, m, data.draw(tables(n.dim, m.dim, m.dim)),
                      data.draw(tables(m.dim, n.dim, m.dim)))))
