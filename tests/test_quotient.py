"""The sparse quotient map against the dense one it replaced, the
well-definedness sweep against dense membership tests, the factored
sweep against the per-symbol scan, and the relation rows against the
construction that visited every candidate, the families of symbols
built through the one outer product against the loops they replaced,
and the exterior relations, side 0's rule 1 rows alone for two equal
crossed modules, against those of both sides and all three rules."""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_quotient as ref
from _reference_descent import _sections
from _dense import span, unit_vec
from _reference_checks import contract
from _reference_grid import transposed
from leibxmod.ratlin import (
    RatMatrix,
    Subspace,
    dense,
    integer_view,
    quotient,
    rational,
    sparse,
)
from leibxmod import cli, tensor
from leibxmod.algebra import LeibnizAction
from leibxmod.tensor import (
    MutualActionPair,
    _action_rows,
    _agreement_rows,
    _glue,
    _preserves,
    _substitution,
    _symbols,
    _well_defined,
    exterior_presentation,
    exterior_square_data,
    one_leg_span,
)
from leibxmod.xmod import CrossedModule, check_xmod

from helpers import (
    bracket_table,
    central_extension_corpus,
    central_fixture_extensions,
    fixture_algebras,
    heis3,
    k_abelian,
    n2,
    r2_nonlie,
    random_leibniz_corpus,
    representative_table,
    sl2,
    sol2_lie,
    sparse_sl,
    sparse_sr,
    sparse_st,
    zero_over,
)
from test_acceptance import _presentation_corpus
from test_checks import algebras, tables
from test_ladder import load_ladder, rung_algebra
from test_rational_basis import rational_bases, rebased
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


# -- the outer product against the loops it replaced ----------------------------

def _subspaces(d):
    """Zero, full, a unit line and the line of (1, 2, ..., d)."""
    out = [Subspace.zero(d), Subspace.full(d)]
    if d:
        out += [Subspace.from_integer_rows(d, [((0, 1),)]),
                Subspace.from_integer_rows(d, [tuple((k, k + 1) for k in range(d))])]
    return out


def _matrix(rows, cols, seed):
    """A fixed rational matrix with mixed signs and denominators."""
    return RatMatrix(rows, cols, tuple(
        tuple(Fraction((3 * i + 5 * j + seed) % 7 - 3, 1 + (i + j + seed) % 3)
              for j in range(cols)) for i in range(rows)))


def _same_families(pres, other):
    """one_leg_span of pres and _substitution from its pair to the pair of
    other agree with the old loops."""
    m, n, tm, tn = pres.pair.m.dim, pres.pair.n.dim, other.pair.m.dim, other.pair.n.dim
    for a in _subspaces(m):
        for b in _subspaces(n):
            assert one_leg_span(pres, a, b) == ref.one_leg_span(pres, a, b), pres.name
    for fm, fn in ((_matrix(tm, m, 0), _matrix(tn, n, 1)), (_matrix(tm, m, 2), _matrix(tn, n, 0))):
        got = _substitution(pres.pair, other.pair, fm, fn)
        assert got == ref.substitution(pres.pair, other.pair, fm, fn), pres.name


def _glue_span(eta, delta):
    """The span of the glue generators, to compare with the old glue subspace."""
    return Subspace.from_integer_rows(2 * eta.top.dim * delta.top.dim, _glue(eta, delta))


def test_outer_product_families_match_the_old_loops_on_corpus():
    corpus = _presentation_corpus()
    for pres, other in zip(corpus, corpus[-1:] + corpus[:-1]):
        _same_families(pres, pres)
        _same_families(pres, other)
    # the glue of the squares of the corpus, and of (q, q, id) with itself
    for xm in [CrossedModule.adjoint_identity(a) for a in fixture_algebras()] + [
            zero_over(n2()), zero_over(k_abelian(1))]:
        qid = CrossedModule.adjoint_identity(xm.base)
        for eta, delta in ((qid, xm), (xm, qid), (qid, qid)):
            assert _glue_span(eta, delta) == ref.square_subspace(eta, delta), xm.name


def test_outer_product_families_match_the_old_loops_on_central_extensions():
    for e in central_fixture_extensions():
        f, kp = e.proj, e.kernel
        src, tgt = exterior_square_data(e.total), exterior_square_data(e.quotient)
        # the induced maps on the squares and the one-leg spans of their kernels
        for a, b, fn, sub in ((src.qn, tgt.qn, f.top_map, kp.top_sub),
                              (src.qq, tgt.qq, f.base_map, kp.base_sub)):
            assert (_substitution(a.pair, b.pair, f.base_map, fn)
                    == ref.substitution(a.pair, b.pair, f.base_map, fn)), e.name
            assert one_leg_span(a, kp.base_sub, sub) == ref.one_leg_span(a, kp.base_sub, sub)
        # theta*'s lifted substitutions, through both sections
        for skew in (False, True):
            s1, s2 = _sections(e, skew)
            for sq, pair, fn in ((tgt.qn, src.qn.pair, s1), (tgt.qq, src.qq.pair, s2)):
                assert (_substitution(sq.pair, pair, s2, fn)
                        == ref.substitution(sq.pair, pair, s2, fn)), e.name
        # the glue of the total's squares and of the kernel-base square
        qid = CrossedModule.adjoint_identity(e.total.base)
        for delta in (e.total, qid, CrossedModule.inclusion(e.total.base, kp.base_sub)):
            assert _glue_span(qid, delta) == ref.square_subspace(qid, delta), e.name


@st.composite
def mutual_pairs(draw):
    """Two random algebras with random, not necessarily valid, actions."""
    m, n = draw(algebras()), draw(algebras())
    return MutualActionPair(
        m, n,
        LeibnizAction(m, n, draw(tables(m.dim, n.dim, n.dim)),
                      draw(tables(n.dim, m.dim, n.dim))),
        LeibnizAction(n, m, draw(tables(n.dim, m.dim, m.dim)),
                      draw(tables(m.dim, n.dim, m.dim))))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.data())
def test_outer_product_families_match_the_old_loops_on_random_pairs(data):
    pair, q = data.draw(mutual_pairs()), data.draw(algebras())
    m, n = pair.m, pair.n
    # _substitution reads only the dimensions of its target pair
    tm, tn = k_abelian(data.draw(st.integers(0, 3))), k_abelian(data.draw(st.integers(0, 3)))
    other = MutualActionPair(tm, tn, LeibnizAction.trivial(tm, tn), LeibnizAction.trivial(tn, tm))
    amb = 2 * m.dim * n.dim
    # one_leg_span reads only the pair and the quotient map of a presentation
    pres = SimpleNamespace(pair=pair, qmap=quotient(amb, Subspace.from_integer_rows(
        amb, _action_rows(pair) + _agreement_rows(pair))))
    a = span(m.dim, data.draw(matrices(cols=m.dim)).entries)
    b = span(n.dim, data.draw(matrices(cols=n.dim)).entries)
    assert one_leg_span(pres, a, b) == ref.one_leg_span(pres, a, b)
    fm = data.draw(matrices(rows=other.m.dim, cols=m.dim))
    fn = data.draw(matrices(rows=other.n.dim, cols=n.dim))
    assert _substitution(pair, other, fm, fn) == ref.substitution(pair, other, fm, fn)
    # the glue reads only the structure maps into the shared base
    eta = CrossedModule("eta", m, q, data.draw(matrices(rows=q.dim, cols=m.dim)),
                        LeibnizAction.trivial(q, m))
    delta = CrossedModule("delta", n, q, data.draw(matrices(rows=q.dim, cols=n.dim)),
                          LeibnizAction.trivial(q, n))
    assert _glue_span(eta, delta) == ref.square_subspace(eta, delta)


# -- the exterior relations against both sides' action rows ---------------------

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _same_exterior_relations(xm) -> None:
    """The exterior presentations of xm with itself and of (q, q, id) with
    xm and with itself, q the base, have the relation subspace of the old
    construction, equal and with equal hashes; the first and last take
    side 0's rule 1 rows alone."""
    qid = CrossedModule.adjoint_identity(xm.base)
    for eta, delta in dict.fromkeys([(xm, xm), (qid, xm), (qid, qid)]):
        got, expect = (exterior_presentation(eta, delta).relations,
                       ref.exterior_relations(eta, delta))
        assert got == expect and hash(got) == hash(expect), (eta.name, delta.name)


def test_exterior_relations_match_both_sides_on_fixtures_and_ladder_rungs():
    xms = [xm for xm in map(cli.load_fixture, sorted(FIXTURES.glob("*.xmod")))
           if check_xmod(xm).valid]
    assert len(xms) >= 5
    ladder = load_ladder()
    xms += [CrossedModule.adjoint_identity(rung_algebra(ladder, name))
            for name in ("heis5", "heis7", "heis9", "sl2+sl2", "tri6")]
    for xm in xms:
        _same_exterior_relations(xm)


def test_exterior_relations_match_both_sides_on_the_generated_corpus():
    seen = set()
    for e in central_extension_corpus(0):
        for xm in (e.total, e.quotient):
            key = (xm.top, xm.base, xm.delta, xm.action)
            if key not in seen:
                seen.add(key)
                _same_exterior_relations(xm)
    assert len(seen) >= 100


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.data())
def test_exterior_relations_match_both_sides_in_rational_bases(data):
    q = data.draw(st.sampled_from(fixture_algebras() + random_leibniz_corpus()
                                  + [r2_nonlie(), sol2_lie()]))
    _same_exterior_relations(CrossedModule.adjoint_identity(
        rebased(q, data.draw(rational_bases(q.dim)))))


def _recorded_sides(monkeypatch) -> list:
    """The side counts the library asks _action_rows for, in call order."""
    seen = []
    monkeypatch.setattr(tensor, "_action_rows",
                        lambda pair, sides=2: seen.append(sides) or _action_rows(pair, sides))
    return seen


def _rule_rows(pair) -> tuple:
    """Side 0's three action rules on every basis triple, as Fraction
    {symbol: value} rows with zeros dropped, keyed by triple: rule 1 by
    (x, y, y2), rules 2 and 3 by (x, x2, y), written as the old loops wrote
    them, for a pair of an algebra with itself."""
    X, Y, x_on_y, y_on_x = pair.sides[0]
    d, e = X.dim, [((i, Fraction(1)),) for i in range(X.dim)]
    st, ysr, sl, sr = sparse_st(X), sparse_sr(y_on_x), sparse_sl(x_on_y), sparse_sr(x_on_y)

    def row(*terms):
        return {k: v for k, v in _symbols(d, d, terms).items() if v}
    triples = [(a, b, c) for a in range(d) for b in range(d) for c in range(d)]
    r1 = {(x, y, y2): row((1, 0, e[x], st[y][y2]), (-1, 0, ysr[x][y], e[y2]),
                          (1, 0, ysr[x][y2], e[y])) for x, y, y2 in triples}
    r2 = {(x, x2, y): row((1, 0, st[x][x2], e[y]), (-1, 1, sl[x][y], e[x2]),
                          (1, 0, e[x], sr[y][x2])) for x, x2, y in triples}
    r3 = {(x, x2, y): row((1, 0, e[x], sl[x2][y]), (1, 0, e[x], sr[y][x2]))
          for x, x2, y in triples}
    return r1, r2, r3


def _plus(u, v, c=1):
    return {k: w for k in u.keys() | v.keys() if (w := u.get(k, 0) + c * v.get(k, 0))}


def _rules_2_and_3_follow_from_rule_1(xm) -> None:
    """For xm with itself, both actions the bracket: each rule 3 row is the
    sum of two rule 1 rows, each rule 2 row minus its rule 1 partner lies in
    the glue, and side 0's rule 1 rows are those the library generates."""
    pair = MutualActionPair.from_shared_base(xm, xm)
    assert pair.m_on_n == pair.n_on_m == pair.m.adjoint, xm.name
    amb = 2 * xm.top.dim ** 2
    glue = Subspace.from_integer_rows(amb, _glue(xm, xm))
    r1, r2, r3 = _rule_rows(pair)
    for x, x2, y in r3:
        assert r3[x, x2, y] == _plus(r1[x, x2, y], r1[x, y, x2]), (xm.name, x, x2, y)
        assert ref.contains_vector(glue, dense(_plus(r2[x, x2, y], r1[x, y, x2], -1).items(),
                                               amb)), (xm.name, x, x2, y)
    assert Subspace.from_integer_rows(amb, _action_rows(pair, 1)) == span(
        amb, [dense(r.items(), amb) for r in r1.values() if r])


def test_rules_2_and_3_follow_from_rule_1_for_equal_crossed_modules():
    xms = [xm for xm in map(cli.load_fixture, sorted(FIXTURES.glob("*.xmod")))
           if check_xmod(xm).valid]
    qs = fixture_algebras() + random_leibniz_corpus() + [r2_nonlie(), sol2_lie()]
    for xm in xms + [CrossedModule.adjoint_identity(q) for q in qs]:
        _rules_2_and_3_follow_from_rule_1(xm)


def test_an_equal_pair_that_fails_peiffer_keeps_both_sides_and_all_rules(monkeypatch):
    # (q, q, id) with the trivial action: its top does not act on itself by
    # its bracket, so rule 1 alone would lose relations; it keeps every rule
    seen = _recorded_sides(monkeypatch)
    for q in (heis3(), n2(), r2_nonlie()):
        bad = CrossedModule(f"bad({q.name})", q, q, RatMatrix.identity(q.dim),
                            LeibnizAction.trivial(q, q))
        assert not check_xmod(bad).valid
        seen.clear()
        got, expect = exterior_presentation(bad, bad).relations, ref.exterior_relations(bad, bad)
        assert seen == [2] and got == expect
        pair = MutualActionPair.from_shared_base(bad, bad)
        assert got != Subspace.from_integer_rows(
            got.ambient_dim, _action_rows(pair, 1) + _agreement_rows(pair) + _glue(bad, bad))


def _perfbench_generator():
    """perfbench's input generator, imported from its file without writing
    bytecode beside it."""
    path = FIXTURES.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen, kept = importlib.util.module_from_spec(spec), sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(gen)
    finally:
        sys.dont_write_bytecode = kept
    return gen


def test_exterior_relations_match_both_sides_on_perfbench_squares(monkeypatch, tmp_path):
    # the squares workload's (q, q, id), dims 4-5 in a densified basis, take
    # rule 1 alone in each of their squares and keep the old span
    gen = _perfbench_generator()
    seen = _recorded_sides(monkeypatch)
    jobs = gen.squares_jobs(gen.Draws(201), tmp_path)
    assert len(jobs) >= 15
    for job in jobs:
        xm = cli.load_fixture(job["path"])
        _same_exterior_relations(xm)
        _rules_2_and_3_follow_from_rule_1(xm)
    assert seen and set(seen) == {1}


def test_a_symmetric_pair_with_no_glue_keeps_both_sides(monkeypatch):
    # with no glue the blocks are not identified: the tensor product of a
    # symmetric pair takes the action rows of both sides, and its
    # dimensions are those it had; the exterior square takes side 0's
    seen = _recorded_sides(monkeypatch)
    for q, dims in ((n2(), (8, 5, 3)), (heis3(), (18, 8, 10)), (sl2(), (18, 15, 3)),
                    (r2_nonlie(), (8, 5, 3))):
        ad = LeibnizAction.adjoint(q)
        pair = MutualActionPair(q, q, ad, ad)
        pres = tensor._build_presentation(pair, (), f"{q.name}(x){q.name}")
        assert seen == [2] and (pres.ambient_dim, pres.relations.dim, pres.resolved.dim) == dims
        assert pres.relations == Subspace.from_integer_rows(
            pres.ambient_dim, _action_rows(pair, 2) + _agreement_rows(pair))
        qid = CrossedModule.adjoint_identity(q)
        seen.clear()
        exterior_presentation(qid, qid)
        assert seen == [1]
        seen.clear()
