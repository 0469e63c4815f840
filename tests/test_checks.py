"""Differential tests of the runtime-checked laws and the centers against
the dense versions kept in _reference_checks.py: on random tables,
all-zero tables and single-entry perturbations of the fixture objects,
every report must be the same, subject, validity, and the violations in
order with their labels and residual Fraction tuples, and every center
the same subspaces."""

from dataclasses import replace
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import _reference_checks as ref
from leibxmod import algebra, cli, xmod
from leibxmod.algebra import (
    AlgebraHom,
    LeibnizAction,
    LeibnizAlgebra,
    check_action,
    center,
    check_hom,
    check_leibniz,
)
from leibxmod.extensions import Extension
from _dense import integer_entries, unit_vec
from leibxmod.ratlin import (
    RatMatrix,
    accumulate,
    dense,
    integer_view,
    join,
    kernel,
    rational,
)
from _reference_grid import entries, grid, sparse_table
from leibxmod.xmod import (
    CrossedModule,
    XModHom,
    center_xmod,
    check_xmod,
    check_xmod_hom,
)

from helpers import (
    central_extension_corpus,
    central_fixture_extensions,
    fixture_algebras,
    heis3,
    heisenberg,
    n2,
    non_leibniz_inputs,
    random_leibniz_corpus,
    renamed_adjoint_identity,
    sl2,
    zero_over,
)
from test_ladder import load_ladder, rung_algebra

PROPERTY = settings(derandomize=True, database=None, max_examples=100,
                    deadline=None)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Zero is drawn often, so that tables are sparse and residuals cancel.
RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6, 7, 12])))
NONZERO = RATIONALS.filter(bool)


def same_report(got, expect):
    """Equal reports, and every residual entry a Fraction, so that the
    summaries and --json payloads built from them are the same bytes."""
    assert got == expect
    assert got.summary() == expect.summary()
    assert all(type(x) is Fraction for _, r in got.violations for x in r)


# -- random objects ----------------------------------------------------------------

@st.composite
def vectors(draw, dim, zero=False):
    return tuple(Fraction(0) if zero else draw(RATIONALS) for _ in range(dim))


@st.composite
def tables(draw, rows, cols, dim):
    """rows x cols vectors of length dim: random, or all zero."""
    zero = draw(st.integers(0, 3)) == 0
    return tuple(tuple(draw(vectors(dim, zero)) for _ in range(cols))
                 for _ in range(rows))


@st.composite
def algebras(draw, max_dim=3):
    d = draw(st.integers(0, max_dim))
    return LeibnizAlgebra(f"a{d}", d, tuple(f"e{i+1}" for i in range(d)),
                          draw(tables(d, d, d)))


@st.composite
def matrices(draw, rows, cols):
    zero = draw(st.integers(0, 3)) == 0
    return RatMatrix(rows, cols, tuple(draw(vectors(cols, zero)) for _ in range(rows)))


@st.composite
def actions(draw):
    m = draw(algebras())
    n = draw(algebras())
    return LeibnizAction(m, n, draw(tables(m.dim, n.dim, n.dim)),
                         draw(tables(n.dim, m.dim, n.dim)))


@st.composite
def crossed_modules(draw):
    act = draw(actions())
    top, base = act.acted, act.actor
    return CrossedModule("xm", top, base, draw(matrices(base.dim, top.dim)), act)


@st.composite
def homs(draw):
    a, b = draw(algebras()), draw(algebras())
    return AlgebraHom(a, b, draw(matrices(b.dim, a.dim)))


@st.composite
def crossed_module_homs(draw):
    src, tgt = draw(crossed_modules()), draw(crossed_modules())
    return XModHom(src, tgt, draw(matrices(tgt.top.dim, src.top.dim)),
                   draw(matrices(tgt.base.dim, src.base.dim)))


@PROPERTY
@given(st.data())
def test_contract_matches_reference(data):
    a = data.draw(algebras(max_dim=4))
    x, y = data.draw(vectors(a.dim)), data.draw(vectors(a.dim))
    # the bilinear map on twins: one accumulate per nonzero entry of x,
    # over the nonzero entries of y, divided once at the end
    (den, view), (dx, xs), (dy, ys) = ((a.zst[0], grid(a.zst[1], a.dim, a.dim)),
                                       *map(integer_entries, (x, y)))
    acc = {}
    for i, t in xs:
        accumulate(acc, t, ys, view[i])
    got = dense(rational(acc.items(), den * dx * dy), a.dim)
    assert got == ref.contract(a.c, x, y, a.dim)
    assert all(type(t) is Fraction for t in got)


@PROPERTY
@given(algebras())
def test_check_leibniz_matches_reference(a):
    same_report(check_leibniz(a), ref.check_leibniz(a))


@PROPERTY
@given(actions())
def test_check_action_matches_reference(act):
    same_report(check_action(act), ref.check_action(act))


@PROPERTY
@given(crossed_modules())
def test_check_xmod_matches_reference(xm):
    same_report(check_xmod(xm), ref.check_xmod(xm))


@PROPERTY
@given(homs())
def test_check_hom_matches_reference(f):
    same_report(check_hom(f), ref.check_hom(f))


@PROPERTY
@given(crossed_module_homs())
def test_check_xmod_hom_matches_reference(f):
    same_report(check_xmod_hom(f), ref.check_xmod_hom(f))


@PROPERTY
@given(algebras())
def test_center_matches_reference(a):
    # dimension 0 and all-zero tables are drawn too
    assert center(a) == ref.center(a)


@PROPERTY
@given(crossed_modules())
def test_center_xmod_matches_reference(xm):
    # the actor and acted dimensions are drawn independently
    got, expect = center_xmod(xm), ref.center_xmod(xm)
    assert (got.top_sub, got.base_sub) == (expect.top_sub, expect.base_sub)


def test_center_xmod_matches_reference_on_valid_crossed_modules():
    # the strategy above draws mostly invalid crossed modules; these are
    # the totals, quotients and abelianizations of the constructed
    # extensions and of the fixture ones, every one of them valid
    exts = central_fixture_extensions() + [
        cli.load_fixture(FIXTURES / name)
        for name in ("n2_over_k.extension", "split_over_n2.extension")]
    xms = [x for e in exts for x in (e.total, e.quotient)]
    xms += [x.abelianization[0] for x in xms]
    for xm in xms:
        assert check_xmod(xm).valid, xm.name
        got, expect = center_xmod(xm), ref.center_xmod(xm)
        assert (got.top_sub, got.base_sub) == (expect.top_sub, expect.base_sub), xm.name


def test_cancelling_products_are_valid_and_one_coefficient_is_pinned():
    a = sl2()
    e, f, h = (unit_vec(3, i) for i in range(3))
    act = LeibnizAction.adjoint(a)
    # axiom 1 at (e, f, e) has two nonzero products that cancel exactly:
    # ^{[e,f]}e = [h, e] = 2e and ^e(^f e) = [e, [f, e]] = 2e
    two_e = tuple(2 * x for x in e)
    assert ref._bracket(a, ref._bracket(a, e, f), e) == two_e
    assert ref._bracket(a, e, ref._bracket(a, f, e)) == two_e
    same_report(check_action(act), ref.check_action(act))
    assert check_action(act).valid
    # the same action with ^h e = 3e in place of 2e
    left = [list(row) for row in act.left]
    left[2][0] = tuple(3 * x for x in e)
    bad = LeibnizAction(a, a, tuple(tuple(row) for row in left), act.right)
    same_report(check_action(bad), ref.check_action(bad))
    assert check_action(bad).summary() == "\n".join([
        "action of sl2 on sl2: INVALID (12 violation(s))",
        "  axiom1 (e,f,e): residual ('1', '0', '0')",
        "  axiom1 (f,e,e): residual ('-1', '0', '0')",
        "  axiom1 (f,h,e): residual ('0', '0', '1')",
        "  axiom5 (f,h,e): residual ('0', '0', '-1')",
        "  axiom1 (h,e,h): residual ('2', '0', '0')",
        "  axiom1 (h,f,e): residual ('0', '0', '-1')",
        "  axiom1 (h,h,e): residual ('-3', '0', '0')",
        "  axiom5 (h,h,e): residual ('3', '0', '0')",
        "  axiom2 (h,e,f): residual ('0', '0', '-1')",
        "  axiom2 (h,f,e): residual ('0', '0', '1')",
        "  axiom6 (f,h,e): residual ('0', '0', '-1')",
        "  axiom6 (h,h,e): residual ('2', '0', '0')"])


# -- the integer join against the Fraction one it replaced -------------------------

def _fractions(twin) -> tuple:
    """The Fraction view of an integer twin (den, view), any depth."""
    den, view = twin

    def divided(v):
        if v and all(e and isinstance(e[0], int) for e in v):
            return tuple((k, Fraction(t, den)) for k, t in v)
        return tuple(divided(e) for e in v)
    return divided(view)


def _swapped(entries) -> tuple:
    """The entries of a table with its two indices swapped, sorted by key."""
    return tuple(sorted(((j, i), v) for (i, j), v in entries))


def _size(terms) -> int:
    """One more than every index of the twins of terms, outer or inner: an
    n x n grid holds each of their tables."""
    idx = [0]
    for _, _, (_, x), xs, (_, y), ys in terms:
        for view, two in ((x, len(xs) == 2), (y, bool(ys))):
            for key, v in view if two else enumerate(view):
                idx += [*(key if two else (key,)), *(k for k, _ in v)]
    return 1 + max(idx)


def _grid_term(term, n: int) -> tuple:
    """The term in the old form: each table an n x n grid, y with the
    contracted slot second, named by the letter of its other slot."""
    key, c, (dx, x), xs, (dy, y), ys = term
    if len(xs) == 2:
        x = grid(x, n, n)
    if ys:
        y = grid(y if ys[-1] == "." else _swapped(y), n, n)
    return key, c, (dx, x), xs, (dy, y), ys.strip(".")


def oracle_join(terms):
    """The old Fraction join on the Fraction grids of the twins of terms,
    returned in the shape of join, at scale 1."""
    terms = list(terms)
    n = _size(terms)
    return 1, ref.join([(key, c, _fractions(x), xs, _fractions(y), ys)
                        for key, c, x, xs, y, ys in (_grid_term(t, n) for t in terms)])


@st.composite
def law_terms(draw):
    """One to three terms of mixed shapes over random rational tables with
    mixed denominators, all-zero tables included: x with two outer indices
    or one, y with one outer index or none, as grids."""
    p, q, l, r, k = (draw(st.integers(0, 3)) for _ in range(5))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        c = draw(st.integers(-3, 3))
        if draw(st.booleans()):
            x, xs, key = sparse_table(draw(tables(p, q, l))), "pq", "pqr"
        else:
            x, xs, key = sparse_table(draw(tables(1, p, l)))[0], "p", ("p", 1, "r")
        if draw(st.booleans()):
            y, ys = sparse_table(draw(tables(r, l, k))), "r"
        else:
            y, ys, key = sparse_table(draw(tables(1, l, k)))[0], "", key[:-1]
        terms.append((key, c, x, xs, y, ys))
    return terms


def _entries_term(term, first: bool) -> tuple:
    """The term on integer twins of entries: y's table read at slot "r."
    as it is, or, with first, its transpose read at ".r"."""
    key, c, x, xs, y, ys = term
    x = integer_view(entries(x) if len(xs) == 2 else x, len(xs))
    if not ys:
        return key, c, x, xs, integer_view(y, 1), ys
    if first:
        return key, c, x, xs, integer_view(_swapped(entries(y))), "." + ys
    return key, c, x, xs, integer_view(entries(y)), ys + "."


@PROPERTY
@given(law_terms(), st.lists(st.booleans(), min_size=3, max_size=3))
def test_integer_join_matches_the_fraction_oracle(terms, firsts):
    scale, got = join([_entries_term(t, first) for t, first in zip(terms, firsts)])
    expect = ref.join(terms)
    assert got.keys() == expect.keys()
    for key, acc in got.items():
        assert all(type(v) is int for v in acc.values())
        assert dict(rational(acc.items(), scale)) == expect[key]


REPORTS = {"leibniz": (algebras, algebra._leibniz_report),
           "action": (actions, algebra._action_report),
           "hom": (homs, algebra._hom_report),
           "xmod": (crossed_modules, xmod._xmod_report),
           "xmod_hom": (crossed_module_homs, xmod._xmod_hom_report)}


@PROPERTY
@given(st.data())
def test_reports_match_the_fraction_oracle_join(data):
    # the same report bodies with the integer join and with the Fraction
    # one on the same views; the crossed module report reads the action
    # report cached on its action, so the oracle gets a fresh action
    draw, report = REPORTS[data.draw(st.sampled_from(sorted(REPORTS)))]
    obj = data.draw(draw())
    got = report(obj)
    if isinstance(obj, CrossedModule):
        act = obj.action
        obj = replace(obj, action=LeibnizAction.from_sparse(
            act.actor, act.acted, act.den, act.sl, act.sr))
    with mock.patch.object(algebra, "join", oracle_join), \
            mock.patch.object(xmod, "join", oracle_join):
        expect = report(obj)
    same_report(got, expect)


# -- single-entry perturbations of the fixtures ------------------------------------

def _with_entry(table, i, j, k, delta):
    """table with delta added at table[i][j][k]."""
    rows = [list(r) for r in table]
    v = list(rows[i][j])
    v[k] += delta
    rows[i][j] = tuple(v)
    return tuple(tuple(r) for r in rows)


def _with_matrix_entry(m, i, j, delta):
    rows = [list(r) for r in m.entries]
    rows[i][j] += delta
    return RatMatrix(m.rows, m.cols, tuple(tuple(r) for r in rows))


@st.composite
def perturbed_table(draw, table, rows, cols, dim):
    if not (rows and cols and dim):
        return table
    return _with_entry(table, draw(st.integers(0, rows - 1)),
                       draw(st.integers(0, cols - 1)),
                       draw(st.integers(0, dim - 1)), draw(NONZERO))


@st.composite
def perturbed_matrix(draw, m):
    if not (m.rows and m.cols):
        return m
    return _with_matrix_entry(m, draw(st.integers(0, m.rows - 1)),
                              draw(st.integers(0, m.cols - 1)), draw(NONZERO))


def _fixture_crossed_modules():
    out = [CrossedModule.adjoint_identity(a) for a in fixture_algebras()]
    out += [zero_over(n2()), zero_over(heis3())]
    out += [e.total for e in central_fixture_extensions()]
    return out


def _fixture_crossed_module_homs():
    out = [XModHom.identity(xm) for xm in _fixture_crossed_modules()]
    out += [e.proj for e in central_fixture_extensions()]
    return out


FIXTURE_ALGEBRAS = fixture_algebras() + random_leibniz_corpus(6)
FIXTURE_XMODS = _fixture_crossed_modules()
FIXTURE_XMOD_HOMS = _fixture_crossed_module_homs()


@st.composite
def perturbed_algebras(draw, a=None):
    if a is None:
        a = draw(st.sampled_from(FIXTURE_ALGEBRAS))
    c = draw(perturbed_table(a.c, a.dim, a.dim, a.dim))
    return LeibnizAlgebra(a.name, a.dim, a.basis_names, c)


@st.composite
def perturbed_actions(draw, act=None):
    """One entry of the left or the right table, or of a structure table
    of either algebra, moved."""
    if act is None:
        act = LeibnizAction.adjoint(draw(st.sampled_from(FIXTURE_ALGEBRAS)))
    m, n, left, right = act.actor, act.acted, act.left, act.right
    where = draw(st.sampled_from(["left", "right", "actor", "acted"]))
    if where == "left":
        left = draw(perturbed_table(left, m.dim, n.dim, n.dim))
    elif where == "right":
        right = draw(perturbed_table(right, n.dim, m.dim, n.dim))
    elif where == "actor":
        m = draw(perturbed_algebras(m))
    else:
        n = draw(perturbed_algebras(n))
    return LeibnizAction(m, n, left, right)


@st.composite
def perturbed_crossed_modules(draw, xm=None):
    if xm is None:
        xm = draw(st.sampled_from(FIXTURE_XMODS))
    act = draw(perturbed_actions(xm.action))
    delta = xm.delta
    if draw(st.booleans()):
        delta = draw(perturbed_matrix(delta))
    return CrossedModule(xm.name, act.acted, act.actor, delta, act)


@PROPERTY
@given(perturbed_algebras())
def test_check_leibniz_on_perturbed_fixtures(a):
    same_report(check_leibniz(a), ref.check_leibniz(a))


@PROPERTY
@given(perturbed_actions())
def test_check_action_on_perturbed_fixtures(act):
    same_report(check_action(act), ref.check_action(act))


@PROPERTY
@given(perturbed_crossed_modules())
def test_check_xmod_on_perturbed_fixtures(xm):
    same_report(check_xmod(xm), ref.check_xmod(xm))


@PROPERTY
@given(st.data())
def test_check_hom_on_perturbed_fixtures(data):
    a = data.draw(st.sampled_from(FIXTURE_ALGEBRAS))
    f = AlgebraHom(data.draw(perturbed_algebras(a)), a,
                   data.draw(perturbed_matrix(RatMatrix.identity(a.dim))))
    same_report(check_hom(f), ref.check_hom(f))


@PROPERTY
@given(st.data())
def test_check_xmod_hom_on_perturbed_fixtures(data):
    f = data.draw(st.sampled_from(FIXTURE_XMOD_HOMS))
    src, tgt, top_map, base_map = f.source, f.target, f.top_map, f.base_map
    where = data.draw(st.sampled_from(["top_map", "base_map", "source", "target"]))
    if where == "top_map":
        top_map = data.draw(perturbed_matrix(top_map))
    elif where == "base_map":
        base_map = data.draw(perturbed_matrix(base_map))
    elif where == "source":
        src = data.draw(perturbed_crossed_modules(src))
    else:
        tgt = data.draw(perturbed_crossed_modules(tgt))
    g = XModHom(src, tgt, top_map, base_map)
    same_report(check_xmod_hom(g), ref.check_xmod_hom(g))


def test_sparse_views_leave_equality_and_hashing_alone():
    # the views and the validity reports are cached on the instance,
    # outside the dataclass fields
    for a in [sl2(), heis3()] + random_leibniz_corpus(3):
        xm = CrossedModule.adjoint_identity(a)
        f = XModHom.identity(xm)
        assert check_leibniz(a).valid and check_xmod(xm).valid
        assert check_xmod_hom(f).valid
        act = xm.action
        # no transposed copy of a table is cached beside it
        assert {"zst", "validity"} <= vars(a).keys() and "validity" in vars(act)
        assert not {"zst_t", "zsl_t", "zsr_t"} & (vars(a).keys() | vars(act).keys())
        assert "validity" in vars(xm) and "validity" in vars(f)
        # a second check reads the cached report
        assert check_action(act) is check_action(act)
        assert check_xmod(xm) is xm.validity and check_xmod_hom(f) is f.validity
        fresh = LeibnizAlgebra(a.name, a.dim, a.basis_names, a.c)
        assert a == fresh and hash(a) == hash(fresh) and repr(a) == repr(fresh)
        fresh_act = LeibnizAction(fresh, fresh, act.left, act.right)
        assert act == fresh_act and hash(act) == hash(fresh_act)
        assert repr(act) == repr(fresh_act)
        fresh_xm = CrossedModule(xm.name, fresh, fresh, xm.delta, fresh_act)
        assert xm == fresh_xm and hash(xm) == hash(fresh_xm)
        assert repr(xm) == repr(fresh_xm)
        fresh_f = XModHom(fresh_xm, fresh_xm, f.top_map, f.base_map)
        assert f == fresh_f and hash(f) == hash(fresh_f) and repr(f) == repr(fresh_f)
        assert "validity" not in vars(fresh_xm) and "validity" not in vars(fresh_f)


def test_extension_fields_leave_equality_and_hashing_alone():
    # every derived object of an extension is cached on the instance,
    # outside the dataclass fields, and so are the square maps of its
    # projection
    fields = {name for name, v in vars(Extension).items()
              if isinstance(v, cached_property)}
    assert fields == {"validity", "_central", "flags", "multiplier_map",
                      "kernel_xmod", "theta", "ab_proj", "kernel_to_ab", "one_leg"}
    for e in central_fixture_extensions():
        for name in fields:
            getattr(e, name)
        assert fields <= vars(e).keys() and "square_maps" in vars(e.proj)
        fresh = Extension(e.name, e.total, e.quotient, e.proj, e.kernel)
        assert not fields & vars(fresh).keys()
        assert e == fresh and hash(e) == hash(fresh) and repr(e) == repr(fresh)
        f = e.proj
        fresh = XModHom(f.source, f.target, f.top_map, f.base_map)
        assert "square_maps" not in vars(fresh)
        assert f == fresh and hash(f) == hash(fresh) and repr(f) == repr(fresh)


def test_crossed_module_analyses_leave_equality_hashing_and_the_memo_alone(tmp_path):
    # the analyses of a crossed module are cached on it, outside the
    # dataclass fields, so an equal input loaded afresh is still the load
    # memo's hit for it
    fields = {name for name, v in vars(CrossedModule).items()
              if isinstance(v, cached_property)}
    assert fields == {"validity", "squares", "center", "derived", "abelianization"}
    for e in central_fixture_extensions():
        for xm in (e.total, e.quotient):
            for name in fields:
                getattr(xm, name)
            assert fields <= vars(xm).keys()
            fresh = CrossedModule(xm.name, xm.top, xm.base, xm.delta, xm.action)
            assert not fields & vars(fresh).keys()
            assert xm == fresh and hash(xm) == hash(fresh) and repr(xm) == repr(fresh)
            path = tmp_path / "fresh.xmod"
            path.write_text(cli.emit(cli.xmod_doc(fresh)), encoding="utf-8")
            cli._last = (None, None, xm)
            assert cli.load_fixture(path) is xm
        # so is a map's kernel, on its matrix
        m = e.proj.top_map
        kernel(m)
        fresh = RatMatrix.from_sparse(m.rows, m.zcols)
        assert "_kernel" in vars(m) and "_kernel" not in vars(fresh)
        assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
        assert kernel(fresh) == kernel(m)


# -- the laws of adjoint identities, read off the Leibniz and hom reports -------------

def same_as_full_evaluation(obj):
    """The library's report of an action, a crossed module or a crossed
    module hom is the one with every law evaluated (_reference_checks),
    and so is every report it starts with."""
    if isinstance(obj, LeibnizAction):
        same_report(check_action(obj), ref.action_report(obj))
    elif isinstance(obj, CrossedModule):
        same_as_full_evaluation(obj.action)
        same_report(check_xmod(obj), ref.xmod_report(obj))
    elif isinstance(obj, XModHom):
        same_report(check_xmod_hom(obj), ref.xmod_hom_report(obj))
    else:
        same_report(check_hom(obj), ref.check_hom(obj))


def _square_laws(xm):
    """The crossed modules and maps the squares of xm check: the induced
    crossed module, the evaluation and the multiplier's inclusion."""
    esd = xm.squares
    mult, incl = esd.multiplier
    return [esd.induced_xmod, esd.phi, mult, incl]


def test_reports_match_the_full_evaluation_on_the_fixtures():
    loaded = [cli.load_fixture(p) for p in sorted(FIXTURES.glob("*.xmod"))
              + sorted(FIXTURES.glob("*.hom")) + sorted(FIXTURES.glob("*.action"))]
    assert len(loaded) == 11
    for obj in loaded:
        same_as_full_evaluation(obj)
        if isinstance(obj, CrossedModule) and check_xmod(obj).valid:
            for law in _square_laws(obj):
                same_as_full_evaluation(law)


def test_reports_match_the_full_evaluation_on_adjoint_identities(monkeypatch):
    for a in FIXTURE_ALGEBRAS:
        qid, renamed = CrossedModule.adjoint_identity(a), renamed_adjoint_identity(a)
        assert xmod.is_adjoint_identity(qid) and xmod.is_adjoint_identity(renamed)
        ident = RatMatrix.identity(a.dim)
        ones = RatMatrix(a.dim, a.dim, [[Fraction(1)] * a.dim] * a.dim)
        valid = (qid, renamed, XModHom.identity(qid), XModHom(renamed, qid, ident, ident))
        # the valid ones join the Leibniz and homomorphism laws (labelled "") only
        with monkeypatch.context() as m:
            seen = _evaluated_laws(m)
            assert all(obj.validity.valid for obj in valid)
            assert seen <= {""}
        for obj in valid + (XModHom(qid, renamed, ones, ones), XModHom(qid, qid, ident, ones)):
            same_as_full_evaluation(obj)


@PROPERTY
@given(algebras(), st.data())
def test_reports_match_the_full_evaluation_on_random_adjoint_identities(a, data):
    qid, renamed = CrossedModule.adjoint_identity(a), renamed_adjoint_identity(a)
    f = data.draw(matrices(a.dim, a.dim))
    for obj in (qid, renamed, XModHom.identity(qid), XModHom(renamed, qid, f, f),
                XModHom(qid, qid, f, RatMatrix.identity(a.dim))):
        same_as_full_evaluation(obj)


def test_reports_match_the_full_evaluation_on_the_squares_of_the_corpus():
    xms = [x for e in central_extension_corpus(0) for x in (e.total, e.quotient)]
    xms += [CrossedModule.adjoint_identity(q)
            for q in (heisenberg(3), rung_algebra(load_ladder(), "tri6"))]
    for xm in xms:
        for law in _square_laws(xm):
            same_as_full_evaluation(law)


def _evaluated_laws(monkeypatch) -> set:
    """The labels of the law families joined from now on."""
    seen = set()

    def recorded(names, laws, _real=algebra._violations):
        laws = list(laws)
        seen.update(law[0] for law in laws)
        return _real(names, laws)
    for module in (algebra, xmod):
        monkeypatch.setattr(module, "_violations", recorded)
    return seen


def test_a_non_leibniz_algebra_has_every_law_evaluated(tmp_path, monkeypatch):
    # nj3 fails the Leibniz identity, so the action and crossed module laws
    # of its adjoint identity are all joined and the axioms' violations are
    # listed as by the full evaluation (a map between two adjoint identities
    # still reads its laws off check_hom, which needs no Leibniz identity)
    paths = non_leibniz_inputs(tmp_path)
    nj3 = cli.load_fixture(paths["nj3.algebra"])
    qid = CrossedModule.adjoint_identity(nj3)
    seen = _evaluated_laws(monkeypatch)
    for obj in (qid, renamed_adjoint_identity(nj3), XModHom.identity(qid),
                *(cli.load_fixture(paths[n]) for n in ("trivial.action", "nj3.xmod",
                                                      "nj3_xmod.hom"))):
        same_as_full_evaluation(obj)
    assert {f"axiom{k} " for k in range(1, 7)} | {"peiffer-left ", "peiffer-right "} <= seen
    labels = {label.split(" (")[0] for label, _ in check_xmod(qid).violations}
    assert {"leibniz nj3", "axiom1", "axiom2", "axiom3", "axiom4"} <= labels


# Each axiom residual of an algebra's bracket action on itself, at the basis
# elements of its label in order, is a signed sum of Leibniz residuals L at
# those elements in the given orders: axiom1(a,b,x) = -L(a,b,x), axiom2(a,x,y)
# = L(a,x,y), axiom3(x,a,b) = L(x,a,b), axiom4(x,y,a) = -L(x,y,a),
# axiom5(a,b,x) = L(a,b,x) + L(a,x,b) and axiom6(x,a,y) = L(x,a,y) + L(x,y,a).
IDENTITIES = {
    "axiom1": ((-1, (0, 1, 2)),),
    "axiom2": ((1, (0, 1, 2)),),
    "axiom3": ((1, (0, 1, 2)),),
    "axiom4": ((-1, (0, 1, 2)),),
    "axiom5": ((1, (0, 1, 2)), (1, (0, 2, 1))),
    "axiom6": ((1, (0, 1, 2)), (1, (0, 2, 1))),
}


def _identity_mismatches(a, identities) -> list:
    """The (axiom, basis names) at which the axiom residual of a's bracket
    action differs from its signed sum of Leibniz residuals, every residual
    read off the reports, key for key (an absent key is a zero residual)."""
    def keyed(report, prefix=""):
        return {label[len(prefix):]: r for label, r in report.violations
                if label.startswith(prefix)}
    zero = (Fraction(0),) * a.dim
    leib = keyed(check_leibniz(a))
    axioms = {name: keyed(check_action(a.adjoint), f"{name} ") for name in identities}
    bad = []
    for t in [(i, j, k) for i in a.basis_names for j in a.basis_names for k in a.basis_names]:
        for name, terms in identities.items():
            expect = zero
            for sign, order in terms:
                r = leib.get(f"({','.join(t[p] for p in order)})", zero)
                expect = tuple(x + sign * y for x, y in zip(expect, r))
            if axioms[name].get(f"({','.join(t)})", zero) != expect:
                bad.append((name, t))
    return bad


@PROPERTY
@given(algebras())
def test_bracket_action_axioms_are_signed_sums_of_leibniz_residuals(a):
    # on tables that are not Leibniz, where every axiom is joined
    assume(not check_leibniz(a).valid)
    assert _identity_mismatches(a, IDENTITIES) == []


def test_a_sign_flip_in_any_identity_is_caught(tmp_path):
    nj3 = cli.load_fixture(non_leibniz_inputs(tmp_path)["nj3.algebra"])
    assert _identity_mismatches(nj3, IDENTITIES) == []
    for name, terms in IDENTITIES.items():
        for t in range(len(terms)):
            flipped = tuple((-s if u == t else s, o) for u, (s, o) in enumerate(terms))
            assert _identity_mismatches(nj3, {**IDENTITIES, name: flipped}), (name, t)
