"""The integer twins that LeibnizAlgebra, LeibnizAction and RatMatrix
hold as their fields, against the dense-field classes kept in
_reference_tables.py: on random rational tables with mixed
denominators, the same dense views, the same equality and hashing (also
for twins given at a multiple of their denominator), and the same
check_leibniz, check_action, check_hom and check_xmod reports.  And a
pin that the multiplier and the extension analyses hash no Fraction and
build no dense table."""

import fractions
import gc
from fractions import Fraction
from itertools import product
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_checks as ref
import _reference_tables as old
from leibxmod import cli
from leibxmod.algebra import (
    AlgebraHom,
    LeibnizAction,
    LeibnizAlgebra,
    check_action,
    check_hom,
    check_leibniz,
)
from leibxmod.ratlin import RatMatrix
from leibxmod.xmod import CrossedModule, check_xmod

from test_checks import same_report, tables, vectors

PROPERTY = settings(derandomize=True, database=None, max_examples=100,
                    deadline=None)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@st.composite
def algebra_pairs(draw, max_dim=2):
    """One random table, as a library algebra and as an old one."""
    d = draw(st.integers(0, max_dim))
    names = tuple(f"e{i+1}" for i in range(d))
    c = draw(tables(d, d, d))
    return LeibnizAlgebra("a", d, names, c), old.LeibnizAlgebra("a", d, names, c)


@st.composite
def action_pairs(draw, max_dim=2):
    (m, om), (n, on) = draw(algebra_pairs(max_dim)), draw(algebra_pairs(max_dim))
    left, right = draw(tables(m.dim, n.dim, n.dim)), draw(tables(n.dim, m.dim, n.dim))
    return LeibnizAction(m, n, left, right), old.LeibnizAction(om, on, left, right)


@st.composite
def matrix_pairs(draw, rows=None, cols=None):
    rows = draw(st.integers(0, 3)) if rows is None else rows
    cols = draw(st.integers(0, 3)) if cols is None else cols
    zero = draw(st.integers(0, 3)) == 0
    entries = tuple(draw(vectors(cols, zero)) for _ in range(rows))
    return RatMatrix(rows, cols, entries), old.RatMatrix(rows, cols, entries)


def _times(view, k: int, depth: int) -> tuple:
    """An int view with depth outer indices (2 for the entries of a
    table), every value times k."""
    if depth == 2:
        return tuple((key, _times(v, k, 0)) for key, v in view)
    if depth:
        return tuple(_times(r, k, depth - 1) for r in view)
    return tuple((i, k * t) for i, t in view)


def _rescaled(pair, k: int):
    """The library object of pair built again by from_sparse from its twin
    at k times its denominator, and an old object from the same tables."""
    new, was = pair
    if isinstance(new, LeibnizAlgebra):
        den, view = new.zst
        return (LeibnizAlgebra.from_sparse(new.name, new.basis_names, (k * den, _times(view, k, 2))),
                old.LeibnizAlgebra(was.name, was.dim, was.basis_names, was.c))
    if isinstance(new, LeibnizAction):
        return (LeibnizAction.from_sparse(new.actor, new.acted, k * new.den,
                                          _times(new.sl, k, 2), _times(new.sr, k, 2)),
                old.LeibnizAction(was.actor, was.acted, was.left, was.right))
    den, cols = new.zcols
    return (RatMatrix.from_sparse(new.rows, (k * den, _times(cols, k, 1))),
            old.RatMatrix(was.rows, was.cols, was.entries))


def _same_classes(pairs):
    """Equality of the library objects is equality of the old ones, and
    equal objects hash alike on both sides."""
    for (a, oa), (b, ob) in product(pairs, repeat=2):
        assert (a == b) == (oa == ob)
        if a == b:
            assert hash(a) == hash(b) and hash(oa) == hash(ob)


def _fractions(table) -> bool:
    return all(type(x) is Fraction for row in table for v in row for x in v)


@PROPERTY
@given(action_pairs(max_dim=3), matrix_pairs())
def test_views_are_the_old_dense_fields(acts, matrices):
    (act, was), (m, om) = acts, matrices
    for a, oa in ((act.actor, was.actor), (act.acted, was.acted)):
        assert a.c == oa.c and _fractions(a.c)
    assert act.left == was.left and _fractions(act.left)
    assert act.right == was.right and _fractions(act.right)
    assert m.entries == om.entries and _fractions((m.entries,))
    assert [m.column(j) for j in range(m.cols)] == [om.column(j) for j in range(om.cols)]


@PROPERTY
@given(st.data())
def test_equality_and_hashing_match_the_old_classes(data):
    # a few random objects of each kind, and each again from its twin at
    # a multiple of the denominator, which is made canonical
    for kind in (algebra_pairs(), action_pairs(), matrix_pairs(2, 2)):
        pairs = data.draw(st.lists(kind, min_size=2, max_size=4))
        again = [_rescaled(p, data.draw(st.integers(1, 6))) for p in pairs]
        for (a, _), (b, _) in zip(pairs, again):
            assert a == b and hash(a) == hash(b)
        _same_classes(pairs + again)


@PROPERTY
@given(action_pairs(max_dim=3), st.data())
def test_reports_match_the_old_classes(acts, data):
    act, was = acts
    m, om = data.draw(matrix_pairs(act.actor.dim, act.acted.dim))
    for a, oa in ((act.actor, was.actor), (act.acted, was.acted)):
        same_report(check_leibniz(a), ref.check_leibniz(oa))
    same_report(check_action(act), ref.check_action(was))
    same_report(check_hom(AlgebraHom(act.acted, act.actor, m)),
                ref.check_hom(AlgebraHom(was.acted, was.actor, om)))
    same_report(check_xmod(CrossedModule("xm", act.acted, act.actor, m, act)),
                ref.check_xmod(CrossedModule("xm", was.acted, was.actor, om, was)))


class _Hashed(Exception):
    pass


def _refuse(self):
    raise _Hashed("a Fraction was hashed")


def test_commands_hash_no_fraction_and_build_no_dense_table(monkeypatch, capsys):
    # the loaded and derived algebras, actions and matrices are compared,
    # hashed and cached by their ints, and no command reads a dense table
    kinds = (LeibnizAlgebra, LeibnizAction)
    before = [o for o in gc.get_objects() if isinstance(o, kinds)]  # kept alive
    seen = {id(o) for o in before}
    monkeypatch.setattr(fractions.Fraction, "__hash__", _refuse)
    for argv in (["multiplier", "heis3_id.xmod"], ["classify-extension", "n2_over_k.extension"]):
        assert cli.main([argv[0], str(FIXTURES / argv[1]), "--json"]) == 0
    monkeypatch.undo()
    capsys.readouterr()
    made = [o for o in gc.get_objects() if isinstance(o, kinds) and id(o) not in seen]
    assert made
    assert not [(o, name) for o in made for name in ("c", "left", "right") if name in vars(o)]
