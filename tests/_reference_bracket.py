"""The entry-by-entry resolved bracket that leibxmod built before the
square's bracket factored through its evaluations, kept as a test oracle.

resolved_table is the old loop of leibxmod.tensor._build_presentation,
verbatim but for its inputs, which are read off a presentation, and its
grid, which is made canonical as the entries the library stores, and
_bracket_term the old helper of leibxmod.tensor, verbatim: one symbol
per pair of free symbols, the first leg of symbol x acted on by symbol
y in the block of x, projected through the quotient map.  representatives
is the old leibxmod.tensor._representatives on the same terms, every
symbol pair unprojected.  test_tensor.py compares the library's resolved
and representative tables with them.
"""

from _reference_grid import entries
from leibxmod.ratlin import _row, canonical
from leibxmod.tensor import _legs, _symbols


def _bracket_term(pair, i: int, j: int) -> tuple:
    """den[0] * den[1] times [symbol_i, symbol_j] as one _symbols term, for
    den and the evaluations of zevaluations: the first leg of symbol i
    acted on by symbol j, written in the block of symbol i (the primary
    representative)."""
    t = _legs(pair.m.dim, pair.n.dim, i)[0]
    ev = pair.zevaluations[1]
    return (1, t, ev[t][i], ev[1 - t][j])


def resolved_table(pres) -> tuple:
    """The integer twin of the resolved bracket of pres, made canonical as
    LeibnizAlgebra.from_sparse makes it."""
    pair, qmap = pres.pair, pres.qmap
    dm, dn = pair.m.dim, pair.n.dim
    free = qmap.free
    (d0, d1), _ = pair.zevaluations
    c = tuple(tuple(_row(qmap.integer_image(
        _symbols(dm, dn, (_bracket_term(pair, x, y),)).items()))
        for y in free) for x in free)
    return canonical((qmap.zimages[0] * d0 * d1, entries(c)), 2)


def representatives(pair) -> tuple:
    """The old int view of the primary table over every symbol pair."""
    dm, dn = pair.m.dim, pair.n.dim
    amb = 2 * dm * dn
    return tuple(tuple(tuple(_symbols(dm, dn, (_bracket_term(pair, i, j),)).items())
                       for j in range(amb))
                 for i in range(amb))
