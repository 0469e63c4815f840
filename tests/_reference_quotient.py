"""The dense quotient maps that leibxmod.ratlin used before its sparse
QuotientMap, kept as a test oracle.

reduce is the old Subspace.reduce verbatim, contains_vector the old
membership test on top of it (both read any Subspace through its dense
basis: they are the tests' dense membership test), and quotient the old
construction of the dense projection and section matrices; project is
the old QuotientMap.project, the projection matrix times the coerced
vector, so it reads the projection of a sparse QuotientMap too.  The
differential tests in test_quotient.py compare the sparse map with them.
action_rows and agreement_rows are the old defining rows of
tensor._build_presentation verbatim, on the Fraction sparse views of
helpers, split into their two families: they build a candidate row for
every basis triple and every symbol pair, empty or not.
sweep_witness is the old well-definedness sweep of
tensor._build_presentation, which tests every relation row against every
symbol, on both sides, through the full representative table.
square_subspace, one_leg_span and substitution are the old tensor.square_subspace,
tensor.one_leg_span and tensor._substitution verbatim: each builds its
family of symbols with one _symbols call per generator, where the library
takes every family through its one outer product (tensor._cross).
exterior_relations is the relation subspace of the old
tensor.exterior_presentation: the action rows of both sides, the
agreement rows and the canonical rows of the glue subspace, where the
library takes side 0's rule 1 rows alone for two equal crossed modules
whose top acts on itself by its bracket, and eliminates the glue
generators with the action and agreement rows.
"""

from fractions import Fraction
from typing import NamedTuple, Sequence

from leibxmod.ratlin import (
    QuotientMap,
    RatMatrix,
    Subspace,
    _row,
    _scaled,
    accumulate,
    kernel,
    rational,
)
from _reference_grid import transposed
from leibxmod.tensor import (
    MutualActionPair,
    _action_rows,
    _agreement_rows,
    _legs,
    _pair_parts,
    _symbols,
)

from _dense import vec, vec_is_zero
from _reference_checks import _mul_vec
from helpers import bracket_term, sparse_sl, sparse_sr, sparse_st

ONE = Fraction(1)


def reduce(self: Subspace, v: Sequence) -> tuple:
    """Residual of v after eliminating all pivot coordinates."""
    v = vec(v)
    if len(v) != self.ambient_dim:
        raise ValueError("vector length differs from ambient dimension")
    out = list(v)
    for row, p in zip(self.basis.entries, self.pivots):
        c = out[p]
        if c:
            for k, a in enumerate(row):
                if a:
                    out[k] -= c * a
    return tuple(out)


def contains_vector(self: Subspace, v: Sequence) -> bool:
    return vec_is_zero(reduce(self, v))


class DenseQuotient(NamedTuple):
    ambient_dim: int
    relations: Subspace
    projection: RatMatrix
    section: RatMatrix
    free: tuple


def quotient(ambient_dim: int, r: Subspace) -> DenseQuotient:
    if r.ambient_dim != ambient_dim:
        raise ValueError("relation subspace lives in a different ambient space")
    pivset = set(r.pivots)
    free = tuple(c for c in range(ambient_dim) if c not in pivset)
    q = len(free)
    proj = [[Fraction(0)] * ambient_dim for _ in range(q)]
    for k, f in enumerate(free):
        proj[k][f] = Fraction(1)
        for i, p in enumerate(r.pivots):
            proj[k][p] = -r.basis.entries[i][f]
    sect = [[Fraction(0)] * q for _ in range(ambient_dim)]
    for k, f in enumerate(free):
        sect[f][k] = Fraction(1)
    return DenseQuotient(
        ambient_dim, r,
        RatMatrix(q, ambient_dim, tuple(tuple(row) for row in proj)),
        RatMatrix(ambient_dim, q, tuple(tuple(row) for row in sect)),
        free,
    )


def project(qm: DenseQuotient, v: Sequence) -> tuple:
    return _mul_vec(qm.projection, vec(v))


def _adder(pair: MutualActionPair, rows: list):
    dm, dn = pair.m.dim, pair.n.dim

    def add(*terms):
        r = tuple(sorted((k, t) for k, t in _symbols(dm, dn, terms).items() if t))
        if r:
            rows.append(r)
    return add


def action_rows(pair: MutualActionPair) -> list:
    rows = []
    add = _adder(pair, rows)
    for s, (X, Y, x_on_y, y_on_x) in enumerate(pair.sides):
        ex = [((x, ONE),) for x in range(X.dim)]
        ey = [((y, ONE),) for y in range(Y.dim)]
        Xst, Yst, ysr = sparse_st(X), sparse_st(Y), sparse_sr(y_on_x)
        sl, sr = sparse_sl(x_on_y), sparse_sr(x_on_y)
        for x in range(X.dim):
            for y in range(Y.dim):
                for y2 in range(Y.dim):
                    # x * [y, y2] = x^y * y2 - x^{y2} * y
                    add((1, s, ex[x], Yst[y][y2]),
                        (-1, s, ysr[x][y], ey[y2]),
                        (1, s, ysr[x][y2], ey[y]))
        for x in range(X.dim):
            for x2 in range(X.dim):
                for y in range(Y.dim):
                    # [x, x2] * y = ^x y * x2 - x * y^{x2}
                    add((1, s, Xst[x][x2], ey[y]),
                        (-1, 1 - s, sl[x][y], ex[x2]),
                        (1, s, ex[x], sr[y][x2]))
                    # x * ^{x2}y = - x * y^{x2}
                    add((1, s, ex[x], sl[x2][y]),
                        (1, s, ex[x], sr[y][x2]))
    return rows


def agreement_rows(pair: MutualActionPair) -> list:
    amb = 2 * pair.m.dim * pair.n.dim
    rows = []
    add = _adder(pair, rows)
    # both representatives of [symbol_i, symbol_j] agree
    for i in range(amb):
        for j in range(amb):
            c, t, u, v = bracket_term(pair, i, j, alt=True)
            add(bracket_term(pair, i, j), (-c, t, u, v))
    return rows


def sweep_witness(pair: MutualActionPair, qmap: QuotientMap):
    """The first (relation row index, symbol, side) whose bracket escapes
    the relation subspace of qmap, side "relation * symbol" or "symbol *
    relation", in the order the old sweep tested them; None if none does."""
    dm, dn = pair.m.dim, pair.n.dim
    amb = 2 * dm * dn
    st = tuple(tuple(tuple(_symbols(dm, dn, (bracket_term(pair, i, j),)).items())
                     for j in range(amb))
               for i in range(amb))
    st_t = transposed(st, amb)

    def preserves(a, columns):
        acc = {}
        accumulate(acc, ONE, a, columns)
        return qmap.kills(acc.items())

    # the RREF rows of the relations, as Fraction sparse vectors
    rows = [rational(row, row[0][1]) for row in qmap.relations.zrows]
    for n, r in enumerate(rows):
        for s in range(amb):
            if not preserves(r, st_t[s]):
                return n, s, "relation * symbol"
            if not preserves(r, st[s]):
                return n, s, "symbol * relation"
    return None


def square_subspace(eta, delta) -> Subspace:
    if eta.base != delta.base:
        raise ValueError("crossed modules must share the same base")
    m, n = eta.top, delta.top
    # the kernel of [eta.delta | -delta.delta], its int columns at one scale
    (de, ce), (dd, cd) = eta.delta.zcols, delta.delta.zcols
    pullback = kernel(RatMatrix.from_sparse(eta.base.dim, (de * dd, tuple(
        [_scaled(v, dd) for v in ce] + [_scaled(v, -de) for v in cd]))))
    pairs = [_pair_parts(m.dim, w) for w in pullback.zrows]
    gens = [_row(_symbols(m.dim, n.dim, ((1, 0, u1, v2), (-1, 1, v1, u2))))
            for u1, v1 in pairs for u2, v2 in pairs]
    return Subspace.from_integer_rows(2 * m.dim * n.dim, gens)


def exterior_relations(eta, delta) -> Subspace:
    pair = MutualActionPair.from_shared_base(eta, delta)
    rows = _action_rows(pair, 2) + _agreement_rows(pair)
    return Subspace.from_integer_rows(2 * pair.m.dim * pair.n.dim,
                                      rows + list(square_subspace(eta, delta).zrows))


def one_leg_span(pres, m_sub: Subspace, n_sub: Subspace) -> Subspace:
    dm, dn = pres.pair.m.dim, pres.pair.n.dim
    qm = pres.qmap

    def cls(*terms):
        return _row(qm.integer_image(_symbols(dm, dn, terms).items()))

    # the canonical rows, each at its own positive scale: the same spans
    gens = []
    for u in m_sub.zrows:
        for j in range(dn):
            ej = ((j, 1),)
            gens.append(cls((1, 0, u, ej)))
            gens.append(cls((1, 1, ej, u)))
    for v in n_sub.zrows:
        for i in range(dm):
            ei = ((i, 1),)
            gens.append(cls((1, 0, ei, v)))
            gens.append(cls((1, 1, v, ei)))
    return Subspace.from_integer_rows(qm.dim, gens)


def substitution(src: MutualActionPair, tgt: MutualActionPair,
                 fm: RatMatrix, fn: RatMatrix) -> tuple:
    (dm, cm), (dn, cn) = fm.zcols, fn.zcols
    maps = ((cm, cn), (cn, cm))
    cols = []
    for k in range(2 * src.m.dim * src.n.dim):
        s, x, y = _legs(src.m.dim, src.n.dim, k)
        fx, fy = maps[s]
        cols.append(tuple(_symbols(tgt.m.dim, tgt.n.dim, ((1, s, fx[x], fy[y]),)).items()))
    return dm * dn, cols
