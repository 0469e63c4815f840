"""Non-abelian tensor and exterior products, and the Schur multiplier.

The tensor product of two Leibniz algebras with mutual actions is
modelled as a quotient of the linear span of the pure symbols
m_a * n_b (block 0) and n_b * m_a (block 1).  Swapping the factors
maps one block onto the other, so every rule is written once per side
and run on both.  Scalar and additivity rules are absorbed by linearity
of the symbol space; the remaining defining relations become vectors
spanning a relation subspace, and the bracket is given on symbols by one fixed representative per block pair,
the other representative being congruent modulo the relations.
Well-definedness of the bracket on the quotient is asserted, not
assumed; so is the Leibniz identity of the result.

The exterior product divides further by the subspace glued from the
pullback of the two structure maps over the shared base.  From it the
induced crossed module on the exterior squares, the evaluation maps
onto the original pair, and the Schur multiplier (the kernel of that
evaluation) are produced, each with its promised properties asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .algebra import (
    AlgebraHom,
    LeibnizAction,
    LeibnizAlgebra,
    check_action,
    check_hom,
    check_leibniz,
)
from .ratlin import (
    ONE,
    QuotientMap,
    RatMatrix,
    Subspace,
    accumulate,
    contract,
    dense,
    kernel,
    quotient,
    rank,
    sparse,
    sparse_columns,
    transposed,
    unit_vec,
    vec_is_zero,
)
from .xmod import (
    CrossedModule,
    XModHom,
    center_xmod,
    check_xmod,
    check_xmod_hom,
)

_ZERO = Fraction(0)


@dataclass(frozen=True)
class MutualActionPair:
    """Two algebras acting on each other, both actions individually valid."""

    m: LeibnizAlgebra
    n: LeibnizAlgebra
    m_on_n: LeibnizAction
    n_on_m: LeibnizAction

    def __post_init__(self):
        if self.m_on_n.actor != self.m or self.m_on_n.acted != self.n:
            raise ValueError("m_on_n must be an action of m on n")
        if self.n_on_m.actor != self.n or self.n_on_m.acted != self.m:
            raise ValueError("n_on_m must be an action of n on m")

    @classmethod
    def from_shared_base(cls, eta: CrossedModule, delta: CrossedModule) -> "MutualActionPair":
        """Mutual actions induced through the shared base of two crossed
        modules: each factor acts by mapping down and using the base action."""
        if eta.base != delta.base:
            raise ValueError("crossed modules must share the same base")
        return cls(eta.top, delta.top, _through_base(eta, delta),
                   _through_base(delta, eta))

    @property
    def sides(self) -> tuple:
        """Side s as (X, Y, X on Y, Y on X): side 0 is (m, n), side 1 is (n, m)."""
        return ((self.m, self.n, self.m_on_n, self.n_on_m),
                (self.n, self.m, self.n_on_m, self.m_on_n))

    @cached_property
    def evaluations(self) -> tuple:
        """ev[s][k]: ambient symbol k evaluated into the first factor X of
        side s by the action of Y on X, x * y -> x^y and y * x -> ^y x,
        as a sparse vector."""
        ev = []
        for s, (X, Y, _, y_on_x) in enumerate(self.sides):
            blocks = [None, None]
            blocks[s] = [y_on_x.sr[x][y] for x in range(X.dim) for y in range(Y.dim)]
            blocks[1 - s] = [y_on_x.sl[y][x] for y in range(Y.dim) for x in range(X.dim)]
            ev.append(tuple(blocks[0] + blocks[1]))
        return tuple(ev)


def _through_base(x: CrossedModule, y: CrossedModule) -> LeibnizAction:
    """The action of x.top on y.top that maps down by x.delta and acts by
    y.action.  When x is the base with the identity, that is y.action
    table for table, and y.action itself is returned, with its cached
    sparse views and validity report."""
    if x.top == x.base and x.delta == RatMatrix.identity(x.base.dim):
        return y.action
    m, n = x.top, y.top
    return LeibnizAction(
        m, n,
        tuple(tuple(y.action.act_left(x.delta.column(a), unit_vec(n.dim, b))
                    for b in range(n.dim)) for a in range(m.dim)),
        tuple(tuple(y.action.act_right(unit_vec(n.dim, b), x.delta.column(a))
                    for a in range(m.dim)) for b in range(n.dim)))


# ambient layout: two mirrored blocks.  Side 0 is (X, Y) = (m, n) and side
# 1 is (n, m); block s holds the symbols x * y of side s, at
# off_s + x * dim Y + y, where off_0 = 0 and off_1 = dim m * dim n.

def _index(dm: int, dn: int, s: int, x: int, y: int) -> int:
    return s * dm * dn + x * (dn, dm)[s] + y


def _legs(dm: int, dn: int, k: int) -> tuple:
    """Decode ambient index k to (block, x, y)."""
    s, r = divmod(k, dm * dn)
    return (s,) + divmod(r, (dn, dm)[s])


def _symbols(dm: int, dn: int, terms) -> dict:
    """The sum of c * (u * v) over terms (c, s, u, v), the symbol u * v
    of sparse vectors u, v taken in block s and extended bilinearly, as a
    sparse {ambient index: Fraction} accumulator."""
    acc = {}
    for c, s, u, v in terms:
        for x, ux in u:
            w, base = c * ux, _index(dm, dn, s, x, 0)
            for y, vy in v:
                k = base + y
                acc[k] = acc.get(k, _ZERO) + w * vy
    return acc


def _sym(dm: int, dn: int, *terms) -> tuple:
    """Dense ambient vector of _symbols(dm, dn, terms)."""
    return dense(_symbols(dm, dn, terms).items(), 2 * dm * dn)


def _bracket_term(pair: MutualActionPair, i: int, j: int, alt: bool = False) -> tuple:
    """[symbol_i, symbol_j] as one _symbols term: the first leg of symbol i
    acted on by symbol j, written in the block of symbol i (the primary
    representative) or, with alt, in the other block."""
    t = _legs(pair.m.dim, pair.n.dim, i)[0] ^ alt
    ev = pair.evaluations
    return (1, t, ev[t][i], ev[1 - t][j])


def _primary_entry(pair: MutualActionPair, i: int, j: int) -> tuple:
    """The chosen bracket representative: lands in the block of symbol i."""
    return _sym(pair.m.dim, pair.n.dim, _bracket_term(pair, i, j))


def _alt_entry(pair: MutualActionPair, i: int, j: int) -> tuple:
    """The other representative, congruent to the primary one modulo the
    relation subspace (their differences are relation rows)."""
    return _sym(pair.m.dim, pair.n.dim, _bracket_term(pair, i, j, alt=True))


def _defining_rows(pair: MutualActionPair) -> list:
    """Relation vectors, as sparse vectors sorted by index: a bracketed leg
    rewrites through the actions, the two one-sided actions agree up to
    sign in the second slot, and the two representatives of every symbol
    bracket coincide."""
    dm, dn = pair.m.dim, pair.n.dim
    amb = 2 * dm * dn
    rows = []

    def add(*terms):
        r = tuple(sorted((k, t) for k, t in _symbols(dm, dn, terms).items() if t))
        if r:
            rows.append(r)

    # a candidate whose terms are all empty gives no row, and is skipped
    for s, (X, Y, x_on_y, y_on_x) in enumerate(pair.sides):
        ex = [((x, ONE),) for x in range(X.dim)]
        ey = [((y, ONE),) for y in range(Y.dim)]
        for x in range(X.dim):
            xr = y_on_x.sr[x]
            for y in range(Y.dim):
                for y2 in range(Y.dim):
                    if Y.st[y][y2] or xr[y] or xr[y2]:
                        # x * [y, y2] = x^y * y2 - x^{y2} * y
                        add((1, s, ex[x], Y.st[y][y2]),
                            (-1, s, xr[y], ey[y2]),
                            (1, s, xr[y2], ey[y]))
        sl, sr = x_on_y.sl, x_on_y.sr
        for x in range(X.dim):
            for x2 in range(X.dim):
                for y in range(Y.dim):
                    if X.st[x][x2] or sl[x][y] or sr[y][x2]:
                        # [x, x2] * y = ^x y * x2 - x * y^{x2}
                        add((1, s, X.st[x][x2], ey[y]),
                            (-1, 1 - s, sl[x][y], ex[x2]),
                            (1, s, ex[x], sr[y][x2]))
                    if sl[x2][y] or sr[y][x2]:
                        # x * ^{x2}y = - x * y^{x2}
                        add((1, s, ex[x], sl[x2][y]),
                            (1, s, ex[x], sr[y][x2]))
    # both representatives of [symbol_i, symbol_j] agree; the term of a
    # representative in block t is empty unless ev[t][i] and ev[1 - t][j]
    # are both nonempty
    ev = pair.evaluations
    live = [i for i in range(amb) if ev[0][i] or ev[1][i]]
    for i in live:
        for j in live:
            if (ev[0][i] and ev[1][j]) or (ev[1][i] and ev[0][j]):
                c, t, u, v = _bracket_term(pair, i, j, alt=True)
                add(_bracket_term(pair, i, j), (-c, t, u, v))
    return rows


@dataclass(frozen=True)
class QuotientPresentation:
    """A symbol-space quotient carrying the induced Leibniz structure."""

    name: str
    pair: MutualActionPair
    ambient_dim: int
    relations: Subspace
    st: tuple   # sparse view of the representative table: [i][j] -> ((k, t), ...)
    resolved: LeibnizAlgebra
    qmap: QuotientMap

    def mn_index(self, a: int, b: int) -> int:
        return _index(self.pair.m.dim, self.pair.n.dim, 0, a, b)

    def nm_index(self, b: int, a: int) -> int:
        return _index(self.pair.m.dim, self.pair.n.dim, 1, b, a)

    def symbol_mn(self, u, v) -> tuple:
        """Ambient vector of u * v for u in m, v in n (bilinear)."""
        return _sym(self.pair.m.dim, self.pair.n.dim, (1, 0, sparse(u), sparse(v)))

    def symbol_nm(self, w, z) -> tuple:
        """Ambient vector of w * z for w in n, z in m (bilinear)."""
        return _sym(self.pair.m.dim, self.pair.n.dim, (1, 1, sparse(w), sparse(z)))

    def class_of(self, ambient_vec) -> tuple:
        return self.qmap.project(ambient_vec)

    def bracket_ambient(self, x, y) -> tuple:
        """Bilinear extension of the representative table."""
        return contract(self.st, x, y, self.ambient_dim)


def _symbol_names(pair: MutualActionPair) -> tuple:
    mn = [f"{pair.m.basis_names[a]}*{pair.n.basis_names[b]}"
          for a in range(pair.m.dim) for b in range(pair.n.dim)]
    nm = [f"{pair.n.basis_names[b]}*{pair.m.basis_names[a]}"
          for b in range(pair.n.dim) for a in range(pair.m.dim)]
    return tuple(mn + nm)


def _build_presentation(pair: MutualActionPair, extra_rows, name: str) -> QuotientPresentation:
    for act, side in ((pair.m_on_n, "m on n"), (pair.n_on_m, "n on m")):
        rep = check_action(act)
        if not rep.valid:
            raise ValueError(f"invalid action ({side}) for {name}:\n{rep.summary()}")
    amb = 2 * pair.m.dim * pair.n.dim
    # sparse view of the primary table: one product of two sparse vectors
    # per entry, so no accumulated value is zero
    st = tuple(tuple(tuple(_symbols(pair.m.dim, pair.n.dim,
                                    (_bracket_term(pair, i, j),)).items())
                     for j in range(amb))
               for i in range(amb))
    rows = _defining_rows(pair)
    rows.extend(sparse(r) for r in extra_rows)
    relations = Subspace.from_sparse(amb, sorted(set(rows)))
    qmap = quotient(amb, relations)

    # [r, e_s] has the sparse columns st_t[s], [e_s, r] those of st[s]
    st_t = transposed(st, amb)
    for r in qmap.rows:
        for s in range(amb):
            if not _preserves(qmap, r, st_t[s]):
                raise AssertionError(
                    f"bracket of {name} not well-defined: relation * symbol "
                    f"{s} escapes the relation subspace")
            if not _preserves(qmap, r, st[s]):
                raise AssertionError(
                    f"bracket of {name} not well-defined: symbol {s} * "
                    f"relation escapes the relation subspace")

    names = _symbol_names(pair)
    res_names = tuple(names[f] for f in qmap.free)
    c = tuple(tuple(qmap.project_sparse(st[x][y]) for y in qmap.free)
              for x in qmap.free)
    resolved = LeibnizAlgebra(name, qmap.dim, res_names, c)
    rep = check_leibniz(resolved)
    if not rep.valid:
        raise AssertionError(f"{name} lost the Leibniz identity:\n{rep.summary()}")
    return QuotientPresentation(name, pair, amb, relations, st, resolved, qmap)


def _image(a, columns) -> dict:
    """The image of the sparse vector a under the linear map whose column
    l is the sparse vector columns[l], as an accumulator."""
    acc = {}
    accumulate(acc, ONE, a, columns)
    return acc


def _preserves(qmap: QuotientMap, a, columns) -> bool:
    """Whether the linear map with the given sparse columns sends the
    sparse vector a into the relation subspace of qmap."""
    return qmap.kills(_image(a, columns).items())


@lru_cache(maxsize=None)
def tensor_product(pair: MutualActionPair, name=None) -> QuotientPresentation:
    """The algebra generated by the pure symbols of the two factors."""
    return _build_presentation(pair, (),
                               name or f"{pair.m.name}(x){pair.n.name}")


def square_subspace(eta: CrossedModule, delta: CrossedModule) -> Subspace:
    """The glue subspace in the tensor ambient of eta.top and delta.top:
    symbols u * v' - v * u' over pairs (u, v) from the pullback of the two
    structure maps over the shared base."""
    if eta.base != delta.base:
        raise ValueError("crossed modules must share the same base")
    m, n = eta.top, delta.top
    q = eta.base
    cols = []
    for a in range(m.dim):
        cols.append(eta.delta.column(a))
    for b in range(n.dim):
        cols.append(tuple(-x for x in delta.delta.column(b)))
    pullback = kernel(RatMatrix.from_columns(cols, rows=q.dim))
    pairs = [(v[:m.dim], v[m.dim:]) for v in pullback.basis.entries]
    pairs = [(sparse(u), sparse(v)) for u, v in pairs]
    gens = []
    for (u1, v1) in pairs:
        for (u2, v2) in pairs:
            acc = _symbols(m.dim, n.dim, ((1, 0, u1, v2), (-1, 1, v1, u2)))
            gens.append(tuple((k, t) for k, t in acc.items() if t))
    return Subspace.from_sparse(2 * m.dim * n.dim, gens)


@lru_cache(maxsize=None)
def exterior_presentation(eta: CrossedModule, delta: CrossedModule,
                          name=None) -> QuotientPresentation:
    """Tensor product of the two tops divided by the glue subspace."""
    pair = MutualActionPair.from_shared_base(eta, delta)
    box = square_subspace(eta, delta)
    return _build_presentation(pair, box.basis.entries,
                               name or f"{eta.top.name}(^){delta.top.name}")


def one_leg_span(pres: QuotientPresentation, m_sub: Subspace,
                 n_sub: Subspace) -> Subspace:
    """Span, inside the resolved quotient, of the classes of all symbols
    with the m-leg in m_sub or the n-leg in n_sub."""
    dm, dn = pres.pair.m.dim, pres.pair.n.dim
    qm = pres.qmap

    def cls(*terms):
        acc = qm.image(_symbols(dm, dn, terms).items())
        return tuple((k, t) for k, t in acc.items() if t)

    gens = []
    for u in map(sparse, m_sub.basis.entries):
        for j in range(dn):
            ej = ((j, ONE),)
            gens.append(cls((1, 0, u, ej)))
            gens.append(cls((1, 1, ej, u)))
    for v in map(sparse, n_sub.basis.entries):
        for i in range(dm):
            ei = ((i, ONE),)
            gens.append(cls((1, 0, ei, v)))
            gens.append(cls((1, 1, v, ei)))
    return Subspace.from_sparse(qm.dim, gens)


@dataclass(frozen=True)
class ExteriorSquareData:
    """The exterior squares of a crossed module with their induced
    structure: the connecting homomorphism between them, the action of
    the base square on the top square, and the evaluation maps back onto
    the crossed module's components."""

    qn: QuotientPresentation
    qq: QuotientPresentation
    id_wedge_delta: AlgebraHom
    action: LeibnizAction
    lambda_n: AlgebraHom
    mu_q: AlgebraHom
    induced_xmod: CrossedModule
    phi: XModHom


def _base_action_on_ambient(xm: CrossedModule, dn: int):
    """Linear maps for the base q acting on the tensor ambient of (q, n)
    symbols, where q acts on n = xm.top by xm.action:

      ^q (x * y) = (^q x) * y - (^q y) * x,    (x * y)^q = x^q * y + x * y^q,

    with ^q x = [q, x] and x^q = [x, q] on the q factor.

    Returns (left, right): left[i][k] is ^{q_i} of ambient symbol k and
    right[i][k] is symbol k acted on by q_i on the right, as sparse
    vectors, so left[i] and right[i] are the sparse columns of the two
    maps of basis element q_i.
    """
    q, act = xm.base, xm.action
    dq = q.dim
    # indexed by factor, 0 for q and 1 for n; in block s, x lies in factor s
    units = ([((a, ONE),) for a in range(dq)], [((b, ONE),) for b in range(dn)])
    lefts, rights = (q.st, act.sl), (q.st, act.sr)
    legs = [_legs(dq, dn, k) for k in range(2 * dq * dn)]
    left = tuple(
        tuple(tuple(_symbols(dq, dn, (
            (1, s, lefts[s][i][x], units[1 - s][y]),
            (-1, 1 - s, lefts[1 - s][i][y], units[s][x]))).items())
            for s, x, y in legs)
        for i in range(dq))
    right = tuple(
        tuple(tuple(_symbols(dq, dn, (
            (1, s, rights[s][x][i], units[1 - s][y]),
            (1, s, units[s][x], rights[1 - s][y][i]))).items())
            for s, x, y in legs)
        for i in range(dq))
    return left, right


def _descend_action(pres: QuotientPresentation, left, right, dq: int):
    """Push an ambient action of the base down to the resolved quotient,
    asserting the relation subspace is stable.  left[i] and right[i] are
    the sparse columns of the two ambient maps of basis element i."""
    qm = pres.qmap
    for i in range(dq):
        for r in qm.rows:
            if not _preserves(qm, r, left[i]):
                raise AssertionError(
                    f"base action does not preserve the relations of {pres.name}")
            if not _preserves(qm, r, right[i]):
                raise AssertionError(
                    f"base action does not preserve the relations of {pres.name}")
    return (tuple(tuple(qm.project_sparse(left[i][f]) for f in qm.free)
                  for i in range(dq)),
            tuple(tuple(qm.project_sparse(right[i][f]) for i in range(dq))
                  for f in qm.free))


@lru_cache(maxsize=None)
def exterior_square_data(xm: CrossedModule) -> ExteriorSquareData:
    """Exterior squares of a crossed module with all induced structure."""
    rep = check_xmod(xm)
    if not rep.valid:
        raise ValueError(f"invalid crossed module:\n{rep.summary()}")
    q, n = xm.base, xm.top
    dq, dn = q.dim, n.dim
    qid = CrossedModule.adjoint_identity(q)
    qn = exterior_presentation(qid, xm, name=f"{q.name}(^){n.name}")
    qq = exterior_presentation(qid, qid, name=f"{q.name}(^){q.name}")

    # evaluation maps on ambient symbols: q * n -> ^q n, n * q -> n^q,
    # and q * q' -> [q, q'] on both blocks; both evaluate into the second
    # factor through the base action, which is side 1's first factor.  On
    # the quotient, column j is the evaluation of the free symbol free[j]
    lam_amb, mu_amb = qn.pair.evaluations[1], qq.pair.evaluations[1]
    for r in qn.qmap.rows:
        if any(_image(r, lam_amb).values()):
            raise AssertionError("top evaluation map does not kill the relations")
    for r in qq.qmap.rows:
        if any(_image(r, mu_amb).values()):
            raise AssertionError("base evaluation map does not kill the relations")
    lambda_n = AlgebraHom(qn.resolved, n, RatMatrix.from_sparse_columns(
        [lam_amb[f] for f in qn.qmap.free], dn))
    mu_q = AlgebraHom(qq.resolved, q, RatMatrix.from_sparse_columns(
        [mu_amb[f] for f in qq.qmap.free], dq))

    # connecting map on symbols: q_a * n_b -> q_a * dn_b, n_b * q_a -> dn_b * q_a
    idd_amb = _substitution(qn, qq, RatMatrix.identity(dq), xm.delta)
    for r in qn.qmap.rows:
        if not _preserves(qq.qmap, r, idd_amb):
            raise AssertionError("connecting map does not preserve the relations")
    id_wedge_delta = AlgebraHom(qn.resolved, qq.resolved,
                                _induced_matrix(qn, qq, idd_amb))

    # action of the base on the top square, then pulled back through mu
    al_qn, ar_qn = _base_action_on_ambient(xm, dn)
    base_on_top = LeibnizAction(q, qn.resolved, *_descend_action(qn, al_qn, ar_qn, dq))
    mus = [mu_q.matrix.column(x) for x in range(qq.resolved.dim)]
    ens = [unit_vec(qn.resolved.dim, j) for j in range(qn.resolved.dim)]
    action = LeibnizAction(
        qq.resolved, qn.resolved,
        tuple(tuple(base_on_top.act_left(u, e) for e in ens) for u in mus),
        tuple(tuple(base_on_top.act_right(e, u) for u in mus) for e in ens))

    induced = CrossedModule(f"({qn.name},{qq.name})", qn.resolved, qq.resolved,
                            id_wedge_delta.matrix, action)
    irep = check_xmod(induced)
    if not irep.valid:
        raise AssertionError(
            f"exterior squares fail the crossed module laws:\n{irep.summary()}")
    phi = XModHom(induced, xm, lambda_n.matrix, mu_q.matrix)
    prep = check_xmod_hom(phi)
    if not prep.valid:
        raise AssertionError(
            f"evaluation is not a crossed module map:\n{prep.summary()}")
    z = center_xmod(induced)
    if not z.top_sub.contains_subspace(kernel(lambda_n.matrix)):
        raise AssertionError("kernel of the top evaluation is not central")
    if not z.base_sub.contains_subspace(kernel(mu_q.matrix)):
        raise AssertionError("kernel of the base evaluation is not central")
    return ExteriorSquareData(qn, qq, id_wedge_delta, action, lambda_n, mu_q,
                              induced, phi)


@lru_cache(maxsize=None)
def schur_multiplier(xm: CrossedModule) -> "tuple[CrossedModule, XModHom]":
    """Kernel of the evaluation of the exterior squares onto the crossed
    module, as an abelian crossed module with trivial action, plus its
    inclusion into the induced crossed module on the squares."""
    esd = exterior_square_data(xm)
    kt = kernel(esd.lambda_n.matrix)
    kb = kernel(esd.mu_q.matrix)
    for u in kt.basis.entries:
        for v in kt.basis.entries:
            if not vec_is_zero(esd.qn.resolved.bracket(u, v)):
                raise AssertionError("multiplier top is not abelian")
    for u in kb.basis.entries:
        for v in kb.basis.entries:
            if not vec_is_zero(esd.qq.resolved.bracket(u, v)):
                raise AssertionError("multiplier base is not abelian")
    dcols = []
    for u in kt.basis.entries:
        w = esd.id_wedge_delta.apply(u)
        if not kb.contains_vector(w):
            raise AssertionError("connecting map does not restrict to the multiplier")
        dcols.append(kb.coords(w))
    for u in kb.basis.entries:
        for j in range(kt.dim):
            if not vec_is_zero(esd.action.act_left(u, kt.basis.entries[j])):
                raise AssertionError("multiplier action is not trivial")
            if not vec_is_zero(esd.action.act_right(kt.basis.entries[j], u)):
                raise AssertionError("multiplier action is not trivial")
    top = LeibnizAlgebra.abelian(f"M({xm.name}).top", kt.dim,
                                 tuple(f"a{i+1}" for i in range(kt.dim)))
    base = LeibnizAlgebra.abelian(f"M({xm.name}).base", kb.dim,
                                  tuple(f"b{i+1}" for i in range(kb.dim)))
    delta = RatMatrix.from_columns(dcols, rows=kb.dim)
    mult = CrossedModule(f"M({xm.name})", top, base, delta,
                         LeibnizAction.trivial(base, top))
    incl = XModHom(mult, esd.induced_xmod,
                   RatMatrix.from_columns(list(kt.basis.entries),
                                          rows=esd.qn.resolved.dim),
                   RatMatrix.from_columns(list(kb.basis.entries),
                                          rows=esd.qq.resolved.dim))
    irep = check_xmod_hom(incl)
    if not irep.valid:
        raise AssertionError(
            f"multiplier inclusion is not a crossed module map:\n{irep.summary()}")
    return mult, incl


def _substitution(src: QuotientPresentation, tgt: QuotientPresentation,
                  fm: RatMatrix, fn: RatMatrix) -> list:
    """Sparse ambient columns of componentwise symbol substitution: every
    m-leg goes through fm and every n-leg through fn."""
    maps = ((sparse_columns(fm), sparse_columns(fn)),
            (sparse_columns(fn), sparse_columns(fm)))
    cols = []
    for k in range(src.ambient_dim):
        s, x, y = _legs(src.pair.m.dim, src.pair.n.dim, k)
        fx, fy = maps[s]
        cols.append(tuple(_symbols(tgt.pair.m.dim, tgt.pair.n.dim,
                                   ((1, s, fx[x], fy[y]),)).items()))
    return cols


def _induced_matrix(src: QuotientPresentation, tgt: QuotientPresentation,
                    columns) -> RatMatrix:
    """The quotient-level matrix of an ambient map with the given sparse
    columns, which preserves the relations: column j is the class of the
    image of the free symbol src.qmap.free[j]."""
    return RatMatrix.from_sparse_columns(
        [tgt.qmap.image(columns[f]).items() for f in src.qmap.free],
        tgt.qmap.dim)


def _induced_presentation_hom(src: QuotientPresentation,
                              tgt: QuotientPresentation,
                              fm: RatMatrix, fn: RatMatrix) -> AlgebraHom:
    """Quotient-level map induced by componentwise symbol substitution."""
    amb = _substitution(src, tgt, fm, fn)
    for r in src.qmap.rows:
        if not _preserves(tgt.qmap, r, amb):
            raise AssertionError(
                f"induced map {src.name} -> {tgt.name} does not preserve relations")
    hom = AlgebraHom(src.resolved, tgt.resolved, _induced_matrix(src, tgt, amb))
    hrep = check_hom(hom)
    if not hrep.valid:
        raise AssertionError(
            f"induced map {src.name} -> {tgt.name} is not a homomorphism:\n"
            f"{hrep.summary()}")
    return hom


def induced_exterior_hom(f: XModHom) -> "tuple[AlgebraHom, AlgebraHom]":
    """Maps induced on the exterior squares by a surjective crossed module
    map, with surjectivity and the one-leg description of the kernels
    asserted."""
    if not f.is_surjective():
        raise ValueError("induced exterior maps need a surjective homomorphism")
    frep = check_xmod_hom(f)
    if not frep.valid:
        raise ValueError(f"invalid crossed module map:\n{frep.summary()}")
    src = exterior_square_data(f.source)
    tgt = exterior_square_data(f.target)
    top_hom = _induced_presentation_hom(src.qn, tgt.qn, f.base_map, f.top_map)
    base_hom = _induced_presentation_hom(src.qq, tgt.qq, f.base_map, f.base_map)
    if rank(top_hom.matrix) != tgt.qn.resolved.dim:
        raise AssertionError("induced top map is not surjective")
    if rank(base_hom.matrix) != tgt.qq.resolved.dim:
        raise AssertionError("induced base map is not surjective")
    kp = f.kernel_pair()
    if kernel(top_hom.matrix) != one_leg_span(src.qn, kp.base_sub, kp.top_sub):
        raise AssertionError(
            "kernel of the induced top map differs from the one-leg span")
    if kernel(base_hom.matrix) != one_leg_span(src.qq, kp.base_sub, kp.base_sub):
        raise AssertionError(
            "kernel of the induced base map differs from the one-leg span")
    return top_hom, base_hom


def multiplier_functorial_map(f: XModHom) -> XModHom:
    """Restriction of the induced exterior maps to the multipliers."""
    top_hom, base_hom = induced_exterior_hom(f)
    m_src, _ = schur_multiplier(f.source)
    m_tgt, _ = schur_multiplier(f.target)
    src = exterior_square_data(f.source)
    tgt = exterior_square_data(f.target)
    kt_src = kernel(src.lambda_n.matrix)
    kb_src = kernel(src.mu_q.matrix)
    kt_tgt = kernel(tgt.lambda_n.matrix)
    kb_tgt = kernel(tgt.mu_q.matrix)
    tcols = []
    for u in kt_src.basis.entries:
        w = top_hom.apply(u)
        if not kt_tgt.contains_vector(w):
            raise AssertionError("induced top map does not preserve the multiplier")
        tcols.append(kt_tgt.coords(w))
    bcols = []
    for u in kb_src.basis.entries:
        w = base_hom.apply(u)
        if not kb_tgt.contains_vector(w):
            raise AssertionError("induced base map does not preserve the multiplier")
        bcols.append(kb_tgt.coords(w))
    out = XModHom(m_src, m_tgt,
                  RatMatrix.from_columns(tcols, rows=m_tgt.top.dim),
                  RatMatrix.from_columns(bcols, rows=m_tgt.base.dim))
    orep = check_xmod_hom(out)
    if not orep.valid:
        raise AssertionError(
            f"multiplier map is not a crossed module map:\n{orep.summary()}")
    return out
