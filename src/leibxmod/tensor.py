"""Non-abelian tensor and exterior products, and the Schur multiplier.

The tensor product of two Leibniz algebras with mutual actions is
modelled as a quotient of the linear span of the pure symbols m_a * n_b
(block 0) and n_b * m_a (block 1).  Swapping the factors maps one block
onto the other, so every action rule is written once per side and run on
both (side 0's rule 1 alone for the square of equal crossed modules),
and every family p_m * q_n +- p_n *' q_m over pairs p, q of vectors of
m + n (agreement rows, glue, well-definedness tests, one-leg span,
induced substitutions) is one outer product, ``_cross``.  Scalar and
additivity rules are absorbed by linearity; the other relations span a
relation subspace, and the bracket is given on symbols by one
representative per block pair, the other congruent to it modulo them.

The bracket of two symbols factors through the evaluation maps ev[0]
(into m) and ev[1] (into n): with u * v the symbol in block 0 and
u *' v the one in block 1, [e_i, e_j] = ev[0][i] * ev[1][j] when symbol
i lies in block 0 and ev[1][i] *' ev[0][j] when it lies in block 1.
So every family of brackets this module checks or generates is bilinear
in vectors of m + n, and holds for every symbol pair exactly when it
holds on products of bases of the spans involved, at most (dm + dn)^2
products instead of (2 dm dn)^2.  Well-definedness of the bracket on
the quotient is asserted that way, not assumed, and a failure is named
by the per-symbol scan; the resolved table is read the same way
(``_brackets``), and its Leibniz identity is asserted too.

The exterior product divides further by the glue, spanned from the
pullback of the two structure maps over the shared base, {(delta b, b)}
read off delta when the first is the identity; for two equal crossed
modules it holds the diagonal, so the glue identifies the blocks and, with
the bracket action, holds the agreement rows and makes the block 1
well-definedness tests mirrors of block 0's.  From it the induced
crossed module on the exterior squares, the evaluation maps onto the
original pair, and the Schur multiplier (the kernel of that evaluation,
taken once per matrix) are produced, each with its promised properties
asserted.  The evaluations, id ^ delta and the maps a surjection
induces descend through one helper (``_descend``): the ambient map must
kill the relation rows, and is read at the free symbols, on int vectors.
The base action on the top square is read off the top evaluation
(``_base_on_top``) and asserted to commute with it.  The squares (one
for a (q, q, id) of any name) are the cached property ``squares`` of a
crossed module (body ``_squares``), and the maps a surjection induces on
them its cached ``square_maps``; nothing is memoized across objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .algebra import (
    AlgebraHom,
    LeibnizAction,
    LeibnizAlgebra,
    _pairwise,
    _pulled_back,
    check_action,
    check_hom,
    check_leibniz,
)
from .ratlin import (
    QuotientMap,
    RatMatrix,
    Subspace,
    _image,
    _images,
    _restriction,
    _row,
    _rows,
    _scaled,
    kernel,
    quotient,
    transposed,
)
from .xmod import (
    CrossedModule,
    XModHom,
    _require_valid,
    check_xmod,
    check_xmod_hom,
    is_adjoint_identity,
)


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
    def zevaluations(self) -> tuple:
        """(den, ev): ev[s][k] is ambient symbol k evaluated into the first
        factor X of side s by the action of Y on X, x * y -> x^y and
        y * x -> ^y x, as a sparse int vector times den[s], the
        denominator of that action, read off its int entries.  A symbol
        u * v with u from ev[0] and v from ev[1], in either block, is
        den[0] * den[1] times its value."""
        dm, dn, ev = self.m.dim, self.n.dim, []
        for s, (_, _, _, y_on_x) in enumerate(self.sides):
            e = [()] * (2 * dm * dn)  # x * y at _index(s, x, y), y * x at _index(1 - s, y, x)
            for t, table in ((s, y_on_x.sr), (1 - s, y_on_x.sl)):
                for (a, b), v in table:
                    e[_index(dm, dn, t, a, b)] = v
            ev.append(tuple(e))
        return (self.n_on_m.den, self.m_on_n.den), tuple(ev)

    @cached_property
    def evaluation_basis(self) -> list:
        """A basis of den W, the span in m + n of w_i = (den[0] ev[0][i],
        den[1] ev[1][i]) over every symbol i, as pairs of sparse int
        vectors of m and n (den and ev as in zevaluations).  Every family
        read off it pairs the m part of one vector with the n part of
        another, so it is den[0] * den[1] times that family on W."""
        return _pair_basis(self.m.dim, self.n.dim, zip(*self.zevaluations[1]))


def _through_base(x: CrossedModule, y: CrossedModule) -> LeibnizAction:
    """The action of x.top on y.top that maps down by x.delta and acts by
    y.action.  When x is the base with the identity, that is y.action
    table for table, and y.action itself is returned, with its cached
    sparse views and validity report."""
    if x.top == x.base and x.delta == RatMatrix.identity(x.base.dim):
        return y.action
    return _pulled_back(y.action, x.top, x.delta.zcols)


# ambient layout: two mirrored blocks.  Side 0 is (X, Y) = (m, n) and side
# 1 is (n, m); block s holds the symbols x * y of side s, at
# off_s + x * dim Y + y, where off_0 = 0 and off_1 = dim m * dim n.

def _index(dm: int, dn: int, s: int, x: int, y: int) -> int:
    return s * dm * dn + x * (dn, dm)[s] + y


def _legs(dm: int, dn: int, k: int) -> tuple:
    """Decode ambient index k to (block, x, y)."""
    s, r = divmod(k, dm * dn)
    return (s,) + divmod(r, (dn, dm)[s])


def _pair_basis(du: int, dv: int, pairs) -> list:
    """A basis of the span of the vectors (u, v) of X + Y, for sparse int
    vectors u of X = QQ^du and v of Y = QQ^dv, as pairs of sparse int
    vectors: the canonical rows of the span."""
    return [_pair_parts(du, w) for w in Subspace.from_integer_rows(
        du + dv, [u + tuple((du + k, t) for k, t in v) for u, v in pairs]).zrows]


def _pair_parts(du: int, w) -> tuple:
    """The parts (u, v) of a sparse vector w of X + Y, dim X = du."""
    return (tuple(e for e in w if e[0] < du), tuple((k - du, t) for k, t in w if k >= du))


def _symbols(dm: int, dn: int, terms) -> dict:
    """The sum of c * (u * v) over terms (c, s, u, v), the symbol u * v
    of sparse vectors u, v taken in block s and extended bilinearly, as a
    sparse {ambient index: value} accumulator: an int one when c and the
    values of u and v are ints, as on integer twins."""
    acc = {}
    for c, s, u, v in terms:
        for x, ux in u:
            w, base = c * ux, _index(dm, dn, s, x, 0)
            for y, vy in v:
                k = base + y
                acc[k] = acc.get(k, 0) + w * vy
    return acc


def _cross(dm: int, dn: int, ps, qs, sign=1) -> list:
    """The outer product: for each p in ps and q in qs, in that order, the
    sorted int row p_m * q_n + sign p_n *' q_m (zero rows kept), for pairs
    p, q = (m part, n part) of sparse int vectors of m + n."""
    return [_row(_symbols(dm, dn, ((1, 0, a, d), (sign, 1, b, c))))
            for a, b in ps for c, d in qs]


def _brackets(pair: MutualActionPair, symbols, image) -> tuple:
    """The int entries, keyed by the positions (p, q) in symbols of i and
    j, of image(den[0] * den[1] [symbol_i, symbol_j]), for den and ev of
    zevaluations and a linear map image: the primary representative
    ev[t][i] * ev[1 - t][j], in the block t of i, is ev[1 - t][j] through
    the images a[b] of ev[t][i] * e_b."""
    dm, dn = pair.m.dim, pair.n.dim
    ev, out = pair.zevaluations[1], []
    for p, i in enumerate(symbols):
        t = _legs(dm, dn, i)[0]
        a = [_row(image([(_index(dm, dn, t, x, b), u) for x, u in ev[t][i]]))
             for b in range((dn, dm)[t])]
        if any(a):
            out += [((p, q), r) for q, j in enumerate(symbols)
                    if (r := _row(_image(ev[1 - t][j], a)))]
    return tuple(out)


def _action_rows(pair: MutualActionPair, sides: int = 2) -> list:
    """A bracketed leg rewrites through the actions (rules 1 and 2), and the
    one-sided actions agree up to sign in the second slot (rule 3); one row
    per basis triple of each side whose terms are not all empty, in order,
    found from the rows of the tables; side 0's rule 1 rows alone when sides
    is 1.  Where both actions are the bracket, rule 3 at (x, x2, y) is
    R1(x; x2, y) + R1(x; y, x2), and rule 2 is R1(x; y, x2) plus the glue
    row [x, y] * x2 - [x, y] *' x2.  Rows are read off integer twins, each
    term scaled to the lcm of its row's denominators (a positive multiple)."""
    dm, dn = pair.m.dim, pair.n.dim
    rows = []

    def add(*terms):
        r = _row(_symbols(dm, dn, terms))
        if r:
            rows.append(r)

    for s, (X, Y, x_on_y, y_on_x) in enumerate(pair.sides):
        ex, ey = ([((i, 1),) for i in range(d)] for d in (X.dim, Y.dim))
        Yst, ysr = _rows(Y.zst[1], Y.dim), _rows(y_on_x.sr, X.dim)
        den = lcm(Y.zst[0], y_on_x.den)
        cY, cA = den // Y.zst[0], den // y_on_x.den
        for x, xr in enumerate(ysr):
            for y, yr in enumerate(Yst):
                for y2 in range(Y.dim) if y in xr else sorted(yr.keys() | xr.keys()):
                    # rule 1: x * [y, y2] = x^y * y2 - x^{y2} * y
                    add((cY, s, ex[x], yr.get(y2, ())),
                        (-cA, s, xr.get(y, ()), ey[y2]),
                        (cA, s, xr.get(y2, ()), ey[y]))
        if sides == 1:
            break
        Xst, sl, sr = (_rows(t, X.dim) for t in (X.zst[1], x_on_y.sl, transposed(x_on_y.sr)))
        den = lcm(X.zst[0], x_on_y.den)
        cX, cB = den // X.zst[0], den // x_on_y.den
        for x, (xr, lx) in enumerate(zip(Xst, sl)):
            for x2 in range(X.dim):
                b, l2, c2 = xr.get(x2, ()), sl[x2], sr[x2]
                for y in range(Y.dim) if b else sorted(lx.keys() | l2.keys() | c2.keys()):
                    if b or y in lx or y in c2:
                        # rule 2: [x, x2] * y = ^x y * x2 - x * y^{x2}
                        add((cX, s, b, ey[y]),
                            (-cB, 1 - s, lx.get(y, ()), ex[x2]),
                            (cB, s, ex[x], c2.get(y, ())))
                    if y in l2 or y in c2:
                        # rule 3: x * ^{x2}y = - x * y^{x2}
                        add((1, s, ex[x], l2.get(y, ())),
                            (1, s, ex[x], c2.get(y, ())))
    return rows


def _agreement_rows(pair: MutualActionPair) -> list:
    """Both representatives of every symbol bracket agree.  For symbols i
    and j they differ by plus or minus ev[0][i] * ev[1][j] - ev[1][i] *'
    ev[0][j], which is bilinear in w_i and w_j (see evaluation_basis); so
    the rows on pairs of basis vectors of den W, int rows, span the same
    subspace as the rows of all symbol pairs, and the relations'
    canonical RREF is the same."""
    basis = pair.evaluation_basis
    return [r for r in _cross(pair.m.dim, pair.n.dim, basis, basis, -1) if r]


def _representatives(pair: MutualActionPair) -> tuple:
    """The int entries of the primary table, ((i, j), ((k, t), ...)) over
    the symbol pairs with a nonzero bracket, den[0] * den[1] times it, for den of
    zevaluations."""
    return _brackets(pair, range(2 * pair.m.dim * pair.n.dim), dict)


@dataclass(frozen=True)
class QuotientPresentation:
    """A symbol-space quotient carrying the induced Leibniz structure."""

    name: str
    pair: MutualActionPair
    ambient_dim: int
    relations: Subspace
    resolved: LeibnizAlgebra
    qmap: QuotientMap


def _build_presentation(pair: MutualActionPair, extra_rows, name: str,
                        sides: int = 2) -> QuotientPresentation:
    """The quotient of the symbol space by the action rows (side 0's rule 1
    rows alone when sides is 1), the agreement rows and extra_rows (sparse
    int vectors sorted by index, zeros allowed), with the bracket asserted
    well-defined on it (_well_defined; a failure is named by the per-symbol
    scan, _scan) and the Leibniz identity asserted on the resolved algebra.
    Only the brackets of the free symbols are projected into it.  Sides is 1
    only for the square of equal crossed modules whose top acts on itself
    by its bracket, whose glue, in extra_rows, holds t * t' - t *' t' for
    every t, t' of m: there every w_i is (t_i, t_i), so each agreement row
    t_i * t_j - t_i *' t_j is a glue row, and they are not generated."""
    for act, side in ((pair.m_on_n, "m on n"), (pair.n_on_m, "n on m")):
        rep = check_action(act)
        if not rep.valid:
            raise ValueError(f"invalid action ({side}) for {name}:\n{rep.summary()}")
    amb = 2 * pair.m.dim * pair.n.dim
    rows = _action_rows(pair, sides) + (_agreement_rows(pair) if sides == 2 else [])
    relations = Subspace.from_integer_rows(amb, rows + [*extra_rows])
    qmap = quotient(amb, relations)
    if not _well_defined(pair, qmap, sides):
        _scan(pair, qmap, name)
        raise AssertionError(
            f"bracket of {name} fails the factored well-definedness test, "
            f"but the scan finds no relation and symbol that escape the "
            f"relation subspace")

    names = tuple(f"{x}*{y}" for X, Y, _, _ in pair.sides
                  for x in X.basis_names for y in Y.basis_names)
    (d0, d1), _ = pair.zevaluations
    resolved = LeibnizAlgebra.from_sparse(name, tuple(names[f] for f in qmap.free), (
        qmap.zimages[0] * d0 * d1, _brackets(pair, qmap.free, qmap.integer_image)))
    rep = check_leibniz(resolved)
    if not rep.valid:
        raise AssertionError(f"{name} lost the Leibniz identity:\n{rep.summary()}")
    return QuotientPresentation(name, pair, amb, relations, resolved, qmap)


def _well_defined(pair: MutualActionPair, qmap: QuotientMap, sides: int = 2) -> bool:
    """Whether [r, e_s] and [e_s, r] lie in the relation subspace R of qmap
    for every relation r and symbol s, tested on products of bases.

    [r, e_s] = L(r)_m * ev[1][s] + L(r)_n *' ev[0][s], where L(r) in m + n
    sums r_i ev[0][i] over block 0 and r_i ev[1][i] over block 1: a
    bilinear map of (L(r), w_s), tested on a basis of L(R) times the basis
    of W.  [e_s, r] = ev[0][s] * G(r)_n for s in block 0 and ev[1][s] *'
    G(r)_m for s in block 1, where G(r) sums r_i w_i: tested on a basis
    of the span of those ev[t][s] times one of the projection of G(R).
    Everything runs on int twins: the primitive relation rows and the
    evaluations times den (see zevaluations), which scale every m part
    by den[0] and every n part by den[1], so every test vector by the
    positive den[0] * den[1]; membership does not change.  With sides 1
    (see _build_presentation) the rows for s in block 1 mirror those for s
    in block 0, since both evaluation spans are [P, P] and G(r)_m = G(r)_n:
    a row and its mirror differ by a glue row, in R, so block 0 alone is
    tested."""
    dm, dn = pair.m.dim, pair.n.dim
    half = dm * dn
    ev, none = pair.zevaluations[1], ((),) * half
    # the m and n parts of L(r) and G(r): the images of r under the
    # columns ev[0] on block 0 and ev[1] on block 1, and under ev
    lcols = (ev[0][:half] + none, none + ev[1][half:])
    ls = [(_row(_image(r, lcols[0])), _row(_image(r, lcols[1]))) for r in qmap.relations.zrows]
    gs = [(_row(_image(r, ev[0])), _row(_image(r, ev[1]))) for r in qmap.relations.zrows]
    tests = _cross(dm, dn, _pair_basis(dm, dn, ls), pair.evaluation_basis)
    # [e_s, r] for s in block t: u of the span of ev[t][s] as part t of a pair,
    # v of part 1 - t of G(R), spanned once and only against a nonzero span
    for t, du, dv in ((0, dm, dn), (1, dn, dm))[:sides]:
        us = Subspace.from_integer_rows(du, ev[t][t * half:][:half]).zrows
        if us:
            vs = Subspace.from_integer_rows(dv, [g[1 - t] for g in gs]).zrows
            tests += _cross(dm, dn, [((u, ()), ((), u))[t] for u in us],
                            [((v, ()), ((), v))[1 - t] for v in vs])
    return all(qmap.kills(r) for r in tests)


def _scan(pair: MutualActionPair, qmap: QuotientMap, name: str) -> None:
    """The per-symbol sweep: raise the AssertionError that names the first
    relation row r of qmap and symbol s, in that order, such that [r, e_s]
    or then [e_s, r] escapes the relation subspace; return if none does.
    It reads the int table and the canonical int rows of the relations."""
    st, amb = _representatives(pair), 2 * pair.m.dim * pair.n.dim
    # [r, e_s] has the sparse columns [e_l, e_s], [e_s, r] those of [e_s, e_l]
    right, left = _rows(transposed(st), amb), _rows(st, amb)
    for r in qmap.relations.zrows:
        for s in range(amb):
            if not _preserves(qmap, r, right[s]):
                raise AssertionError(
                    f"bracket of {name} not well-defined: relation * symbol "
                    f"{s} escapes the relation subspace")
            if not _preserves(qmap, r, left[s]):
                raise AssertionError(
                    f"bracket of {name} not well-defined: symbol {s} * "
                    f"relation escapes the relation subspace")


def _preserves(qmap: QuotientMap, a, columns) -> bool:
    """Whether the linear map with the given sparse columns sends the
    sparse vector a into the relation subspace of qmap (a pure int test
    on int vectors and columns, whatever their positive scales)."""
    return qmap.kills(_image(a, columns).items())


def _descend(pres: QuotientPresentation, cols, target: "QuotientMap | None"):
    """The map on the resolved quotient of pres induced by an ambient map
    whose sparse columns have the integer twin cols = (den, columns),
    into the quotient of target, or into a plain vector space when target
    is None: the integer twin of the images of the free symbols, in
    target's coordinates.  None when the map does not send every relation
    row of pres into the relations of target (to zero when None)."""
    den, cols = cols
    qm = pres.qmap
    if target is None:
        if any(any(_image(r, cols).values()) for r in qm.relations.zrows):
            return None
        return den, tuple(cols[f] for f in qm.free)
    if not all(_preserves(target, r, cols) for r in qm.relations.zrows):
        return None
    return (target.zimages[0] * den,
            tuple(_row(target.integer_image(cols[f])) for f in qm.free))


def _glue(eta: CrossedModule, delta: CrossedModule) -> list:
    """The glue generators in the tensor ambient of eta.top and delta.top,
    as sorted int rows (zero rows kept): u * v' - v *' u' over pairs (u, v)
    of a basis of the pullback of the two structure maps over the shared
    base (they are bilinear in the pairs, so that spans the glue).  When
    eta.delta is the identity, as for the (q, q, id) of every square and
    one-leg span, the pullback is {(delta b, b)}: its basis (den delta e_j,
    den e_j), den of delta's int columns, is read off them, not eliminated."""
    m, n = eta.top, delta.top
    (de, ce), (dd, cd) = eta.delta.zcols, delta.delta.zcols
    if eta.delta == RatMatrix.identity(eta.base.dim):
        pairs = [(v, ((j, dd),)) for j, v in enumerate(cd)]
    else:  # the kernel of [eta.delta | -delta.delta], its int columns at one scale
        pullback = kernel(RatMatrix.from_sparse(eta.base.dim, (de * dd, tuple(
            [_scaled(v, dd) for v in ce] + [_scaled(v, -de) for v in cd]))))
        pairs = [_pair_parts(m.dim, w) for w in pullback.zrows]
    return _cross(m.dim, n.dim, pairs, pairs, -1)


def exterior_presentation(eta: CrossedModule, delta: CrossedModule,
                          name=None) -> QuotientPresentation:
    """Tensor product of the two tops divided by the glue.  For eta and delta
    equal by structure the glue identifies each symbol with its mirror, so
    side 1's action rows add nothing; where the top acts on itself by its
    bracket (Peiffer, for eta valid), rule 3 at (x, x2, y) is R1(x; x2, y) +
    R1(x; y, x2) and rule 2 is R1(x; y, x2) modulo the glue: rule 1 alone."""
    pair = MutualActionPair.from_shared_base(eta, delta)
    same = ((eta.top, eta.delta, eta.action) == (delta.top, delta.delta, delta.action)
            and pair.m_on_n == pair.m.adjoint)
    return _build_presentation(pair, _glue(eta, delta),
                               name or f"{eta.top.name}(^){delta.top.name}", 1 if same else 2)


def one_leg_span(pres: QuotientPresentation, m_sub: Subspace,
                 n_sub: Subspace) -> Subspace:
    """Span, inside the resolved quotient, of the classes of all symbols
    with the m-leg in m_sub or the n-leg in n_sub."""
    dm, dn, qm = pres.pair.m.dim, pres.pair.n.dim, pres.qmap
    # the canonical rows, each at its own positive scale: the same spans
    ms, ns = [(u, ()) for u in m_sub.zrows], [((), v) for v in n_sub.zrows]
    ems, ens = [(((i, 1),), ()) for i in range(dm)], [((), ((j, 1),)) for j in range(dn)]
    symbols = (_cross(dm, dn, ms, ens) + _cross(dm, dn, ens, ms)
               + _cross(dm, dn, ems, ns) + _cross(dm, dn, ns, ems))
    return Subspace.from_integer_rows(qm.dim, [_row(qm.integer_image(r)) for r in symbols])


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

    @cached_property
    def multiplier(self) -> "tuple[CrossedModule, XModHom]":
        """The evaluations' kernels as an abelian crossed module, with its
        inclusion.  When qq is qn and the induced crossed module is an
        adjoint identity, kb is kt, and the base bracket and both actions
        read [k, k'] on it: the base and action laws are the top's product
        [K, K], evaluated once."""
        name, kt, kb = self.phi.target.name, kernel(self.lambda_n.matrix), kernel(self.mu_q.matrix)
        kts, kbs, act = kt.zbasis, kb.zbasis, self.action
        one = self.qq is self.qn and is_adjoint_identity(self.induced_xmod)
        if _pairwise(self.qn.resolved.zst, kts, kts):
            raise AssertionError("multiplier top is not abelian")
        if not one and _pairwise(self.qq.resolved.zst, kbs, kbs):
            raise AssertionError("multiplier base is not abelian")
        dcols = _restriction(kb, _images(self.id_wedge_delta.matrix.zcols, kts))
        if dcols is None:
            raise AssertionError("connecting map does not restrict to the multiplier")
        if not one and (_pairwise((act.den, act.sl), kbs, kts)
                        or _pairwise((act.den, act.sr), kts, kbs)):
            raise AssertionError("multiplier action is not trivial")
        top = LeibnizAlgebra.abelian(f"M({name}).top", kt.dim,
                                     tuple(f"a{i+1}" for i in range(kt.dim)))
        base = LeibnizAlgebra.abelian(f"M({name}).base", kb.dim,
                                      tuple(f"b{i+1}" for i in range(kb.dim)))
        mult = CrossedModule(f"M({name})", top, base, RatMatrix.from_sparse(kb.dim, dcols),
                             LeibnizAction.trivial(base, top))
        incl = XModHom(mult, self.induced_xmod, RatMatrix.from_sparse(kt.ambient_dim, kts),
                       RatMatrix.from_sparse(kb.ambient_dim, kbs))
        irep = check_xmod_hom(incl)
        if not irep.valid:
            raise AssertionError(
                f"multiplier inclusion is not a crossed module map:\n{irep.summary()}")
        return mult, incl


def _base_on_top(xm: CrossedModule, qn: QuotientPresentation, lam) -> LeibnizAction:
    """The action of xm.base on the top square qn.  Modulo the action rows,
    ^p t = p * lambda(t) and t^p = lambda(t) *' p for every symbol t, so both
    are lambda(t) (the twin lam on the free symbols) through the images of
    the symbols p * e_y, at p dn + y, and e_y *' p, at dq dn + y dq + p."""
    (dz, zim), (d, lcols), dq, dn = qn.qmap.zimages, lam, xm.base.dim, xm.top.dim
    left = [zim[p * dn:(p + 1) * dn] for p in range(dq)]
    right = [zim[dq * dn + p::dq] for p in range(dq)]
    lams = [(t, v) for t, v in enumerate(lcols) if v]
    return LeibnizAction.from_sparse(xm.base, qn.resolved, dz * d, tuple(
        ((p, t), r) for p, a in enumerate(left) for t, v in lams if (r := _row(_image(v, a)))),
        tuple(((t, p), r) for t, v in lams for p, b in enumerate(right)
              if (r := _row(_image(v, b)))))


def exterior_square_data(xm: CrossedModule) -> ExteriorSquareData:
    """Exterior squares of a crossed module with all induced structure."""
    return xm.squares


def _squares(xm: CrossedModule) -> ExteriorSquareData:
    """The body of CrossedModule.squares."""
    _require_valid(xm)
    q, n = xm.base, xm.top
    dq, dn = q.dim, n.dim
    qid = xm if is_adjoint_identity(xm) and n == q else CrossedModule.adjoint_identity(q)
    qn = exterior_presentation(qid, xm, name=f"{q.name}(^){n.name}")
    qq = qn if xm is qid else exterior_presentation(qid, qid, name=f"{q.name}(^){q.name}")

    # evaluation maps on ambient symbols: q * n -> ^q n, n * q -> n^q,
    # and q * q' -> [q, q'] on both blocks; both evaluate into the second
    # factor through the base action, which is side 1's first factor.  On
    # the quotient, column j is the evaluation of the free symbol free[j];
    # lam and mu are the integer twins of those columns
    (_, d), ev = qn.pair.zevaluations
    lam = mu = _descend(qn, (d, ev[1]), None)
    if lam is None:
        raise AssertionError("top evaluation map does not kill the relations")
    if qq is not qn:
        (_, d), ev = qq.pair.zevaluations
        mu = _descend(qq, (d, ev[1]), None)
        if mu is None:
            raise AssertionError("base evaluation map does not kill the relations")
    lambda_n = AlgebraHom(qn.resolved, n, RatMatrix.from_sparse(dn, lam))
    mu_q = lambda_n if qq is qn else AlgebraHom(qq.resolved, q, RatMatrix.from_sparse(dq, mu))

    # connecting map on symbols: q_a * n_b -> q_a * dn_b, n_b * q_a -> dn_b * q_a
    idd = _descend(qn, _substitution(qn.pair, qq.pair, RatMatrix.identity(dq), xm.delta),
                   qq.qmap)
    if idd is None:
        raise AssertionError("connecting map does not preserve the relations")
    id_wedge_delta = AlgebraHom(qn.resolved, qq.resolved, RatMatrix.from_sparse(qq.qmap.dim, idd))

    # the base action on the top square commutes with lambda, asserted one row
    # of p at a time, {t: lambda(^p t)} against {t: ^p lambda(t)}, and alike
    base_on_top, act, lcols = _base_on_top(xm, qn, lam), xm.action, lam[1]
    lams = {t: v for t, v in enumerate(lcols) if v}
    rows = [_rows(e, dq) for e in (base_on_top.sl, transposed(base_on_top.sr),
                                   act.sl, transposed(act.sr))]

    def moved(vs, cols, c):  # {t: c times the image of vs[t]}, the nonzero ones
        return {t: _scaled(r, c) for t, v in vs.items() if (r := _row(_image(v, cols)))}
    for p, name in enumerate(q.basis_names):
        bl, br, al, ar = (r[p] for r in rows)
        if moved(bl, lcols, act.den) != moved(lams, al, base_on_top.den):
            raise AssertionError(f"lambda(^p t) != ^p lambda(t) on {qn.name} at p = {name}")
        if moved(br, lcols, act.den) != moved(lams, ar, base_on_top.den):
            raise AssertionError(f"lambda(t^p) != lambda(t)^p on {qn.name} at p = {name}")
    action = _pulled_back(base_on_top, qq.resolved, mu)

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
    esd = ExteriorSquareData(qn, qq, id_wedge_delta, action, lambda_n, mu_q, induced, phi)
    z, kt, kb = induced.center, kernel(lambda_n.matrix), kernel(mu_q.matrix)
    if not z.top_sub.contains_subspace(kt):
        raise AssertionError("kernel of the top evaluation is not central")
    if not z.base_sub.contains_subspace(kb):
        raise AssertionError("kernel of the base evaluation is not central")
    return esd


def schur_multiplier(xm: CrossedModule) -> "tuple[CrossedModule, XModHom]":
    """The multiplier of xm, with its inclusion into the squares."""
    return exterior_square_data(xm).multiplier


def _substitution(src: MutualActionPair, tgt: MutualActionPair,
                  fm: RatMatrix, fn: RatMatrix) -> tuple:
    """Sparse columns of componentwise substitution from the ambient
    symbols of src to those of tgt: every m-leg goes through fm and every
    n-leg through fn.  Returns (den, columns): the columns times den, the
    product of the denominators of the twins of fm and fn, as int vectors."""
    (dm, cm), (dn, cn) = fm.zcols, fn.zcols
    ms, ns = [(c, ()) for c in cm], [((), c) for c in cn]
    return dm * dn, _cross(tgt.m.dim, tgt.n.dim, ms, ns) + _cross(tgt.m.dim, tgt.n.dim, ns, ms)


def _induced_presentation_hom(src: QuotientPresentation,
                              tgt: QuotientPresentation,
                              fm: RatMatrix, fn: RatMatrix) -> AlgebraHom:
    """Quotient-level map induced by componentwise symbol substitution."""
    m = _descend(src, _substitution(src.pair, tgt.pair, fm, fn), tgt.qmap)
    if m is None:
        raise AssertionError(
            f"induced map {src.name} -> {tgt.name} does not preserve relations")
    hom = AlgebraHom(src.resolved, tgt.resolved, RatMatrix.from_sparse(tgt.qmap.dim, m))
    hrep = check_hom(hom)
    if not hrep.valid:
        raise AssertionError(
            f"induced map {src.name} -> {tgt.name} is not a homomorphism:\n"
            f"{hrep.summary()}")
    return hom


def induced_exterior_hom(f: XModHom) -> "tuple[AlgebraHom, AlgebraHom]":
    """Maps induced on the exterior squares by a surjective crossed module
    map, with surjectivity and the one-leg description of the kernels
    asserted off each map's kernel, taken once per matrix."""
    return f.square_maps


def _square_maps(f: XModHom) -> "tuple[AlgebraHom, AlgebraHom]":
    """The body of XModHom.square_maps."""
    if not f.is_surjective():
        raise ValueError("induced exterior maps need a surjective homomorphism")
    frep = check_xmod_hom(f)
    if not frep.valid:
        raise ValueError(f"invalid crossed module map:\n{frep.summary()}")
    src = exterior_square_data(f.source)
    tgt = exterior_square_data(f.target)
    top_hom = _induced_presentation_hom(src.qn, tgt.qn, f.base_map, f.top_map)
    base_hom = _induced_presentation_hom(src.qq, tgt.qq, f.base_map, f.base_map)
    kt, kb = kernel(top_hom.matrix), kernel(base_hom.matrix)
    if src.qn.resolved.dim - kt.dim != tgt.qn.resolved.dim:
        raise AssertionError("induced top map is not surjective")
    if src.qq.resolved.dim - kb.dim != tgt.qq.resolved.dim:
        raise AssertionError("induced base map is not surjective")
    kp = f.kernel_pair()
    if kt != one_leg_span(src.qn, kp.base_sub, kp.top_sub):
        raise AssertionError(
            "kernel of the induced top map differs from the one-leg span")
    if kb != one_leg_span(src.qq, kp.base_sub, kp.base_sub):
        raise AssertionError(
            "kernel of the induced base map differs from the one-leg span")
    return top_hom, base_hom


def multiplier_functorial_map(f: XModHom) -> XModHom:
    """Restriction of the induced exterior maps to the multipliers."""
    top_hom, base_hom = induced_exterior_hom(f)
    (m_src, incl), tgt = schur_multiplier(f.source), exterior_square_data(f.target)
    (m_tgt, _), kt, kb = tgt.multiplier, kernel(tgt.lambda_n.matrix), kernel(tgt.mu_q.matrix)
    tcols = _restriction(kt, _images(top_hom.matrix.zcols, incl.top_map.zcols))
    if tcols is None:
        raise AssertionError("induced top map does not preserve the multiplier")
    bcols = _restriction(kb, _images(base_hom.matrix.zcols, incl.base_map.zcols))
    if bcols is None:
        raise AssertionError("induced base map does not preserve the multiplier")
    out = XModHom(m_src, m_tgt, RatMatrix.from_sparse(m_tgt.top.dim, tcols),
                  RatMatrix.from_sparse(m_tgt.base.dim, bcols))
    orep = check_xmod_hom(out)
    if not orep.valid:
        raise AssertionError(
            f"multiplier map is not a crossed module map:\n{orep.summary()}")
    return out
