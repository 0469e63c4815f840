"""Finite-dimensional Leibniz algebras over the rationals.

A Leibniz algebra is a vector space with a bilinear bracket satisfying

    [x, [y, z]] = [[x, y], z] - [[x, z], y],

a Lie algebra when additionally [x, x] = 0.  Algebras are presented by
structure constants c[i][j] = coordinates of [e_i, e_j]; a Leibniz
action of one algebra on another is a pair of trilinear tables (left
^m n and right n^m) subject to six compatibility axioms.  A table is
stored only as the integer twin of its entries (see ``ratlin``): an
algebra holds ``zst``, an action one ``den`` with the int entries ``sl``
and ``sr``, a matrix ``RatMatrix.zcols``, so equality and hashing
compare ints; a table's twin holds its nonempty entries only, and no
transposed copy.  ``from_sparse`` is the constructor, makes the
denominator it is given canonical and rejects keys out of range; the
positional constructors check the shape of dense tables and convert them
once.  The dense ``c``, ``left``, ``right`` and ``RatMatrix.entries``
are views for the public readers; everything below, and the fixture
loader and writer, reads the entries of the twins.  Validity is always a
report, not a boolean: downstream debugging needs the violating triple
and its residual.  A law covers every basis pair or triple, but it is
evaluated term by term: each term is joined over the nonzero
entries of its twins (``ratlin.join``) into int residuals, all at one
scale and keyed by the law's report order, so a pair or triple that no
nonzero product reaches costs nothing, and only a nonzero residual is
divided by the scale and becomes a dense tuple of Fractions.  Each
object's report is a cached property (``validity``), evaluated once per
object and kept outside the dataclass fields.  Every product reads the
twins through one idiom (``_products``): the values of a bilinear map on
each basis vector of a subspace against every basis element, in either
slot, as int vectors, from one join.  A round of an ideal's closure is
two of them;
the product of two subspaces (``_pairwise``: spans of brackets and
actions, the multiplier's laws in ``tensor``) is the second one's
against the rows of the first one's.  An action pulled back through a
map into its actor is read through the twins too (``_pulled_back``),
and so are the brackets of a subalgebra.  There is no dense bracket or
action: a product of vectors is one of the products above, on twins.
An action's report starts with the Leibniz reports of its algebras, so
an action over an algebra that is not Leibniz is invalid, and so is a
crossed module built on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .ratlin import (
    QuotientMap,
    RatMatrix,
    Subspace,
    _assign,
    _restriction,
    _row,
    canonical,
    dense,
    integer_view,
    join,
    quotient,
    rational,
    sparse_kernel,
    sparse_table,
    transposed,
)


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of a structural check: list of (label, residual) violations."""

    subject: str
    valid: bool
    violations: tuple

    def summary(self) -> str:
        if self.valid:
            return f"{self.subject}: valid"
        lines = [f"{self.subject}: INVALID ({len(self.violations)} violation(s))"]
        for label, residual in self.violations:
            lines.append(f"  {label}: residual {tuple(str(x) for x in residual)}")
        return "\n".join(lines)


def _report(subject, violations) -> ValidityReport:
    return ValidityReport(subject, not violations, tuple(violations))


def _residual(acc: dict, scale: int, dim: int) -> tuple:
    """The dense residual of length dim of a nonzero int accumulator that
    holds scale times it: the one place a residual is divided."""
    return dense(rational(acc.items(), scale), dim)


def _violations(names: dict, laws) -> list:
    """The violations of a family of laws, in report order.

    A law is (label, block, position, dim, loop, shown, terms): its
    residual at the basis indices named by the letters of loop is the
    join of terms (c, x, xs, y, ys) over integer twins (see ratlin.join),
    a vector of length dim.  Violations are ordered by (block, loop
    indices, position) and labelled "label(names)" with the basis names
    of the letters of shown, names[letter] giving the basis names an
    index letter runs over."""
    spec, terms = {}, []
    for label, block, pos, dim, loop, shown, law_terms in laws:
        spec[block, pos] = (label, dim, loop, shown)
        terms += [((block, *loop, pos), *t) for t in law_terms]
    scale, accs = join(terms)
    bad = []
    for key, acc in sorted(accs.items()):
        if any(acc.values()):
            label, dim, loop, shown = spec[key[0], key[-1]]
            at = dict(zip(loop, key[1:-1]))
            bad.append((f"{label}({','.join(names[l][at[l]] for l in shown)})",
                        _residual(acc, scale, dim)))
    return bad


def _through(cols, table, slot: str) -> tuple:
    """The integer twin of the entries out[i, r] = the sum over (l, x) in
    cols[i] of x * table[r, l] (slot "r.") or of x * table[l, r] (slot
    ".r"), from the twins of the sparse vectors cols and of the entries
    table: the rows of a law term whose outer element is itself a
    combination, or a table pulled back."""
    scale, accs = join([("ir", 1, cols, "i", table, slot)])
    return scale, tuple(sorted((k, r) for k, acc in accs.items() if (r := _row(acc))))


def _products(us, table, slot: str) -> list:
    """The nonzero values f(u, e_r) (slot ".r") or f(e_r, u) (slot "r.")
    of the bilinear map f with f(e_i, e_j) = table[i, j], over the sparse
    vectors u of us and every basis element e_r, as sparse int vectors at
    one positive scale, for the integer twins us and table, from one
    join.  The one product behind ideal and crossed-ideal closures, spans
    of brackets and actions and the multiplier's laws."""
    return [r for r in map(_row, join([("ir", 1, us, "i", table, slot)])[1].values())
            if r]


def _pairwise(table, us, vs) -> list:
    """The nonzero f(u, v) of the bilinear map of _products over the pairs
    (u, v) of the sparse vectors of the twins us and vs: each u goes
    through the table once into the rows f(u, e_r), and the products of
    vs against those rows are the f(u, v)."""
    return _products(vs, _through(us, table, ".r"), "r.")


def _densified(twin, n: int, m: int, d: int) -> tuple:
    """The dense n x m table of length-d vectors whose entries have the
    integer twin (den, entries), every empty slot one shared zero vector:
    the body of the dense views."""
    den, at, z = twin[0], dict(twin[1]), dense((), d)
    return tuple(tuple(dense(rational(at[i, j], den), d) if (i, j) in at else z
                       for j in range(m)) for i in range(n))


@dataclass(frozen=True, init=False)
class LeibnizAlgebra:
    """Structure constants [e_i, e_j] = sum_k c[i][j][k] e_k, held as the
    integer twin zst = (den, entries) of their entries: ((i, j), ((k, den *
    c[i][j][k]), ...)) over the nonzero [e_i, e_j], sorted by (i, j) and
    each by k over the nonzero coordinates, den the lcm of their
    denominators.  The dense table c is a view."""

    name: str
    dim: int
    basis_names: tuple
    zst: tuple

    def __init__(self, name: str, dim: int, basis_names: Sequence[str], c):
        """The algebra with the dense table c, c[i][j] the coordinate
        vector of [e_i, e_j], converted once."""
        if len(basis_names) != dim or len(c) != dim or any(
                len(row) != dim or any(len(v) != dim for v in row) for row in c):
            raise ValueError("structure table shape mismatch")
        _assign(self, **vars(LeibnizAlgebra.from_sparse(
            name, basis_names, integer_view(sparse_table(c)))))

    @classmethod
    def from_sparse(cls, name: str, basis_names: Sequence[str], zst) -> "LeibnizAlgebra":
        """The algebra whose table has the integer twin zst = (den,
        entries), as the class holds it, for any positive int den."""
        a, d = cls.__new__(cls), len(basis_names)
        if not all(0 <= i < d and 0 <= j < d for (i, j), _ in zst[1]):
            raise ValueError("structure table shape mismatch")
        _assign(a, name=name, dim=d, basis_names=tuple(basis_names), zst=canonical(zst, 2))
        return a

    @classmethod
    def abelian(cls, name: str, dim: int, basis_names=None) -> "LeibnizAlgebra":
        names = tuple(basis_names) if basis_names else tuple(f"e{i+1}" for i in range(dim))
        return cls.from_sparse(name, names, (1, ()))

    @cached_property
    def c(self) -> tuple:
        """The dense table: c[i][j] is the coordinate vector of [e_i, e_j]."""
        return _densified(self.zst, self.dim, self.dim, self.dim)

    @cached_property
    def validity(self) -> ValidityReport:
        """The report of check_leibniz, evaluated once per object."""
        return _leibniz_report(self)

    @cached_property
    def adjoint(self) -> "LeibnizAction":
        """The action on itself by brackets (LeibnizAction.adjoint), once."""
        den, st = self.zst
        return LeibnizAction.from_sparse(self, self, den, st, st)


def check_leibniz(a: LeibnizAlgebra) -> ValidityReport:
    """Leibniz identity residuals on all basis triples."""
    return a.validity


def _leibniz_report(a: LeibnizAlgebra) -> ValidityReport:
    st = a.zst
    # residual of [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] + [[e_i,e_k],e_j]
    bad = _violations({"i": a.basis_names, "j": a.basis_names, "k": a.basis_names}, [
        ("", 0, 0, a.dim, "ijk", "ijk",
         ((1, st, "jk", st, "i."), (-1, st, "ij", st, ".k"), (1, st, "ik", st, ".j")))])
    return _report(f"leibniz identity on {a.name}", bad)


def is_lie(a: LeibnizAlgebra) -> bool:
    """True iff the bracket is alternating ([x,x]=0; char 0 polarization):
    [e_i, e_j] = -[e_j, e_i] for every i, j, read off the twin: its
    entries equal those of the negated transpose."""
    st = a.zst[1]
    return st == transposed([(key, tuple((k, -t) for k, t in v)) for key, v in st])


@dataclass(frozen=True, init=False)
class LeibnizAction:
    """Mutual-action tables left[i][j] = ^{m_i} n_j and right[j][i] =
    n_j ^ {m_i}, held as the int entries sl and sr of both tables at one
    denominator den, the lcm of those of both: sl has the entry ((i, j),
    ((k, den * t), ...)) over the nonzero coordinates t of a nonzero ^{m_i}
    n_j, sorted by (i, j) and by k, and sr likewise.  The dense left and
    right are views."""

    actor: LeibnizAlgebra
    acted: LeibnizAlgebra
    den: int
    sl: tuple  # keys (i, j): i over actor, j over acted
    sr: tuple  # keys (j, i): j over acted, i over actor

    def __init__(self, actor: LeibnizAlgebra, acted: LeibnizAlgebra, left, right):
        """The action with the dense tables left and right, converted once."""
        dm, dn = actor.dim, acted.dim
        if len(left) != dm or any(len(r) != dn for r in left):
            raise ValueError("left action table shape mismatch")
        if len(right) != dn or any(len(r) != dm for r in right):
            raise ValueError("right action table shape mismatch")
        den, (sl, sr) = integer_view((sparse_table(left), sparse_table(right)), 3)
        _assign(self, **vars(LeibnizAction.from_sparse(actor, acted, den, sl, sr)))

    @classmethod
    def from_sparse(cls, actor: LeibnizAlgebra, acted: LeibnizAlgebra,
                    den: int, sl, sr) -> "LeibnizAction":
        """The action whose tables are sl / den and sr / den, for int
        entries sl and sr (see the class) and any positive int den."""
        act, dm, dn = cls.__new__(cls), actor.dim, acted.dim
        if not all(0 <= i < dm and 0 <= j < dn for (i, j), _ in sl):
            raise ValueError("left action table shape mismatch")
        if not all(0 <= j < dn and 0 <= i < dm for (j, i), _ in sr):
            raise ValueError("right action table shape mismatch")
        den, (sl, sr) = canonical((den, (sl, sr)), 3)
        _assign(act, actor=actor, acted=acted, den=den, sl=sl, sr=sr)
        return act

    @classmethod
    def trivial(cls, actor: LeibnizAlgebra, acted: LeibnizAlgebra) -> "LeibnizAction":
        return cls.from_sparse(actor, acted, 1, (), ())

    @classmethod
    def adjoint(cls, a: LeibnizAlgebra) -> "LeibnizAction":
        """Action of an algebra on itself by brackets: ^x y=[x,y], y^x=[y,x];
        both tables are the algebra's own.  The one cached on a."""
        return a.adjoint

    @cached_property
    def left(self) -> tuple:
        """The dense table: left[i][j] is the vector ^{m_i} n_j."""
        return _densified((self.den, self.sl), self.actor.dim, self.acted.dim, self.acted.dim)

    @cached_property
    def right(self) -> tuple:
        """The dense table: right[j][i] is the vector n_j ^ {m_i}."""
        return _densified((self.den, self.sr), self.acted.dim, self.actor.dim, self.acted.dim)

    @cached_property
    def validity(self) -> ValidityReport:
        """The report of check_action, evaluated once per object."""
        return _action_report(self)


def _pulled_back(act: LeibnizAction, actor: LeibnizAlgebra, cols) -> LeibnizAction:
    """The action of actor on act.acted through a map f of actor into
    act.actor, ^x n = ^{f x} n and n^x = n^{f x}, for the integer twin
    cols of the sparse columns of f: both tables are read through the
    twins of act, at one scale, and kept as the twins of the result."""
    den, sl = _through(cols, (act.den, act.sl), ".r")
    _, sr = _through(cols, (act.den, act.sr), "r.")  # keyed (i, j): n_j^{f x_i}
    return LeibnizAction.from_sparse(actor, act.acted, den, sl, transposed(sr))


def check_action(act: LeibnizAction) -> ValidityReport:
    """All six action axioms evaluated on basis triples, after the
    Leibniz identity of the actor and of the acted algebra, each of the
    cached reports once (labelled "leibniz <name> (...)").

    With L[i][j] = ^{m_i} n_j and R[j][i] = n_j ^ {m_i}, cm/cn the actor
    and acted structure constants, the axioms read:

      1. ^{[m,m']}n   = ^m(^{m'}n) + (^m n)^{m'}  axiom1(a,b,x) = -L(a,b,x)
      2. ^m [n,n']    = [^m n, n'] - [^m n', n]   axiom2(a,x,y) = L(a,x,y)
      3. n^{[m,m']}   = (n^m)^{m'} - (n^{m'})^m   axiom3(x,a,b) = L(x,a,b)
      4. [n,n']^m     = [n^m, n'] + [n, n'^m]     axiom4(x,y,a) = -L(x,y,a)
      5. ^m(^{m'}n)   = -^m(n^{m'})               axiom5(a,b,x) = L(a,b,x) + L(a,x,b)
      6. [n, ^m n']   = -[n, n'^m]                axiom6(x,a,y) = L(x,a,y) + L(x,y,a)

    Each residual is a sum of terms (c, x, xs, y, ys), c times the entries
    of the table x pushed through the table y at the slot spec ys (see
    ratlin.join): with L at "a.", x is acted on from the left by the
    actor element a, with L at ".x", the actor element x acts on the
    acted basis element x, and so on for R and the brackets.  The
    letters a, b index the actor and x, y the acted algebra.  Right: a
    bracket action's residual (is_bracket_action), L(i,j,k) = [i,[j,k]] -
    [[i,j],k] + [[i,k],j]; a valid Leibniz report is then the action's.
    """
    return act.validity


def is_bracket_action(act: LeibnizAction) -> bool:
    """act is act.actor.adjoint up to names: one dimension, one table."""
    m, n = act.actor, act.acted
    return (n.dim, n.zst, (act.den, act.sl), act.sr) == (m.dim, m.zst, m.zst, m.zst[1])


def _action_report(act: LeibnizAction) -> ValidityReport:
    m, n = act.actor, act.acted
    L, R, cm, cn = (act.den, act.sl), (act.den, act.sr), m.zst, n.zst
    d = n.dim
    # the axioms presume Leibniz algebras: their reports come first
    bad = [(f"leibniz {a.name} {label}", r) for a in ((m,) if n is m else (m, n))
           for label, r in check_leibniz(a).violations]
    if not bad and is_bracket_action(act):  # each axiom is Leibniz residuals
        return _report(f"action of {m.name} on {n.name}", bad)
    # the report runs over (i, i2, j) for axioms 1 and 5, (j, i, i2) for
    # axiom 3 and (i, j, j2) for axioms 2, 4 and 6, in that order
    bad += _violations({"a": m.basis_names, "b": m.basis_names,
                        "x": n.basis_names, "y": n.basis_names}, [
        # 1. ^{[m,m']}n - ^m(^{m'}n) - (^m n)^{m'}
        ("axiom1 ", 0, 0, d, "abx", "abx",
         ((1, cm, "ab", L, ".x"), (-1, L, "bx", L, "a."), (-1, L, "ax", R, ".b"))),
        # 5. ^m(^{m'}n) + ^m(n^{m'})
        ("axiom5 ", 0, 1, d, "abx", "abx",
         ((1, L, "bx", L, "a."), (1, R, "xb", L, "a."))),
        # 3. n^{[m,m']} - (n^m)^{m'} + (n^{m'})^m
        ("axiom3 ", 1, 0, d, "xab", "xab",
         ((1, cm, "ab", R, "x."), (-1, R, "xa", R, ".b"), (1, R, "xb", R, ".a"))),
        # 2. ^m [n,n'] - [^m n, n'] + [^m n', n]
        ("axiom2 ", 2, 0, d, "axy", "axy",
         ((1, cn, "xy", L, "a."), (-1, L, "ax", cn, ".y"), (1, L, "ay", cn, ".x"))),
        # 4. [n,n']^m - [n^m, n'] - [n, n'^m]
        ("axiom4 ", 2, 1, d, "axy", "xya",
         ((1, cn, "xy", R, ".a"), (-1, R, "xa", cn, ".y"), (-1, R, "ya", cn, "x."))),
        # 6. [n, ^m n'] + [n, n'^m]
        ("axiom6 ", 2, 2, d, "axy", "xay",
         ((1, L, "ay", cn, "x."), (1, R, "ya", cn, "x."))),
    ])
    return _report(f"action of {m.name} on {n.name}", bad)


@dataclass(frozen=True)
class AlgebraHom:
    """Linear map between algebras, target.dim x source.dim matrix."""

    source: LeibnizAlgebra
    target: LeibnizAlgebra
    matrix: RatMatrix

    def __post_init__(self):
        if self.matrix.rows != self.target.dim or self.matrix.cols != self.source.dim:
            raise ValueError("homomorphism matrix shape mismatch")

    @classmethod
    def identity(cls, a: LeibnizAlgebra) -> "AlgebraHom":
        return cls(a, a, RatMatrix.identity(a.dim))

    @cached_property
    def validity(self) -> ValidityReport:
        """The report of check_hom, evaluated once per object."""
        return _hom_report(self)


def check_hom(f: AlgebraHom) -> ValidityReport:
    """Residuals f([e_i,e_j]) - [f(e_i), f(e_j)] on all basis pairs."""
    return f.validity


def _hom_report(f: AlgebraHom) -> ValidityReport:
    a, b = f.source, f.target
    cols = f.matrix.zcols
    # fb[i][k] = [f(e_i), e_k], so that [f(e_i), f(e_j)] is f(e_j) through fb[i]
    fb = _through(cols, b.zst, ".r")
    bad = _violations({"i": a.basis_names, "j": a.basis_names}, [
        ("", 0, 0, b.dim, "ij", "ij", ((1, a.zst, "ij", cols, ""), (-1, cols, "j", fb, "i.")))])
    return _report(f"homomorphism {a.name} -> {b.name}", bad)


def annihilator(dim: int, views) -> Subspace:
    """The x in QQ^dim with sum_s x_s * view[r, s] = 0 (slot "r.") or
    sum_s x_s * view[s, r] = 0 (slot ".r") for every (view, slot) of the
    given ones and every r: the kernel of one sparse row per (view, r,
    coordinate), built from the entries.  The views are the int entries
    of integer twins: a twin's denominator scales all of its rows, which
    leaves the kernel alone."""
    rows = {}
    for n, (view, slot) in enumerate(views):
        first = slot[0] == "."
        for (i, j), entries in view:
            r, s = (j, i) if first else (i, j)
            for k, t in entries:
                rows.setdefault((n, r, k), []).append((s, t))
    return sparse_kernel(dim, rows.values())


def center(a: LeibnizAlgebra) -> Subspace:
    """Two-sided center {x : [x, a] = [a, x] = 0}: x -> [x, e_j] contracts
    the first slot of the table and x -> [e_j, x] the second."""
    return annihilator(a.dim, ((a.zst[1], ".r"), (a.zst[1], "r.")))


def ideal_closure(a: LeibnizAlgebra, seed: Subspace) -> Subspace:
    """Least two-sided ideal containing seed, by fixpoint iteration: each
    round spans s, [a, s] and [s, a] at once."""
    if seed.ambient_dim != a.dim:
        raise ValueError("seed/algebra dimension mismatch")
    s = seed
    while (nxt := Subspace.from_integer_rows(a.dim, [
            *s.zbasis[1], *_products(s.zbasis, a.zst, "r."),
            *_products(s.zbasis, a.zst, ".r")])) != s:
        s = nxt
    return s


def _quotient(a: LeibnizAlgebra, ideal: Subspace,
              name: str) -> "tuple[LeibnizAlgebra, QuotientMap]":
    """The quotient algebra by a subspace the caller knows to be an ideal,
    with its quotient map; the Leibniz identity of the result is asserted."""
    qm = quotient(a.dim, ideal)
    den, st = a.zst
    out = LeibnizAlgebra.from_sparse(name, tuple(a.basis_names[f] for f in qm.free), (
        qm.zimages[0] * den, _projected(qm, st, qm.free, qm.free)))
    rep = check_leibniz(out)
    if not rep.valid:
        raise AssertionError(f"quotient of {a.name} lost the Leibniz identity: "
                             f"{rep.summary()}")
    return out, qm


def _projected(qm: QuotientMap, entries, outer, inner) -> tuple:
    """The int entries of the classes under qm of the entries ((i, j), v)
    of an int table with i in outer and j in inner (increasing), keyed by
    the positions of i and j there: each is den times the class, for den
    the product of the denominators of qm's zimages and of the view."""
    at_o, at_i = ({f: k for k, f in enumerate(s)} for s in (outer, inner))
    return tuple(((at_o[i], at_i[j]), r) for (i, j), v in entries
                 if i in at_o and j in at_i and (r := _row(qm.integer_image(v))))


def subalgebra_on(a: LeibnizAlgebra, s: Subspace, name: str) -> "tuple[LeibnizAlgebra, RatMatrix]":
    """Algebra structure induced on a bracket-closed subspace.

    Returns the algebra in the coordinates of s's canonical basis plus
    the inclusion matrix (a.dim x s.dim), whose columns are the twin
    zbasis.  Raises if s is not closed.
    """
    us = s.zbasis
    # [e_r, u_i] for every basis element e_r, then the entries [u_i, u_j]
    den, c = _through(us, _through(us, a.zst, "r."), "r.")
    coords = _restriction(s, (den, [v for _, v in c]))
    if coords is None:
        raise ValueError("subspace is not bracket-closed")
    den, flat = coords
    names = tuple(f"s{i+1}" for i in range(s.dim))
    sub = LeibnizAlgebra.from_sparse(name, names, (den, tuple(zip([k for k, _ in c], flat))))
    return sub, RatMatrix.from_sparse(a.dim, us)
