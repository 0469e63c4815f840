"""Finite-dimensional Leibniz algebras over the rationals.

A Leibniz algebra is a vector space with a bilinear bracket satisfying

    [x, [y, z]] = [[x, y], z] - [[x, z], y],

a Lie algebra when additionally [x, x] = 0.  Algebras are presented by
structure constants c[i][j] = coordinates of [e_i, e_j]; a Leibniz
action of one algebra on another is a pair of trilinear tables (left
^m n and right n^m) subject to six compatibility axioms.  A table is
stored only as the integer twin of its sparse view (see ``ratlin``): an
algebra holds ``zst``, an action one ``den`` with the int views ``sl``
and ``sr``, a matrix ``RatMatrix.zcols``, so equality and hashing
compare ints.  ``from_sparse`` is the constructor and makes the
denominator it is given canonical; the positional constructors convert
dense tables once.  The dense ``c``, ``left``, ``right`` and
``RatMatrix.entries`` are views for the public readers; everything
below, and the fixture loader and writer, reads the twins and their
transposes (``zst_t``, ``zsl_t``, ``zsr_t``).  Validity is always a
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
each basis vector of a subspace against every basis element, as int
vectors, from one join.  A round of an ideal's closure is two of them;
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


def _through(cols, rows_t, n: int, m: int) -> tuple:
    """The integer twin of the sparse table out[i][k] = the sum over
    (l, x) in cols[i] of x * T[l][k], for i < n and k < m, where
    rows_t[k][l] = T[l][k], from the twins cols and rows_t, each entry
    sorted by index over its nonzero values: the rows of a law term whose
    outer element is itself a combination, or a table pulled back."""
    scale, accs = join([("ik", 1, cols, "i", rows_t, "k")])
    rows, empty = {}, ((),) * m
    for (i, k), acc in accs.items():
        rows.setdefault(i, [()] * m)[k] = _row(acc)
    return scale, tuple(tuple(rows[i]) if i in rows else empty for i in range(n))


def _products(us, table_t) -> list:
    """The nonzero values f(u, e_j) of the bilinear map f with f(e_i, e_j)
    = table[i][j], over the sparse vectors u of us and every basis element
    e_j, as sparse int vectors at one positive scale, for the integer
    twins us and table_t (of the transposed view table_t[j][i] =
    table[i][j]), from one join; the table itself in place of table_t
    gives the f(e_j, u).  The one product behind ideal and crossed-ideal
    closures, spans of brackets and actions and the multiplier's laws."""
    return [r for r in map(_row, join([("ik", 1, us, "i", table_t, "k")])[1].values())
            if r]


def _pairwise(table_t, us, vs) -> list:
    """The nonzero f(u, v) of the bilinear map of _products over the pairs
    (u, v) of the sparse vectors of the twins us and vs: each u goes
    through table_t once into the rows f(u, e_j), and the products of vs
    against those rows are the f(u, v)."""
    return _products(vs, _through(us, table_t, len(us[1]), len(table_t[1])))


def _densified(twin, d: int) -> tuple:
    """The dense table of length-d vectors whose sparse view has the
    integer twin (den, view), every empty entry one shared zero vector:
    the body of the dense views."""
    den, view = twin
    z = dense((), d)
    return tuple(tuple(dense(rational(v, den), d) if v else z for v in row)
                 for row in view)


@dataclass(frozen=True, init=False)
class LeibnizAlgebra:
    """Structure constants [e_i, e_j] = sum_k c[i][j][k] e_k, held as the
    integer twin zst = (den, view) of their sparse view: view[i][j] =
    ((k, den * c[i][j][k]), ...) sorted by k over the nonzero entries, den
    the lcm of their denominators.  The dense table c is a view."""

    name: str
    dim: int
    basis_names: tuple
    zst: tuple

    def __init__(self, name: str, dim: int, basis_names: Sequence[str], c):
        """The algebra with the dense table c, c[i][j] the coordinate
        vector of [e_i, e_j], converted once."""
        if len(basis_names) != dim or any(len(v) != dim for row in c for v in row):
            raise ValueError("structure table shape mismatch")
        _assign(self, **vars(LeibnizAlgebra.from_sparse(
            name, basis_names, integer_view(sparse_table(c)))))

    @classmethod
    def from_sparse(cls, name: str, basis_names: Sequence[str], zst) -> "LeibnizAlgebra":
        """The algebra whose sparse view has the integer twin zst = (den,
        view), view[i][j] = ((k, den * t), ...) sorted by k over the
        nonzero t, for any positive int den."""
        a, d = cls.__new__(cls), len(basis_names)
        if len(zst[1]) != d or any(len(row) != d for row in zst[1]):
            raise ValueError("structure table shape mismatch")
        _assign(a, name=name, dim=d, basis_names=tuple(basis_names), zst=canonical(zst, 2))
        return a

    @classmethod
    def abelian(cls, name: str, dim: int, basis_names=None) -> "LeibnizAlgebra":
        names = tuple(basis_names) if basis_names else tuple(f"e{i+1}" for i in range(dim))
        return cls.from_sparse(name, names, (1, (((),) * dim,) * dim))

    @cached_property
    def c(self) -> tuple:
        """The dense table: c[i][j] is the coordinate vector of [e_i, e_j]."""
        return _densified(self.zst, self.dim)

    @cached_property
    def zst_t(self) -> "tuple[int, tuple]":
        """The transposed twin: zst_t[1][j][i] = zst[1][i][j], same den."""
        den, view = self.zst
        return den, transposed(view, self.dim)

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
    st, st_t = a.zst, a.zst_t
    # residual of [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] + [[e_i,e_k],e_j]
    bad = _violations({"i": a.basis_names, "j": a.basis_names, "k": a.basis_names}, [
        ("", 0, 0, a.dim, "ijk", "ijk",
         ((1, st, "jk", st, "i"), (-1, st, "ij", st_t, "k"), (1, st, "ik", st_t, "j")))])
    return _report(f"leibniz identity on {a.name}", bad)


def is_lie(a: LeibnizAlgebra) -> bool:
    """True iff the bracket is alternating ([x,x]=0; char 0 polarization):
    [e_i, e_j] = -[e_j, e_i] for every i <= j, read off the twin."""
    st = a.zst[1]
    return all(st[i][j] == tuple((k, -t) for k, t in st[j][i])
               for i in range(a.dim) for j in range(i, a.dim))


@dataclass(frozen=True, init=False)
class LeibnizAction:
    """Mutual-action tables left[i][j] = ^{m_i} n_j and right[j][i] =
    n_j ^ {m_i}, held as the int views sl and sr of their sparse views at
    one denominator den, the lcm of those of both tables: sl[i][j] = ((k,
    den * t), ...) sorted by k over the nonzero coordinates t of ^{m_i}
    n_j, and sr likewise.  The dense left and right are views."""

    actor: LeibnizAlgebra
    acted: LeibnizAlgebra
    den: int
    sl: tuple  # sl[i][j]: i over actor, j over acted
    sr: tuple  # sr[j][i]: j over acted, i over actor

    def __init__(self, actor: LeibnizAlgebra, acted: LeibnizAlgebra, left, right):
        """The action with the dense tables left and right, converted once."""
        den, (sl, sr) = integer_view((sparse_table(left), sparse_table(right)), 3)
        _assign(self, **vars(LeibnizAction.from_sparse(actor, acted, den, sl, sr)))

    @classmethod
    def from_sparse(cls, actor: LeibnizAlgebra, acted: LeibnizAlgebra,
                    den: int, sl, sr) -> "LeibnizAction":
        """The action whose sparse views are sl / den and sr / den, for int
        views sl and sr with entries sorted by index over the nonzero
        values and any positive int den."""
        act, dm, dn = cls.__new__(cls), actor.dim, acted.dim
        if len(sl) != dm or any(len(r) != dn for r in sl):
            raise ValueError("left action table shape mismatch")
        if len(sr) != dn or any(len(r) != dm for r in sr):
            raise ValueError("right action table shape mismatch")
        den, (sl, sr) = canonical((den, (sl, sr)), 3)
        _assign(act, actor=actor, acted=acted, den=den, sl=sl, sr=sr)
        return act

    @classmethod
    def trivial(cls, actor: LeibnizAlgebra, acted: LeibnizAlgebra) -> "LeibnizAction":
        return cls.from_sparse(actor, acted, 1, (((),) * acted.dim,) * actor.dim,
                               (((),) * actor.dim,) * acted.dim)

    @classmethod
    def adjoint(cls, a: LeibnizAlgebra) -> "LeibnizAction":
        """Action of an algebra on itself by brackets: ^x y=[x,y], y^x=[y,x];
        both tables are the algebra's own.  The one cached on a."""
        return a.adjoint

    @cached_property
    def left(self) -> tuple:
        """The dense table: left[i][j] is the vector ^{m_i} n_j."""
        return _densified((self.den, self.sl), self.acted.dim)

    @cached_property
    def right(self) -> tuple:
        """The dense table: right[j][i] is the vector n_j ^ {m_i}."""
        return _densified((self.den, self.sr), self.acted.dim)

    @cached_property
    def zsl_t(self) -> "tuple[int, tuple]":
        """The twin of sl transposed: zsl_t[1][j][i] = sl[i][j]."""
        return self.den, transposed(self.sl, self.acted.dim)

    @cached_property
    def zsr_t(self) -> "tuple[int, tuple]":
        """The twin of sr transposed: zsr_t[1][i][j] = sr[j][i]."""
        return self.den, transposed(self.sr, self.actor.dim)

    @cached_property
    def validity(self) -> ValidityReport:
        """The report of check_action, evaluated once per object."""
        return _action_report(self)


def _pulled_back(act: LeibnizAction, actor: LeibnizAlgebra, cols) -> LeibnizAction:
    """The action of actor on act.acted through a map f of actor into
    act.actor, ^x n = ^{f x} n and n^x = n^{f x}, for the integer twin
    cols of the sparse columns of f: both tables are read through the
    twins of act, at one scale, and kept as the twins of the result."""
    d = act.acted.dim
    den, sl = _through(cols, act.zsl_t, actor.dim, d)
    _, sr = _through(cols, (act.den, act.sr), actor.dim, d)
    return LeibnizAction.from_sparse(actor, act.acted, den, sl, transposed(sr, d))


def check_action(act: LeibnizAction) -> ValidityReport:
    """All six action axioms evaluated on basis triples, after the
    Leibniz identity of the actor and of the acted algebra, each of the
    cached reports once (labelled "leibniz <name> (...)").

    With L[i][j] = ^{m_i} n_j and R[j][i] = n_j ^ {m_i}, cm/cn the actor
    and acted structure constants, the axioms read:

      1. ^{[m,m']}n   = ^m(^{m'}n) + (^m n)^{m'}
      2. ^m [n,n']    = [^m n, n'] - [^m n', n]
      3. n^{[m,m']}   = (n^m)^{m'} - (n^{m'})^m
      4. [n,n']^m     = [n^m, n'] + [n, n'^m]
      5. ^m(^{m'}n)   = -^m(n^{m'})
      6. [n, ^m n']   = -[n, n'^m]

    Each residual is a sum of terms (c, x, xs, y, ys), c times the entries
    of the sparse table x pushed through the rows of y (see ratlin.join):
    with y = L, x is acted on from the left by the actor element y is
    indexed by, with y = Lt, the actor element x acts on the acted basis
    element y is indexed by, and so on for R and the brackets.  The
    letters a, b index the actor and x, y the acted algebra.
    """
    return act.validity


def _action_report(act: LeibnizAction) -> ValidityReport:
    m, n = act.actor, act.acted
    L, R, Lt, Rt = (act.den, act.sl), (act.den, act.sr), act.zsl_t, act.zsr_t
    cm, cn, cn_t = m.zst, n.zst, n.zst_t
    d = n.dim
    # the axioms presume Leibniz algebras: their reports come first
    bad = [(f"leibniz {a.name} {label}", r) for a in ((m,) if n is m else (m, n))
           for label, r in check_leibniz(a).violations]
    # the report runs over (i, i2, j) for axioms 1 and 5, (j, i, i2) for
    # axiom 3 and (i, j, j2) for axioms 2, 4 and 6, in that order
    bad += _violations({"a": m.basis_names, "b": m.basis_names,
                        "x": n.basis_names, "y": n.basis_names}, [
        # 1. ^{[m,m']}n - ^m(^{m'}n) - (^m n)^{m'}
        ("axiom1 ", 0, 0, d, "abx", "abx",
         ((1, cm, "ab", Lt, "x"), (-1, L, "bx", L, "a"), (-1, L, "ax", Rt, "b"))),
        # 5. ^m(^{m'}n) + ^m(n^{m'})
        ("axiom5 ", 0, 1, d, "abx", "abx",
         ((1, L, "bx", L, "a"), (1, R, "xb", L, "a"))),
        # 3. n^{[m,m']} - (n^m)^{m'} + (n^{m'})^m
        ("axiom3 ", 1, 0, d, "xab", "xab",
         ((1, cm, "ab", R, "x"), (-1, R, "xa", Rt, "b"), (1, R, "xb", Rt, "a"))),
        # 2. ^m [n,n'] - [^m n, n'] + [^m n', n]
        ("axiom2 ", 2, 0, d, "axy", "axy",
         ((1, cn, "xy", L, "a"), (-1, L, "ax", cn_t, "y"), (1, L, "ay", cn_t, "x"))),
        # 4. [n,n']^m - [n^m, n'] - [n, n'^m]
        ("axiom4 ", 2, 1, d, "axy", "xya",
         ((1, cn, "xy", Rt, "a"), (-1, R, "xa", cn_t, "y"), (-1, R, "ya", cn, "x"))),
        # 6. [n, ^m n'] + [n, n'^m]
        ("axiom6 ", 2, 2, d, "axy", "xay",
         ((1, L, "ay", cn, "x"), (1, R, "ya", cn, "x"))),
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
    fb = _through(cols, b.zst_t, a.dim, b.dim)
    bad = _violations({"i": a.basis_names, "j": a.basis_names}, [
        ("", 0, 0, b.dim, "ij", "ij", ((1, a.zst, "ij", cols, ""), (-1, cols, "j", fb, "i")))])
    return _report(f"homomorphism {a.name} -> {b.name}", bad)


def annihilator(dim: int, views) -> Subspace:
    """The x in QQ^dim with sum_s x_s * view[r][s] = 0 for every sparse
    view of the given ones and every r: the kernel of one sparse row per
    (view, r, coordinate), built from the nonzero entries only.  The
    views are the int views of integer twins: a twin's denominator
    scales all of its rows, which leaves the kernel alone."""
    rows = {}
    for v, view in enumerate(views):
        for r, row in enumerate(view):
            for s, entries in enumerate(row):
                for k, t in entries:
                    rows.setdefault((v, r, k), []).append((s, t))
    return sparse_kernel(dim, rows.values())


def center(a: LeibnizAlgebra) -> Subspace:
    """Two-sided center {x : [x, a] = [a, x] = 0}: x -> [x, e_j] reads
    st_t[j] and x -> [e_j, x] reads st[j]."""
    return annihilator(a.dim, (a.zst_t[1], a.zst[1]))


def ideal_closure(a: LeibnizAlgebra, seed: Subspace) -> Subspace:
    """Least two-sided ideal containing seed, by fixpoint iteration: each
    round spans s, [a, s] and [s, a] at once."""
    if seed.ambient_dim != a.dim:
        raise ValueError("seed/algebra dimension mismatch")
    s = seed
    while (nxt := Subspace.from_integer_rows(a.dim, [
            *s.zbasis[1], *_products(s.zbasis, a.zst), *_products(s.zbasis, a.zst_t)])) != s:
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


def _projected(qm: QuotientMap, view, outer, inner) -> tuple:
    """The int view of the classes under qm of the entries view[i][j] of an
    int view, for i in outer and j in inner: each is den times the class,
    for den the product of the denominators of qm's zimages and of view."""
    return tuple(tuple(_row(qm.integer_image(view[i][j])) for j in inner) for i in outer)


def subalgebra_on(a: LeibnizAlgebra, s: Subspace, name: str) -> "tuple[LeibnizAlgebra, RatMatrix]":
    """Algebra structure induced on a bracket-closed subspace.

    Returns the algebra in the coordinates of s's canonical basis plus
    the inclusion matrix (a.dim x s.dim), whose columns are the twin
    zbasis.  Raises if s is not closed.
    """
    d, us = s.dim, s.zbasis
    # [e_k, u_j] for every basis element e_k, then c[i][j] = [u_i, u_j]
    den, c = _through(us, _through(us, a.zst, d, a.dim), d, d)
    coords = _restriction(s, (den, [v for row in c for v in row]))
    if coords is None:
        raise ValueError("subspace is not bracket-closed")
    den, flat = coords
    names = tuple(f"s{i+1}" for i in range(d))
    sub = LeibnizAlgebra.from_sparse(
        name, names, (den, tuple(flat[i * d:(i + 1) * d] for i in range(d))))
    return sub, RatMatrix.from_sparse(a.dim, us)
