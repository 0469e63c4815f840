"""Finite-dimensional Leibniz algebras over the rationals.

A Leibniz algebra is a vector space with a bilinear bracket satisfying

    [x, [y, z]] = [[x, y], z] - [[x, z], y],

a Lie algebra when additionally [x, x] = 0.  Algebras are presented by
structure constants c[i][j] = coordinates of [e_i, e_j]; a Leibniz
action of one algebra on another is a pair of trilinear tables (left
^m n and right n^m) subject to six compatibility axioms.  The tables
are the dense fields that define equality, hashing and the fixture
format.  Brackets, actions and the laws below read the integer twin of
the sparse view of every table (see ``ratlin.sparse_table`` and
``ratlin.integer_view``: one positive denominator per algebra, per
action and per matrix, and int entries), and of its transpose: ``zst``,
``zst_t``, ``zsl``, ``zsr``, ``zsl_t``, ``zsr_t`` and
``RatMatrix.zcols``.  An object builds the twins of its tables once, on
first use, and the Fraction views ``st``, ``sl`` and ``sr`` only on
request; an object built from twins (``from_sparse``) keeps them instead
of rescanning the dense tables densified from them.  Validity is always
a report, not a boolean: downstream debugging needs the violating
triple and its residual.  A law covers every basis pair or triple, but
it is evaluated term by term: each term is joined over the nonzero
entries of its twins (``ratlin.join``) into int residuals, all at one
scale and keyed by the law's report order, so a pair or triple that no
nonzero product reaches costs nothing, and only a nonzero residual is
divided by the scale and becomes a dense tuple of Fractions.  Each
object's report is a cached property (``validity``), evaluated once per
object and kept outside the dataclass fields.  Ideals, spans of
brackets and actions, and the multiplier's laws in ``tensor`` read the
twins through one pairwise product (``_pairwise``): the values of a
bilinear map on every pair of basis vectors of two subspaces, as int
vectors, from one join.  An action pulled back through a map into its
actor is read through the twins too (``_pulled_back``), and so are the
brackets of a subalgebra.  The dense ``bracket``, ``act_left`` and
``act_right`` remain public conveniences on dense vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .ratlin import (
    QuotientMap,
    RatMatrix,
    Subspace,
    _restriction,
    _row,
    contract,
    dense,
    integer_view,
    join,
    quotient,
    rational,
    sparse_kernel,
    sparse_table,
    transposed,
    vec,
    vec_is_zero,
    zero_vec,
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
    return scale, tuple(tuple(_row(accs[i, k]) if (i, k) in accs else ()
                              for k in range(m)) for i in range(n))


def _pairwise(table_t, us, vs) -> list:
    """The nonzero values f(u, v) of the bilinear map f with f(e_i, e_j)
    = table[i][j], over the pairs (u, v) of the sparse vectors of us and
    vs, as sparse int vectors at one positive scale, for the integer
    twins table_t (of the transposed view table_t[j][i] = table[i][j]),
    us and vs: each u goes through table_t once into the rows f(u, e_j),
    and every v through those rows in one join.  The one pairwise product
    behind spans of brackets and actions, crossed-ideal closures and the
    multiplier's laws."""
    rows = _through(us, table_t, len(us[1]), len(table_t[1]))
    return [r for r in map(_row, join([("pq", 1, vs, "q", rows, "p")])[1].values())
            if r]


def _densified(twin, d: int) -> tuple:
    """The dense table of length-d vectors whose sparse view has the
    integer twin (den, view), every empty entry one shared zero vector."""
    den, view = twin
    z = zero_vec(d)
    return tuple(tuple(dense(rational(v, den), d) if v else z for v in row)
                 for row in view)


@dataclass(frozen=True)
class LeibnizAlgebra:
    """Structure-constant presentation: [e_i, e_j] = sum_k c[i][j][k] e_k."""

    name: str
    dim: int
    basis_names: tuple
    c: tuple  # c[i][j] is the coordinate vector of [e_i, e_j]

    def __post_init__(self):
        if len(self.basis_names) != self.dim or len(self.c) != self.dim:
            raise ValueError("structure table shape mismatch")
        for row in self.c:
            if len(row) != self.dim or any(len(v) != self.dim for v in row):
                raise ValueError("structure table shape mismatch")

    @classmethod
    def from_table(cls, name: str, basis_names: Sequence[str], table) -> "LeibnizAlgebra":
        d = len(basis_names)
        c = tuple(tuple(vec(table[i][j]) for j in range(d)) for i in range(d))
        return cls(name, d, tuple(basis_names), c)

    @classmethod
    def from_sparse(cls, name: str, basis_names: Sequence[str], zst) -> "LeibnizAlgebra":
        """The algebra whose sparse view has the integer twin zst = (den,
        view), view[i][j] = ((k, den * t), ...) sorted by k over the
        nonzero t, for any positive int den: c is densified from it, and
        zst is kept instead of being rebuilt from c."""
        d = len(basis_names)
        a = cls(name, d, tuple(basis_names), _densified(zst, d))
        vars(a)["zst"] = zst
        return a

    @classmethod
    def abelian(cls, name: str, dim: int, basis_names=None) -> "LeibnizAlgebra":
        names = tuple(basis_names) if basis_names else tuple(f"e{i+1}" for i in range(dim))
        return cls.from_sparse(name, names, (1, (((),) * dim,) * dim))

    @cached_property
    def st(self) -> tuple:
        """Sparse view of c: st[i][j] = nonzero entries of [e_i, e_j]."""
        return sparse_table(self.c)

    @cached_property
    def zst(self) -> "tuple[int, tuple]":
        """The integer twin (den, view) of st, which is not kept."""
        return integer_view(sparse_table(self.c))

    @cached_property
    def zst_t(self) -> "tuple[int, tuple]":
        """The transposed twin: zst_t[1][j][i] = zst[1][i][j], same den."""
        den, view = self.zst
        return den, transposed(view, self.dim)

    def bracket(self, x: Sequence, y: Sequence) -> tuple:
        """Bilinear extension of the structure constants."""
        return contract(self.zst, x, y, self.dim)

    def full_subspace(self) -> Subspace:
        return Subspace.full(self.dim)

    @cached_property
    def validity(self) -> ValidityReport:
        """The report of check_leibniz, evaluated once per object."""
        return _leibniz_report(self)


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
    """True iff the bracket is alternating ([x,x]=0; char 0 polarization)."""
    for i in range(a.dim):
        if not vec_is_zero(a.c[i][i]):
            return False
        for j in range(a.dim):
            if not vec_is_zero(tuple(x + y for x, y in zip(a.c[i][j], a.c[j][i]))):
                return False
    return True


@dataclass(frozen=True)
class LeibnizAction:
    """Mutual-action tables: left[i][j] = ^{m_i} n_j, right[j][i] = n_j ^ {m_i}."""

    actor: LeibnizAlgebra
    acted: LeibnizAlgebra
    left: tuple   # left[i][j]   in acted, i over actor, j over acted
    right: tuple  # right[j][i]  in acted, j over acted, i over actor

    def __post_init__(self):
        dm, dn = self.actor.dim, self.acted.dim
        if len(self.left) != dm or any(len(r) != dn for r in self.left):
            raise ValueError("left action table shape mismatch")
        if len(self.right) != dn or any(len(r) != dm for r in self.right):
            raise ValueError("right action table shape mismatch")

    @classmethod
    def from_sparse(cls, actor: LeibnizAlgebra, acted: LeibnizAlgebra,
                    den: int, sl, sr) -> "LeibnizAction":
        """The action whose sparse views are sl / den and sr / den, for int
        views sl and sr with entries sorted by index over the nonzero
        values and a positive int den: left and right are densified from
        them, and they are kept as the integer twins instead of being
        rebuilt."""
        act = cls(actor, acted, _densified((den, sl), acted.dim),
                  _densified((den, sr), acted.dim))
        vars(act)["_ztables"] = (den, sl, sr)
        return act

    @classmethod
    def trivial(cls, actor: LeibnizAlgebra, acted: LeibnizAlgebra) -> "LeibnizAction":
        return cls.from_sparse(actor, acted, 1, (((),) * acted.dim,) * actor.dim,
                               (((),) * actor.dim,) * acted.dim)

    @classmethod
    def adjoint(cls, a: LeibnizAlgebra) -> "LeibnizAction":
        """Action of an algebra on itself by brackets: ^x y=[x,y], y^x=[y,x]."""
        left = tuple(tuple(a.c[i][j] for j in range(a.dim)) for i in range(a.dim))
        right = tuple(tuple(a.c[j][i] for i in range(a.dim)) for j in range(a.dim))
        return cls(a, a, left, right)

    @cached_property
    def sl(self) -> tuple:
        """Sparse view of left: sl[i][j] = nonzero entries of ^{m_i} n_j."""
        return sparse_table(self.left)

    @cached_property
    def sr(self) -> tuple:
        """Sparse view of right: sr[j][i] = nonzero entries of n_j ^ {m_i}."""
        return sparse_table(self.right)

    @cached_property
    def _ztables(self) -> tuple:
        """(den, sl twin, sr twin): one denominator for both tables, which
        are not kept."""
        den, (sl, sr) = integer_view(
            (sparse_table(self.left), sparse_table(self.right)), 3)
        return den, sl, sr

    @property
    def zsl(self) -> "tuple[int, tuple]":
        """The integer twin of sl."""
        return self._ztables[:2]

    @property
    def zsr(self) -> "tuple[int, tuple]":
        """The integer twin of sr, with the denominator of zsl."""
        return self._ztables[0], self._ztables[2]

    @cached_property
    def zsl_t(self) -> "tuple[int, tuple]":
        """Transposed: zsl_t[1][j][i] = zsl[1][i][j]."""
        return self.zsl[0], transposed(self.zsl[1], self.acted.dim)

    @cached_property
    def zsr_t(self) -> "tuple[int, tuple]":
        """Transposed: zsr_t[1][i][j] = zsr[1][j][i]."""
        return self.zsr[0], transposed(self.zsr[1], self.actor.dim)

    def act_left(self, mvec: Sequence, nvec: Sequence) -> tuple:
        """^x y for x in the actor, y in the acted algebra."""
        return contract(self.zsl, mvec, nvec, self.acted.dim)

    def act_right(self, nvec: Sequence, mvec: Sequence) -> tuple:
        """y^x for y in the acted algebra, x in the actor."""
        return contract(self.zsr, nvec, mvec, self.acted.dim)

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
    _, sr = _through(cols, act.zsr, actor.dim, d)
    return LeibnizAction.from_sparse(actor, act.acted, den, sl, transposed(sr, d))


def check_action(act: LeibnizAction) -> ValidityReport:
    """All six action axioms evaluated on basis triples.

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
    L, R, Lt, Rt = act.zsl, act.zsr, act.zsl_t, act.zsr_t
    cm, cn, cn_t = m.zst, n.zst, n.zst_t
    d = n.dim
    # the report runs over (i, i2, j) for axioms 1 and 5, (j, i, i2) for
    # axiom 3 and (i, j, j2) for axioms 2, 4 and 6, in that order
    bad = _violations({"a": m.basis_names, "b": m.basis_names,
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

    def apply(self, v: Sequence) -> tuple:
        return self.matrix.mul_vec(vec(v))

    def is_surjective(self) -> bool:
        from .ratlin import rank
        return rank(self.matrix) == self.target.dim

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


def span_brackets(a: LeibnizAlgebra, X: Subspace, Y: Subspace) -> Subspace:
    """Linear span of {[x, y] : x in X, y in Y} (basis pairs suffice)."""
    if X.ambient_dim != a.dim or Y.ambient_dim != a.dim:
        raise ValueError("subspace/algebra dimension mismatch")
    return Subspace.from_integer_rows(a.dim, _pairwise(a.zst_t, X.zbasis, Y.zbasis))


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
    """Least two-sided ideal containing seed, by fixpoint iteration."""
    if seed.ambient_dim != a.dim:
        raise ValueError("seed/algebra dimension mismatch")
    s = seed
    full = a.full_subspace()
    while True:
        nxt = s.add(span_brackets(a, full, s)).add(span_brackets(a, s, full))
        if nxt == s:
            return s
        s = nxt


def is_ideal(a: LeibnizAlgebra, s: Subspace) -> bool:
    return ideal_closure(a, s) == s


def quotient_algebra(a: LeibnizAlgebra, ideal: Subspace,
                     name: "str | None" = None) -> "tuple[LeibnizAlgebra, AlgebraHom]":
    """Quotient by a two-sided ideal, with the projection homomorphism.

    The quotient basis is the pivot-complement of the ideal, so the
    returned structure constants are deterministic; basis names are the
    names of the surviving coordinates.
    """
    if not is_ideal(a, ideal):
        raise ValueError(f"subspace is not a two-sided ideal of {a.name}")
    out, qm = _quotient(a, ideal, name or f"{a.name}_quot")
    return out, AlgebraHom(a, out, qm.projection)


def _quotient(a: LeibnizAlgebra, ideal: Subspace,
              name: str) -> "tuple[LeibnizAlgebra, QuotientMap]":
    """The quotient algebra by a subspace the caller knows to be an ideal,
    with its quotient map; the Leibniz identity of the result is asserted."""
    qm = quotient(a.dim, ideal)
    names = tuple(a.basis_names[f] for f in qm.free)
    c = tuple(tuple(qm.project(a.c[i][j]) for j in qm.free) for i in qm.free)
    out = LeibnizAlgebra(name, qm.dim, names, c)
    rep = check_leibniz(out)
    if not rep.valid:
        raise AssertionError(f"quotient of {a.name} lost the Leibniz identity: "
                             f"{rep.summary()}")
    return out, qm


def subalgebra_on(a: LeibnizAlgebra, s: Subspace, name: str) -> "tuple[LeibnizAlgebra, RatMatrix]":
    """Algebra structure induced on a bracket-closed subspace.

    Returns the algebra in the coordinates of s's canonical basis plus
    the inclusion matrix (a.dim x s.dim).  Raises if s is not closed.
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
    return sub, s.basis.transpose()
