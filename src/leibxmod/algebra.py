"""Finite-dimensional Leibniz algebras over the rationals.

A Leibniz algebra is a vector space with a bilinear bracket satisfying

    [x, [y, z]] = [[x, y], z] - [[x, z], y],

a Lie algebra when additionally [x, x] = 0.  Algebras are presented by
structure constants c[i][j] = coordinates of [e_i, e_j]; a Leibniz
action of one algebra on another is a pair of trilinear tables (left
^m n and right n^m) subject to six compatibility axioms.  The tables
are the dense fields that define equality, hashing and the fixture
format; each object also builds, once and on first use, a sparse view
of every table and of its transpose (see ``ratlin.sparse_table``), and
brackets, actions and the laws below read only those views.  Validity
is always a report, not a boolean: downstream debugging needs the
violating triple and its residual.  A law is evaluated on every basis
pair or triple, each residual as a signed sum of sparse products
(``ratlin.signed_sum``); only a nonzero residual becomes a dense tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .ratlin import (
    RatMatrix,
    Subspace,
    contract,
    kernel,
    quotient,
    rat,
    signed_sum,
    sparse_columns,
    sparse_table,
    transposed,
    unit_vec,
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
    def abelian(cls, name: str, dim: int, basis_names=None) -> "LeibnizAlgebra":
        names = tuple(basis_names) if basis_names else tuple(f"e{i+1}" for i in range(dim))
        z = zero_vec(dim)
        return cls(name, dim, names, tuple(tuple(z for _ in range(dim)) for _ in range(dim)))

    @cached_property
    def st(self) -> tuple:
        """Sparse view of c: st[i][j] = nonzero entries of [e_i, e_j]."""
        return sparse_table(self.c)

    @cached_property
    def st_t(self) -> tuple:
        """Transposed sparse view: st_t[j][i] = st[i][j]."""
        return transposed(self.st, self.dim)

    def bracket(self, x: Sequence, y: Sequence) -> tuple:
        """Bilinear extension of the structure constants."""
        return contract(self.st, x, y, self.dim)

    def full_subspace(self) -> Subspace:
        return Subspace.full(self.dim)


def check_leibniz(a: LeibnizAlgebra) -> ValidityReport:
    """Leibniz identity residuals on all basis triples."""
    bad = []
    names = a.basis_names
    st, st_t = a.st, a.st_t
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                # residual of [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] + [[e_i,e_k],e_j]
                r = signed_sum(a.dim, ((1, st[j][k], st[i]), (-1, st[i][j], st_t[k]),
                                       (1, st[i][k], st_t[j])))
                if r:
                    bad.append((f"({names[i]},{names[j]},{names[k]})", r))
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
    def trivial(cls, actor: LeibnizAlgebra, acted: LeibnizAlgebra) -> "LeibnizAction":
        z = zero_vec(acted.dim)
        left = tuple(tuple(z for _ in range(acted.dim)) for _ in range(actor.dim))
        right = tuple(tuple(z for _ in range(actor.dim)) for _ in range(acted.dim))
        return cls(actor, acted, left, right)

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
    def sl_t(self) -> tuple:
        """Transposed: sl_t[j][i] = sl[i][j]."""
        return transposed(self.sl, self.acted.dim)

    @cached_property
    def sr_t(self) -> tuple:
        """Transposed: sr_t[i][j] = sr[j][i]."""
        return transposed(self.sr, self.actor.dim)

    def act_left(self, mvec: Sequence, nvec: Sequence) -> tuple:
        """^x y for x in the actor, y in the acted algebra."""
        return contract(self.sl, mvec, nvec, self.acted.dim)

    def act_right(self, nvec: Sequence, mvec: Sequence) -> tuple:
        """y^x for y in the acted algebra, x in the actor."""
        return contract(self.sr, nvec, mvec, self.acted.dim)


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

    Each residual is a signed sum of terms (c, a, rows), c times the
    sparse vector a pushed through rows (see ratlin.accumulate): with
    rows L[m] a is acted on from the left by m, with rows Lt[n] the
    actor element a acts on n, and so on for R and the brackets.
    """
    m, n = act.actor, act.acted
    L, R, Lt, Rt = act.sl, act.sr, act.sl_t, act.sr_t
    cm, cn, cn_t = m.st, n.st, n.st_t
    mb, nb = m.basis_names, n.basis_names
    bad = []

    def flag(axiom, names, *terms):
        r = signed_sum(n.dim, terms)
        if r:
            bad.append((f"axiom{axiom} ({','.join(names)})", r))

    for i in range(m.dim):
        for i2 in range(m.dim):
            for j in range(n.dim):
                # 1. ^{[m,m']}n - ^m(^{m'}n) - (^m n)^{m'}
                flag(1, (mb[i], mb[i2], nb[j]), (1, cm[i][i2], Lt[j]),
                     (-1, L[i2][j], L[i]), (-1, L[i][j], Rt[i2]))
                # 5. ^m(^{m'}n) + ^m(n^{m'})
                flag(5, (mb[i], mb[i2], nb[j]), (1, L[i2][j], L[i]),
                     (1, R[j][i2], L[i]))

    for j in range(n.dim):
        for i in range(m.dim):
            for i2 in range(m.dim):
                # 3. n^{[m,m']} - (n^m)^{m'} + (n^{m'})^m
                flag(3, (nb[j], mb[i], mb[i2]), (1, cm[i][i2], R[j]),
                     (-1, R[j][i], Rt[i2]), (1, R[j][i2], Rt[i]))

    for i in range(m.dim):
        for j in range(n.dim):
            for j2 in range(n.dim):
                # 2. ^m [n,n'] - [^m n, n'] + [^m n', n]
                flag(2, (mb[i], nb[j], nb[j2]), (1, cn[j][j2], L[i]),
                     (-1, L[i][j], cn_t[j2]), (1, L[i][j2], cn_t[j]))
                # 4. [n,n']^m - [n^m, n'] - [n, n'^m]
                flag(4, (nb[j], nb[j2], mb[i]), (1, cn[j][j2], Rt[i]),
                     (-1, R[j][i], cn_t[j2]), (-1, R[j2][i], cn[j]))
                # 6. [n, ^m n'] + [n, n'^m]
                flag(6, (nb[j], mb[i], nb[j2]), (1, L[i][j2], cn[j]),
                     (1, R[j2][i], cn[j]))

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


def check_hom(f: AlgebraHom) -> ValidityReport:
    """Residuals f([e_i,e_j]) - [f(e_i), f(e_j)] on all basis pairs."""
    a, b = f.source, f.target
    cols = sparse_columns(f.matrix)
    bad = []
    for i in range(a.dim):
        for j in range(a.dim):
            # f([e_i,e_j]) - sum over f(e_i) = sum_l x_l e_l of x_l [e_l, f(e_j)]
            r = signed_sum(b.dim, ((1, a.st[i][j], cols),
                                   *((-x, cols[j], b.st[l]) for l, x in cols[i])))
            if r:
                bad.append((f"({a.basis_names[i]},{a.basis_names[j]})", r))
    return _report(f"homomorphism {a.name} -> {b.name}", bad)


def span_brackets(a: LeibnizAlgebra, X: Subspace, Y: Subspace) -> Subspace:
    """Linear span of {[x, y] : x in X, y in Y} (basis pairs suffice)."""
    if X.ambient_dim != a.dim or Y.ambient_dim != a.dim:
        raise ValueError("subspace/algebra dimension mismatch")
    out = [a.bracket(x, y) for x in X.basis.entries for y in Y.basis.entries]
    return Subspace.from_vectors(a.dim, out)


def center(a: LeibnizAlgebra) -> Subspace:
    """Two-sided center {x : [x, a] = [a, x] = 0}."""
    rows = []
    for j in range(a.dim):
        for k in range(a.dim):
            rows.append(tuple(a.c[i][j][k] for i in range(a.dim)))  # x -> [x, e_j]
            rows.append(tuple(a.c[j][i][k] for i in range(a.dim)))  # x -> [e_j, x]
    return kernel(RatMatrix.from_rows(rows, cols=a.dim))


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
    qm = quotient(a.dim, ideal)
    names = tuple(a.basis_names[f] for f in qm.free)
    c = tuple(tuple(qm.project(a.c[i][j]) for j in qm.free) for i in qm.free)
    out = LeibnizAlgebra(name or f"{a.name}_quot", qm.dim, names, c)
    rep = check_leibniz(out)
    if not rep.valid:
        raise AssertionError(f"quotient of {a.name} lost the Leibniz identity: "
                             f"{rep.summary()}")
    return out, AlgebraHom(a, out, qm.projection)


def subalgebra_on(a: LeibnizAlgebra, s: Subspace, name: str) -> "tuple[LeibnizAlgebra, RatMatrix]":
    """Algebra structure induced on a bracket-closed subspace.

    Returns the algebra in the coordinates of s's canonical basis plus
    the inclusion matrix (a.dim x s.dim).  Raises if s is not closed.
    """
    base = s.basis.entries
    c = []
    for x in base:
        row = []
        for y in base:
            b = a.bracket(x, y)
            if not s.contains_vector(b):
                raise ValueError("subspace is not bracket-closed")
            row.append(s.coords(b))
        c.append(tuple(row))
    names = tuple(f"s{i+1}" for i in range(s.dim))
    sub = LeibnizAlgebra(name, s.dim, names, tuple(c))
    incl = RatMatrix.from_columns(list(base), rows=a.dim) if base else RatMatrix.zeros(a.dim, 0)
    return sub, incl
