"""Exact dense linear algebra over the rationals.

This is the only arithmetic layer of the package.  Scalars are
``fractions.Fraction`` (arbitrary precision, always normalized with a
positive denominator); vectors are tuples of Fractions; matrices are
immutable row-major grids.  Every operation is deterministic: reduced
row echelon form with a fixed pivot rule (first nonzero column, topmost
row) is the canonical form behind all subspace comparisons, kernels and
quotients, so identical inputs always produce bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

QQ = Fraction


def rat(x) -> Fraction:
    """Coerce an int, a string like ``"p/q"`` or a Fraction to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def vec(entries: Iterable) -> tuple:
    return tuple(rat(x) for x in entries)


def zero_vec(n: int) -> tuple:
    return (Fraction(0),) * n


def unit_vec(n: int, i: int) -> tuple:
    return tuple(Fraction(1 if k == i else 0) for k in range(n))


def vec_sub(u: tuple, v: tuple) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def vec_is_zero(v: tuple) -> bool:
    return not any(v)


def vec_accum(acc: list, c: Fraction, v: Sequence) -> None:
    """In-place acc += c*v on a mutable list accumulator (skips c = 0)."""
    if c == 0:
        return
    for k, a in enumerate(v):
        if a != 0:
            acc[k] += c * a


def contract(table, x: Sequence, y: Sequence, dim: int) -> tuple:
    """The bilinear map with values table[i][j] on basis pairs, at (x, y):
    the sum over i, j of x_i * y_j * table[i][j], skipping zeros."""
    acc = [Fraction(0)] * dim
    ys = [(j, b) for j, b in enumerate(y) if b]
    for i, a in enumerate(x):
        if not a:
            continue
        ti = table[i]
        for j, b in ys:
            c = a * b
            for k, t in enumerate(ti[j]):
                if t:
                    acc[k] += c * t
    return tuple(acc)


@dataclass(frozen=True)
class RatMatrix:
    """Immutable dense rational matrix, row-major tuple of row tuples."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for r in self.entries:
            if len(r) != self.cols:
                raise ValueError("column count mismatch")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: "int | None" = None) -> "RatMatrix":
        rows = [vec(r) for r in rows]
        if rows:
            cols = len(rows[0])
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return cls(len(rows), cols, tuple(rows))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, tuple(zero_vec(cols) for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, tuple(unit_vec(n, i) for i in range(n)))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: "int | None" = None) -> "RatMatrix":
        cols = [vec(c) for c in columns]
        if cols:
            rows = len(cols[0])
        elif rows is None:
            raise ValueError("empty matrix needs an explicit row count")
        return cls(rows, len(cols), tuple(tuple(c[i] for c in cols) for i in range(rows)))

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def mul_vec(self, v: Sequence) -> tuple:
        if len(v) != self.cols:
            raise ValueError("matrix-vector shape mismatch")
        out = []
        for r in self.entries:
            s = Fraction(0)
            for a, b in zip(r, v):
                if a != 0 and b != 0:
                    s += a * b
            out.append(s)
        return tuple(out)

    def mul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix-matrix shape mismatch")
        ot = other.transpose()
        ent = tuple(
            tuple(sum((a * b for a, b in zip(r, c) if a != 0 and b != 0), Fraction(0))
                  for c in ot.entries)
            for r in self.entries
        )
        return RatMatrix(self.rows, other.cols, ent)

    def transpose(self) -> "RatMatrix":
        return RatMatrix(self.cols, self.rows,
                         tuple(tuple(r[j] for r in self.entries) for j in range(self.cols)))

    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self.entries)


def rref(m: RatMatrix) -> "tuple[RatMatrix, tuple[int, ...]]":
    """Reduced row echelon form with zero rows dropped.

    Pivot rule: scan columns left to right, take the topmost unused row
    with a nonzero entry.  The result is the canonical representative of
    the row space, so equality of row spaces is equality of rref forms.
    """
    rows = [list(r) for r in m.entries]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                ri, rr = rows[i], rows[r]
                rows[i] = [a - f * b for a, b in zip(ri, rr)]
        pivots.append(c)
        r += 1
    kept = tuple(tuple(row) for row in rows[:r])
    return RatMatrix(r, ncols, kept), tuple(pivots)


def rank(m: RatMatrix) -> int:
    return rref(m)[0].rows


@dataclass(frozen=True)
class Subspace:
    """A subspace of QQ^ambient_dim, held as a canonical RREF basis."""

    ambient_dim: int
    basis: RatMatrix
    pivots: tuple

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = [vec(v) for v in vectors]
        for v in rows:
            if len(v) != ambient_dim:
                raise ValueError("vector length differs from ambient dimension")
        b, piv = rref(RatMatrix.from_rows(rows, cols=ambient_dim))
        return cls(ambient_dim, b, piv)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, RatMatrix(0, ambient_dim, ()), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, RatMatrix.identity(ambient_dim),
                   tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def reduce(self, v: Sequence) -> tuple:
        """Residual of v after eliminating all pivot coordinates."""
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise ValueError("vector length differs from ambient dimension")
        out = list(v)
        for row, p in zip(self.basis.entries, self.pivots):
            c = out[p]
            if c != 0:
                for k, a in enumerate(row):
                    if a != 0:
                        out[k] -= c * a
        return tuple(out)

    def contains_vector(self, v: Sequence) -> bool:
        return vec_is_zero(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(self.contains_vector(v) for v in other.basis.entries)

    def add(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.from_vectors(
            self.ambient_dim, self.basis.entries + other.basis.entries)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of the stacked coefficient system."""
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        da, db = self.dim, other.dim
        if da == 0 or db == 0:
            return Subspace.zero(self.ambient_dim)
        cols = [list(v) for v in self.basis.entries]
        cols += [[-x for x in v] for v in other.basis.entries]
        system = RatMatrix.from_columns(cols, rows=self.ambient_dim)
        sols = kernel(system)
        out = []
        for w in sols.basis.entries:
            x = [Fraction(0)] * self.ambient_dim
            for i in range(da):
                vec_accum(x, w[i], self.basis.entries[i])
            out.append(tuple(x))
        return Subspace.from_vectors(self.ambient_dim, out)

    def coords(self, v: Sequence) -> tuple:
        """Coordinates of v in this basis; raises if v is not a member.

        Because the basis is RREF, the coordinate along basis row i is
        just the entry of v at the i-th pivot column.
        """
        v = vec(v)
        if not self.contains_vector(v):
            raise ValueError("vector not in subspace")
        return tuple(v[p] for p in self.pivots)


def kernel(m: RatMatrix) -> Subspace:
    """Basis of the right null space {v : m v = 0}."""
    r, piv = rref(m)
    pivset = set(piv)
    free = [c for c in range(m.cols) if c not in pivset]
    out = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, p in enumerate(piv):
            v[p] = -r.entries[i][f]
        out.append(tuple(v))
    return Subspace.from_vectors(m.cols, out)


def column_space(m: RatMatrix) -> Subspace:
    """Image of the linear map represented by m (span of its columns)."""
    return Subspace.from_vectors(m.rows, [m.column(j) for j in range(m.cols)])


@dataclass(frozen=True)
class QuotientMap:
    """Quotient of QQ^ambient_dim by a relation subspace.

    projection (dim x ambient) and section (ambient x dim) satisfy
    projection . section = identity and kernel(projection) = relations.
    The quotient basis is the complement of the relation pivots, so
    structure constants computed through a QuotientMap are reproducible.
    """

    ambient_dim: int
    relations: Subspace
    projection: RatMatrix
    section: RatMatrix
    free: tuple

    @property
    def dim(self) -> int:
        return self.projection.rows

    def project(self, v: Sequence) -> tuple:
        return self.projection.mul_vec(vec(v))

    def lift(self, v: Sequence) -> tuple:
        return self.section.mul_vec(vec(v))


def quotient(ambient_dim: int, r: Subspace) -> QuotientMap:
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
    return QuotientMap(
        ambient_dim, r,
        RatMatrix(q, ambient_dim, tuple(tuple(row) for row in proj)),
        RatMatrix(ambient_dim, q, tuple(tuple(row) for row in sect)),
        free,
    )


def solve(m: RatMatrix, rhs: Sequence) -> tuple:
    """One exact solution of m x = rhs with all free variables set to 0.

    Deterministic (pivot-based); raises ValueError when inconsistent.
    """
    rhs = vec(rhs)
    if len(rhs) != m.rows:
        raise ValueError("right-hand side length mismatch")
    aug = RatMatrix(m.rows, m.cols + 1,
                    tuple(r + (b,) for r, b in zip(m.entries, rhs)))
    r, piv = rref(aug)
    if m.cols in piv:
        raise ValueError("inconsistent linear system")
    x = [Fraction(0)] * m.cols
    for i, p in enumerate(piv):
        x[p] = r.entries[i][m.cols]
    return tuple(x)


def solve_matrix(m: RatMatrix, rhs: RatMatrix) -> RatMatrix:
    """Columnwise solve of m X = rhs (free variables zero in every column)."""
    if rhs.rows != m.rows:
        raise ValueError("right-hand side row mismatch")
    cols = [solve(m, rhs.column(j)) for j in range(rhs.cols)]
    return RatMatrix.from_columns(cols, rows=m.cols)
