"""The dense Subspace that leibxmod.ratlin held before a subspace kept its
canonical integer rows, kept as a test oracle.

Subspace is the old class verbatim, a canonical dense RREF basis with
its pivots, membership by the dense reduce and intersection by the
kernel of the stacked coefficient system; vec_accum, _twin (the integer
twin of the canonical basis) and _restriction are the old functions of
leibxmod.ratlin verbatim.  Its rref and kernel are the dense Fraction
ones of _reference_rref, so the differential tests in test_subspace.py
compare the library with an independent elimination.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from _dense import from_columns, vec, vec_is_zero
from _reference_rref import kernel, rref
from leibxmod.ratlin import (
    RatMatrix,
    accumulate,
    integer_view,
    sparse,
)


def vec_accum(acc: list, c: Fraction, v: Sequence) -> None:
    """In-place acc += c*v on a mutable list accumulator (skips c = 0)."""
    if not c:
        return
    for k, a in enumerate(v):
        if a:
            acc[k] += c * a


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
        return cls(ambient_dim,
                   *rref(RatMatrix(len(rows), ambient_dim, tuple(rows))))

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
            if c:
                for k, a in enumerate(row):
                    if a:
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
        system = from_columns(cols, rows=self.ambient_dim)
        sols = Subspace(system.cols, *kernel(system))
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


def _twin(s: Subspace) -> tuple:
    """The integer twin of the canonical basis of s, as sparse vectors."""
    return integer_view([sparse(u) for u in s.basis.entries], 1)


def _restriction(s: Subspace, twin) -> "tuple | None":
    """The integer twin (den, coordinates) of the coordinates in the
    canonical basis of s of the vectors of the integer twin (den,
    vectors), or None when one of them is not in s.  The coordinate along
    basis row i is the entry at the i-th pivot, and each vector's
    residual (minus the coordinates times the basis) is read once, on ints."""
    den, vectors = twin
    dr, rows = _twin(s)  # rows[i] is dr times basis row i
    out = []
    for v in vectors:
        at = dict(v)
        coords = tuple((i, at[p]) for i, p in enumerate(s.pivots) if p in at)
        residual = {k: dr * t for k, t in v}
        accumulate(residual, -1, coords, rows)
        if any(residual.values()):
            return None
        out.append(coords)
    return den, tuple(out)
