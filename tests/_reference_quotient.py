"""The dense quotient maps that leibxmod.ratlin used before its sparse
QuotientMap, kept as a test oracle.

reduce is the old Subspace.reduce verbatim, contains_vector the old
membership test on top of it, and quotient the old construction of the
dense projection and section matrices; project is the old
QuotientMap.project, projection.mul_vec of the coerced vector.  The
differential tests in test_quotient.py compare the sparse map with them.
"""

from fractions import Fraction
from typing import NamedTuple, Sequence

from leibxmod.ratlin import RatMatrix, Subspace, vec, vec_is_zero


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
    return qm.projection.mul_vec(vec(v))
