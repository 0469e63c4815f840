"""Loday-complex Leibniz homology, used as an independent oracle.

The chain group in degree n is the n-fold tensor power of the algebra,
with basis ordered lexicographically, and the boundary is

    d(x_1 (x) ... (x) x_n)
        = sum_{1 <= i < j <= n} (-1)^j
          x_1 (x) ... (x) [x_i, x_j] (x) ... (x) hat x_j (x) ... (x) x_n

where the bracket replaces slot i and slot j is omitted.  The homology
dimension hl(q, 2) gives an implementation-independent value for the
kernel of the exterior-square bracket map, which is how the rest of the
package is cross-validated.  Degrees are capped at 4 (boundary) and 3
(homology): enough for the oracle at desk scale.  The boundary is a
dense d^(n-1) x d^n matrix, so its size is checked against
MAX_BOUNDARY_ENTRIES before anything is allocated.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .algebra import LeibnizAlgebra
from .ratlin import RatMatrix, rank

MAX_BOUNDARY_DEGREE = 4
# Largest boundary matrix, in entries, that boundary and hl will build:
# well above d_4 of a dimension-5 algebra (125 x 625 = 78 125 entries).
MAX_BOUNDARY_ENTRIES = 2_000_000


def _boundary_shape(d: int, n: int) -> "tuple[int, int]":
    """Rows and columns of d_n on a dimension-d algebra; raises ValueError,
    naming the size, when that is over MAX_BOUNDARY_ENTRIES."""
    rows, cols = d ** (n - 1), d ** n
    if rows * cols > MAX_BOUNDARY_ENTRIES:
        raise ValueError(
            f"boundary d_{n} of a dimension-{d} algebra would be {rows}x{cols}"
            f" = {rows * cols} entries, over the budget of {MAX_BOUNDARY_ENTRIES}")
    return rows, cols


def _tensor_index(idx: tuple, d: int) -> int:
    out = 0
    for i in idx:
        out = out * d + i
    return out


def boundary(q: LeibnizAlgebra, n: int) -> RatMatrix:
    """Matrix of d_n: q^{(x)n} -> q^{(x)(n-1)} on the lexicographic basis."""
    if not 1 <= n <= MAX_BOUNDARY_DEGREE:
        raise ValueError(f"boundary degree must be between 1 and {MAX_BOUNDARY_DEGREE}")
    d = q.dim
    rows, cols = _boundary_shape(d, n)
    entries = [[Fraction(0)] * cols for _ in range(rows)]
    if n == 1:
        # d_1 = 0 into the ground field
        return RatMatrix(rows, cols, tuple(tuple(r) for r in entries))
    for idx in product(range(d), repeat=n):
        col = _tensor_index(idx, d)
        for i in range(n - 1):
            for j in range(i + 1, n):
                sign = Fraction(-1 if (j + 1) % 2 else 1)
                bracket = q.c[idx[i]][idx[j]]
                rest = idx[:i] + (None,) + idx[i + 1:j] + idx[j + 1:]
                for k in range(d):
                    ck = bracket[k]
                    if ck == 0:
                        continue
                    target = tuple(k if t is None else t for t in rest)
                    entries[_tensor_index(target, d)][col] += sign * ck
    return RatMatrix(rows, cols, tuple(tuple(r) for r in entries))


def hl(q: LeibnizAlgebra, n: int) -> int:
    """dim HL_n(q) = dim kernel(d_n) - rank(d_{n+1}), degrees 0..3, where
    dim kernel(d_n) = d^n - rank(d_n) by rank-nullity."""
    if not 0 <= n <= MAX_BOUNDARY_DEGREE - 1:
        raise ValueError(f"homology degree must be between 0 and {MAX_BOUNDARY_DEGREE - 1}")
    if n == 0:
        return 1  # CL_0 is the ground field and d_1 = 0
    _boundary_shape(q.dim, n + 1)  # the larger of the two boundaries
    return q.dim ** n - rank(boundary(q, n)) - rank(boundary(q, n + 1))
