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
(homology): enough for the oracle at desk scale.

One generator, _images, builds d_1, ..., d_top in one pass, transposed:
one sparse integer row per target tensor, off the entries of the twin
``LeibnizAlgebra.zst`` (the constants times the lcm of their
denominators: no rank changes), grouped once by first index.  As d_m(p
(x) x) = d_(m-1)(p) (x) x + (-1)^m sum_i p_1 (x) ... (x) [p_i, x] (x) ...
(x) p_(m-1), row s (x) x of d_m is row s of d_(m-1) with each source p
moved to p (x) x, and each bracket [p_i, x] writes p (x) x into the row
of its target.  hl ranks the
rows of d_n and d_(n+1) as they come, with no matrix and no Fraction;
boundary turns them into its matrix's int columns once.  Either way the
dense size is checked against MAX_BOUNDARY_ENTRIES first.
"""

from __future__ import annotations

from itertools import product

from .algebra import LeibnizAlgebra
from .ratlin import RatMatrix, _row, _rows, integer_rank

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


def _images(table: tuple, d: int, top: int):
    """The rows of den * d_1^T, ..., den * d_top^T, one list per degree, off
    the int entries of the twin (den, table) of the structure constants:
    row u of degree m is the column of d_m at basis tensor u of degree
    m - 1, a sparse {source tensor: int} without zeros."""
    brackets = [list(row.items()) for row in _rows(table, d)]
    rows = [{}]  # d_1 = 0 into the ground field
    yield rows
    for m in range(2, top + 1):
        sign = -1 if m % 2 else 1
        weights = [d ** (m - 2 - i) for i in range(m - 1)]  # of slot i of a target
        # d_(m-1)(p) (x) x: row s (x) x is row s below, each source p moved to p (x) x
        rows = [{t * d + x: v for t, v in row.items()} for row in rows for x in range(d)]
        for t, p in enumerate(product(range(d), repeat=m - 1)):
            for pi, w in zip(p, weights):
                at = t - pi * w
                for x, br in brackets[pi]:
                    key = t * d + x  # p (x) x
                    for k, c in br:
                        row = rows[at + k * w]
                        row[key] = v = row.get(key, 0) + sign * c
                        if not v:
                            del row[key]
        yield rows


def boundary(q: LeibnizAlgebra, n: int) -> RatMatrix:
    """Matrix of d_n: q^{(x)n} -> q^{(x)(n-1)} on the lexicographic basis."""
    if not 1 <= n <= MAX_BOUNDARY_DEGREE:
        raise ValueError(f"boundary degree must be between 1 and {MAX_BOUNDARY_DEGREE}")
    _, cols = _boundary_shape(q.dim, n)
    *_, images = _images(q.zst[1], q.dim, n)
    return RatMatrix.from_sparse(cols, (q.zst[0], tuple(map(_row, images)))).transpose()


def hl(q: LeibnizAlgebra, n: int) -> int:
    """dim HL_n(q) = dim kernel(d_n) - rank(d_{n+1}), degrees 0..3, where
    dim kernel(d_n) = d^n - rank(d_n) by rank-nullity."""
    if not 0 <= n <= MAX_BOUNDARY_DEGREE - 1:
        raise ValueError(f"homology degree must be between 0 and {MAX_BOUNDARY_DEGREE - 1}")
    if n == 0:
        return 1  # CL_0 is the ground field and d_1 = 0
    _boundary_shape(q.dim, n + 1)  # the larger of the two boundaries
    *_, dn, dn1 = _images(q.zst[1], q.dim, n + 1)
    return q.dim ** n - integer_rank(dn) - integer_rank(dn1)
