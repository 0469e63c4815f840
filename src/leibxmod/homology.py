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

One generator, _images, emits the image of each basis tensor as a
sparse integer row read off the integer twin of the structure constants
(``LeibnizAlgebra.zst``: all of them scaled once by the lcm of their
denominators); that scales d_n by one positive integer and leaves its
rank alone.  hl eliminates
those rows as they are (rank(d_n) is the rank of its transpose), with
no matrix and no Fraction; boundary holds them as the int columns of the
d^(n-1) x d^n matrix.  Either way the dense size is checked against
MAX_BOUNDARY_ENTRIES before anything is built.
"""

from __future__ import annotations

from itertools import product

from .algebra import LeibnizAlgebra
from .ratlin import RatMatrix, _row, integer_rank

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


def _images(table: tuple, d: int, n: int):
    """den * d_n of each basis tensor x_1 (x) ... (x) x_n, in lexicographic
    order, as a sparse {target index: int} row, for the int view of the
    twin (den, table) of a dimension-d algebra's structure constants (see
    LeibnizAlgebra.zst); a sum that cancels is dropped."""
    weight = [d ** (n - 2 - i) for i in range(n - 1)]  # of slot i of a target
    for idx in product(range(d), repeat=n):
        img = {}
        for j in range(1, n):
            sign = -1 if (j + 1) % 2 else 1
            rest = _tensor_index(idx[:j] + idx[j + 1:], d)
            for i in range(j):
                at = rest - idx[i] * weight[i]
                for k, t in table[idx[i]][idx[j]]:
                    key = at + k * weight[i]
                    v = img.get(key, 0) + sign * t
                    if v:
                        img[key] = v
                    else:
                        del img[key]
        yield img


def boundary(q: LeibnizAlgebra, n: int) -> RatMatrix:
    """Matrix of d_n: q^{(x)n} -> q^{(x)(n-1)} on the lexicographic basis."""
    if not 1 <= n <= MAX_BOUNDARY_DEGREE:
        raise ValueError(f"boundary degree must be between 1 and {MAX_BOUNDARY_DEGREE}")
    rows, _ = _boundary_shape(q.dim, n)
    den, table = q.zst
    return RatMatrix.from_sparse(rows, (den, tuple(map(_row, _images(table, q.dim, n)))))


def hl(q: LeibnizAlgebra, n: int) -> int:
    """dim HL_n(q) = dim kernel(d_n) - rank(d_{n+1}), degrees 0..3, where
    dim kernel(d_n) = d^n - rank(d_n) by rank-nullity."""
    if not 0 <= n <= MAX_BOUNDARY_DEGREE - 1:
        raise ValueError(f"homology degree must be between 0 and {MAX_BOUNDARY_DEGREE - 1}")
    if n == 0:
        return 1  # CL_0 is the ground field and d_1 = 0
    _boundary_shape(q.dim, n + 1)  # the larger of the two boundaries
    _, table = q.zst
    return (q.dim ** n - integer_rank(_images(table, q.dim, n))
            - integer_rank(_images(table, q.dim, n + 1)))
