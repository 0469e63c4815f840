"""The dense Loday boundary that leibxmod.homology used before it emitted
sparse integer rows, kept as a test oracle.

boundary is the old routine verbatim: it fills the whole d^(n-1) x d^n
grid of Fractions, pair by pair, straight from the defining sum over
all slot pairs i < j (the library builds each degree from the one below
instead), with its own tensor indexing; hl is the old value on top of
it, d^n - rank(d_n) - rank(d_(n+1)), with the rank of the dense
matrices.  The differential tests in test_homology.py compare the
library's sparse rows, and the matrix it densifies from them, with this
one.
"""

from fractions import Fraction
from itertools import product

from leibxmod.homology import MAX_BOUNDARY_DEGREE, _boundary_shape
from leibxmod.ratlin import RatMatrix, rank


def _tensor_index(idx: tuple, d: int) -> int:
    out = 0
    for i in idx:
        out = out * d + i
    return out


def boundary(q, n: int) -> RatMatrix:
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


def hl(q, n: int) -> int:
    """dim HL_n(q) = d^n - rank(d_n) - rank(d_(n+1)), degrees 1..3."""
    return q.dim ** n - rank(boundary(q, n)) - rank(boundary(q, n + 1))
