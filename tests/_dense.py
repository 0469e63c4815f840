"""Dense Fraction vectors, spans and matrices for the tests and their
oracles, built on the integer forms the library keeps."""

from fractions import Fraction

from leibxmod.ratlin import RatMatrix, Subspace, integer_view, sparse


def vec(xs) -> tuple:
    return tuple(Fraction(x) for x in xs)


def zero_vec(n: int) -> tuple:
    return (Fraction(0),) * n


def unit_vec(n: int, i: int) -> tuple:
    return tuple(Fraction(int(k == i)) for k in range(n))


def vec_is_zero(v) -> bool:
    return not any(v)


def integer_entries(v) -> tuple:
    """The integer twin (den, sparse int vector) of a dense vector."""
    return integer_view(sparse(vec(v)), 0)


def span(dim: int, vectors) -> Subspace:
    vs = [vec(v) for v in vectors]
    if any(len(v) != dim for v in vs):
        raise ValueError("vector length differs from ambient dimension")
    return Subspace.from_integer_rows(dim, [integer_entries(v)[1] for v in vs])


def from_rows(rows, cols=None) -> RatMatrix:
    rows = [vec(r) for r in rows]
    return RatMatrix(len(rows), len(rows[0]) if rows else cols, tuple(rows))


def from_columns(columns, rows=None) -> RatMatrix:
    return from_rows(columns, cols=rows).transpose()
