"""The dense-field LeibnizAlgebra, LeibnizAction and RatMatrix that
leibxmod stored before the integer twins became their fields, kept as a
test oracle.

The classes are the old ones with their fields, shape checks and dense
readers verbatim: the tables c, left and right and the grid entries are
the dataclass fields, so equality and hashing walk dense grids of
Fractions.  Their cached sparse views and twins are left out; the old
reports are those of _reference_checks, which reads only the dense
fields.  test_tables.py compares the library's classes with these.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

_ZERO = Fraction(0)


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

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def mul_vec(self, v: Sequence) -> tuple:
        if len(v) != self.cols:
            raise ValueError("matrix-vector shape mismatch")
        out = []
        for r in self.entries:
            s = _ZERO
            for a, b in zip(r, v):
                if a and b:
                    s += a * b
            out.append(s)
        return tuple(out)

    def transpose(self) -> "RatMatrix":
        return RatMatrix(self.cols, self.rows,
                         tuple(tuple(r[j] for r in self.entries) for j in range(self.cols)))


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
