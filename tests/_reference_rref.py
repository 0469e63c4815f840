"""The dense Fraction Gauss-Jordan elimination that leibxmod.ratlin used
before its fraction-free integer elimination, kept as a test oracle.

rref is the old routine verbatim; rank, kernel, solve and solve_matrix
are the old ones on top of it (kernel gives the basis and pivots of the
old Subspace, built through this rref too), so the differential tests
in test_ratlin.py compare the library with an independent elimination.
eliminate is the fraction-free ratlin._eliminate as it was before its
Gauss-Jordan pass went by pivot: the pass tests every pair of echelon
rows for the later row's pivot column, quadratic in the rank.
"""

from fractions import Fraction
from typing import Sequence

from _dense import from_columns, from_rows, vec
from leibxmod.ratlin import RatMatrix, _cancel


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


def kernel(m: RatMatrix) -> "tuple[RatMatrix, tuple[int, ...]]":
    """The canonical basis of the right null space {v : m v = 0}, and its
    pivots."""
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
    return rref(from_rows(out, cols=m.cols))


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
    return from_columns(cols, rows=m.cols)


def eliminate(rows: list, reduce: bool = True) -> list:
    by_lead = {}
    for row in rows:
        by_lead.setdefault(min(row), []).append(row)
    echelon = []
    while by_lead:
        c = min(by_lead)
        group = by_lead.pop(c)
        piv = min(group, key=len)
        for row in group:
            if row is not piv:
                row = _cancel(row, piv, c)
                if row:
                    by_lead.setdefault(min(row), []).append(row)
        echelon.append((c, piv))
    if reduce:
        for i in range(len(echelon) - 1, 0, -1):
            c, piv = echelon[i]
            for j in range(i):
                cj, row = echelon[j]
                if c in row:
                    echelon[j] = (cj, _cancel(row, piv, c))
    return echelon
