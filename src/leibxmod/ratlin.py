"""Exact linear algebra over the rationals.

This is the only arithmetic layer of the package.  Scalars are
``fractions.Fraction`` (arbitrary precision, always normalized with a
positive denominator) where a value leaves the package: the dense grids
and tables the public objects print are views built on request.  What
they store, and what every operation runs on, is sparse and on plain
ints.  A sparse vector is ``((index, value), ...)`` (or the items of a
``{index: value}`` accumulator), and a structure or action table is its
entries ``(((i, j), ((k, t), ...)), ...)`` over the nonempty vectors, in
key order: no empty slot is stored or walked.  Each view has an integer
twin: one positive denominator (``integer_view`` takes the lcm of the denominators of the view's values, which makes the
twin unique; ``canonical`` brings any other to it) and the view with
every value times it, an int.  A matrix stores the twin of its sparse
columns and nothing else, so equality and hashing compare ints; its
kernel is taken once per matrix object and cached on it, outside those
fields.  ``accumulate`` is the one step behind the bilinear maps and
quotient maps, and ``join`` adds each product the same way: it evaluates
the runtime-checked laws term by term over twins, each term scaled by
the complementary denominators so that all terms share one scale, and
joined over the nonzero entries of its views into int residuals keyed by the law's
report order, so a basis triple that no nonzero product reaches costs
nothing; a term contracts either slot of a table, so none is stored
transposed.  A value is divided by its scale only where it leaves the
kernel, as a Fraction.  A ``QuotientMap`` is a sparse map too: the image
of every ambient column in quotient coordinates, with an integer twin,
so the class of a vector is one ``accumulate`` over its nonzero entries,
and membership in the relation subspace is an empty image, a pure int
test.
Every operation is deterministic: the canonical form behind all
subspace comparisons, kernels and quotients is *the* reduced row
echelon form of a row space, which is unique and so does not depend on
which row supplies a pivot.  Elimination runs over integers
(fraction-free, in the style of Bareiss), and a ``Subspace`` keeps the
rows it returns, each RREF row made primitive and positive at its pivot:
a unique form too, so identical inputs always give bit-identical
outputs.  Spans, sums, kernels, solutions, membership and restriction
(``_restriction``: coordinates read at the pivots, each residual once)
take sparse int rows and create no Fraction; the dense RREF basis is a
view built on request.  ``integer_rank`` creates no Fraction at all, and
a span's basis is the canonical rows of its ``Subspace``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Sequence

_ZERO = Fraction(0)


def sparse(v: Sequence) -> tuple:
    """The nonzero entries of a dense vector, as ((index, value), ...)."""
    return tuple((k, t) for k, t in enumerate(v) if t)


def sparse_table(table) -> tuple:
    """The entries of a table of dense vectors: ((i, j), sparse(table[i][j]))
    over its nonzero vectors, sorted by (i, j)."""
    return tuple(((i, j), s) for i, row in enumerate(table)
                 for j, v in enumerate(row) if (s := sparse(v)))


def transposed(entries) -> tuple:
    """The entries of a table with its two indices swapped: ((j, i), v) for
    every ((i, j), v), sorted by key."""
    return tuple(sorted(((j, i), v) for (i, j), v in entries))


def _rows(entries, n: int) -> list:
    """The n rows of a table, read off its entries: row i is {j: vector},
    and reads () at a j it lacks, so it serves as the columns of a map."""
    rows = [defaultdict(tuple) for _ in range(n)]
    for (i, j), v in entries:
        rows[i][j] = v
    return rows


def _flat(view, depth: int) -> list:
    """The sparse vectors of a sparse view with depth outer indices."""
    if depth == 2:
        return [v for _, v in view]
    return [v for x in view for v in _flat(x, depth - 1)] if depth else [view]


def _leaves(view, depth: int, f) -> tuple:
    """The sparse view with every sparse vector v replaced by f(v)."""
    if depth == 2:
        return tuple((p, f(v)) for p, v in view)
    return tuple(_leaves(x, depth - 1, f) for x in view) if depth else f(view)


def integer_view(view, depth: int = 2) -> "tuple[int, tuple]":
    """The integer twin (den, twin) of a sparse view with depth outer
    indices (0 for a sparse vector, 1 for a tuple of them, 2 for the
    entries of a table, 3 for a tuple of tables): den is the lcm of the
    denominators of its values (1 when it has none), and twin is the view
    with every value t replaced by the int den * t."""
    den = lcm(*[t.denominator for v in _flat(view, depth) for _, t in v])
    seen = {}  # equal vectors of the twin share one tuple

    def scaled(x):
        v = tuple((k, t.numerator * (den // t.denominator)) for k, t in x)
        return seen.setdefault(v, v)
    return den, _leaves(view, depth, scaled)


def canonical(twin, depth: int) -> "tuple[int, tuple]":
    """The unique form of the integer twin (den, view) of a sparse view
    with depth outer indices, for a positive int den: den and every value
    divided by their gcd, the twin integer_view gives for the same values."""
    den, view = twin
    g = den if den == 1 else gcd(den, *[t for v in _flat(view, depth) for _, t in v])
    if g == 1:
        return twin
    return den // g, _leaves(view, depth, lambda x: tuple((k, t // g) for k, t in x))


def _assign(obj, **fields) -> None:
    """Set the fields of a frozen dataclass instance, in its constructor."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


def rational(entries, den: int) -> list:
    """The (index, value) entries of a sparse int vector divided by the
    positive int den, as Fractions: where a value leaves the kernel."""
    return [(k, Fraction(v, den)) for k, v in entries]


def dense(entries, dim: int) -> tuple:
    """The dense vector with the given (index, value) entries, zero elsewhere."""
    out = [_ZERO] * dim
    for k, t in entries:
        out[k] = t
    return tuple(out)


def _scaled(v, c: int) -> tuple:
    """The sparse vector v times the nonzero int c."""
    return v if c == 1 else tuple((k, c * t) for k, t in v)


def _row(acc: dict) -> tuple:
    """The nonzero entries of an accumulator, as a sparse vector sorted
    by index (filter reads the values in C, with no generator frame)."""
    return tuple(sorted(filter(itemgetter(1), acc.items())))


def accumulate(acc: dict, c, a, rows) -> None:
    """acc += c * (the sum of t * rows[l] over (l, t) in a), where a and
    each rows[l] are sparse vectors and acc maps an index to a value: an
    int when c and every value are ints, as on integer twins.  With rows
    the sparse columns of a matrix, it adds c times the image of a."""
    for l, t in a:
        r = rows[l]
        if r:
            w = c * t
            for k, u in r:
                acc[k] = acc.get(k, 0) + w * u


@lru_cache(maxsize=256)
def _keyed(key: tuple, names: str) -> tuple:
    """(getter of the key of (p, r) from p + (r,) + consts, consts), once
    per key shape, for p and r indexed by the letters of names."""
    consts = tuple(k for k in key if not isinstance(k, str))
    # a letter at its index; a constant after p + (r,) (equal ones read alike)
    at = [names.index(k) if isinstance(k, str) else len(names) + consts.index(k) for k in key]
    return (itemgetter(*at) if len(at) > 1 else lambda idx, i=at[0]: (idx[i],)), consts


def join(terms) -> "tuple[int, dict]":
    """The sums of the terms of a multilinear law, over nonzero entries
    only, on integer twins.

    A term (key, c, x, xs, y, ys) adds c * t * y[r, l] for every entry (l,
    t) of every x[p] and every r, where c is an int and x and y are integer
    twins (den, view) (see integer_view): x the entries of a table, its
    indices named by the letters of xs, or a tuple of sparse vectors, its
    index named by the letter xs; y a table read at the slot spec ys, "r."
    for y[r, l] or ".r" for y[l, r], or with ys "" a tuple of vectors y[l].
    Each sum goes to the accumulator at key, a sequence of letters and
    constants, with every letter replaced by its index.  This is the join
    of sparse tensor algebra: an entry (l, t) of x[p] meets only the
    nonempty y at l, from y's support, built once off its entries.  A key
    that no product reaches has no entry; its sum is zero by construction.
    A term whose twins have the denominators dx and dy is scaled by scale
    / (dx * dy), scale the lcm of those products over all terms, so every
    accumulator holds scale times its sum, an int.

    Returns (scale, {key tuple: accumulator}).
    """
    terms = list(terms)
    scale = lcm(*[x[0] * y[0] for _, _, x, _, y, _ in terms])
    out = {}
    supports = {}  # (id(y), ys) -> (y, {l: [(r, nonempty vector), ...]})
    for key, c, (dx, x), xs, (dy, y), ys in terms:
        c *= scale // (dx * dy)
        keyed, consts = _keyed(tuple(key), xs + (ys.strip(".") or "_"))
        seen = supports.get((id(y), ys))
        if seen is None:
            support = {} if ys else {l: [(0, v)] for l, v in enumerate(y) if v}
            for (i, j), v in y if ys else ():
                l, r = (i, j) if ys[0] == "." else (j, i)
                support.setdefault(l, []).append((r, v))
            seen = supports[id(y), ys] = (y, support)
        support = seen[1]
        for p, a in x if len(xs) == 2 else [((p,), a) for p, a in enumerate(x) if a]:
            for l, t in a:
                w = c * t
                for r, v in support.get(l, ()):
                    k = keyed(p + (r,) + consts)
                    acc = out.get(k)
                    if acc is None:
                        acc = out[k] = {}
                    for m, u in v:
                        acc[m] = acc.get(m, 0) + w * u
    return scale, out


@dataclass(frozen=True, init=False)
class RatMatrix:
    """Immutable rational matrix, held as the integer twin of its sparse
    columns: zcols = (den, cols), cols[j] den times column j as a sparse
    int vector sorted by index over its nonzero entries, den the lcm of
    the denominators of the entries.  The twin is unique (see canonical),
    so equality and hashing compare ints; the dense row-major grid
    (entries) is a view built on request."""

    rows: int
    cols: int
    zcols: tuple

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence]):
        """The matrix with the dense row-major grid entries, converted once."""
        if len(entries) != rows:
            raise ValueError("row count mismatch")
        if any(len(r) != cols for r in entries):
            raise ValueError("column count mismatch")
        _assign(self, **vars(RatMatrix.from_sparse(rows, integer_view(tuple(
            tuple((i, r[j]) for i, r in enumerate(entries) if r[j]) for j in range(cols)), 1))))

    @classmethod
    def from_sparse(cls, rows: int, zcols) -> "RatMatrix":
        """The matrix with the given number of rows whose columns are the
        sparse int vectors of the integer twin zcols = (den, cols), sorted by
        index over their nonzero values, divided by the positive int den."""
        m = cls.__new__(cls)
        _assign(m, rows=rows, cols=len(zcols[1]), zcols=canonical(zcols, 1))
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls.from_sparse(rows, (1, ((),) * cols))

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls.from_sparse(n, (1, tuple(((i, 1),) for i in range(n))))

    @cached_property
    def entries(self) -> tuple:
        """The dense row-major grid, as Fractions."""
        den, cols = self.zcols
        grid = [[_ZERO] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(cols):
            for i, v in col:
                grid[i][j] = Fraction(v, den)
        return tuple(map(tuple, grid))

    @cached_property
    def _kernel(self) -> "Subspace":
        """The right null space, from the int rows: once per matrix object."""
        return sparse_kernel(self.cols, self.transpose().zcols[1])

    def column(self, j: int) -> tuple:
        den, cols = self.zcols
        return dense(rational(cols[j], den), self.rows)

    def mul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix-matrix shape mismatch")
        return RatMatrix.from_sparse(self.rows, _images(self.zcols, other.zcols))

    def transpose(self) -> "RatMatrix":
        den, cols = self.zcols
        rows = [[] for _ in range(self.rows)]
        for j, col in enumerate(cols):
            for i, v in col:
                rows[i].append((j, v))
        return RatMatrix.from_sparse(self.cols, (den, tuple(map(tuple, rows))))

    def is_zero(self) -> bool:
        return not any(self.zcols[1])


def _primitive(row: dict) -> dict:
    """A nonzero sparse integer row divided by its content."""
    g = gcd(*row.values())
    return row if g == 1 else {k: v // g for k, v in row.items()}


def _integer_rows(m: RatMatrix) -> list:
    """The nonzero rows of m with their denominators cleared, as {column:
    int} dicts with content 1: the columns of the transpose's twin."""
    return [_primitive(dict(r)) for r in m.transpose().zcols[1] if r]


def _cancel(row: dict, piv: dict, c: int) -> dict:
    """(a/g)*row - (b/g)*piv, where a = piv[c], b = row[c], g = gcd(a, b):
    column c cancels.  The result is divided by its content."""
    a, b = piv[c], row[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {k: a * v for k, v in row.items()} if a != 1 else dict(row)
    for k, v in piv.items():
        w = out.get(k, 0) - b * v
        if w:
            out[k] = w
        else:
            del out[k]
    return _primitive(out) if out else out


def _eliminate(rows: list, reduce: bool = True) -> list:
    """Fraction-free elimination of the span of sparse integer rows.

    Returns [(pivot column, row)] in increasing pivot column; each row is
    a sparse {column: int} multiple of an echelon row, with content 1.
    With reduce, the rows are also cleared above each pivot (Gauss-Jordan),
    so row / row[pivot] is the reduced row echelon form.  A pivot is taken
    from the shortest row that leads in its column; the row space, and so
    its reduced echelon form, does not depend on that choice.
    """
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
        done = {}  # last to first: pivot column -> reduced row, no other pivot in it
        for i in range(len(echelon) - 1, -1, -1):
            c, row = echelon[i]
            for k in done.keys() & row.keys():
                row = _cancel(row, done[k], k)
            done[c], echelon[i] = row, (c, row)
    return echelon


def rank(m: RatMatrix) -> int:
    """The rank of m, read off its int columns."""
    return integer_rank(dict(c) for c in m.zcols[1])


@dataclass(frozen=True)
class Subspace:
    """A subspace of QQ^ambient_dim, held as its canonical rows: zrows[i]
    is RREF row i times the positive int that makes it primitive, a sparse
    int vector sorted by index whose first entry is a positive one at
    pivots[i].  The form is unique, so equality and hashing compare ints.
    The dense basis and its integer twin (zbasis) are views built on
    request; every operation reads the rows."""

    ambient_dim: int
    pivots: tuple
    zrows: tuple

    @classmethod
    def _spanned(cls, ambient_dim: int, rows: list) -> "Subspace":
        """The span of sparse {column: int} rows with content 1, straight
        from the elimination (see _eliminate)."""
        echelon = _eliminate(rows)
        return cls(ambient_dim, tuple(c for c, _ in echelon), tuple(
            tuple(sorted(row.items() if row[c] > 0 else [(k, -v) for k, v in row.items()]))
            for c, row in echelon))

    @classmethod
    def from_integer_rows(cls, ambient_dim: int, rows: Iterable) -> "Subspace":
        """The span of sparse int vectors ((index, int), ...) with nonzero
        values and indices below ambient_dim, zero vectors allowed; each
        is made primitive, and rows equal up to sign go to the elimination
        once, with no Fraction."""
        out = {}
        for r in rows:
            if r:
                r = _primitive(dict(r))
                out.setdefault(frozenset(r.items()) if r[min(r)] > 0 else
                               frozenset((k, -v) for k, v in r.items()), r)
        return cls._spanned(ambient_dim, list(out.values()))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, tuple(range(ambient_dim)),
                   tuple(((i, 1),) for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @cached_property
    def basis(self) -> RatMatrix:
        """The reduced row echelon form, the transpose of the columns zbasis."""
        return RatMatrix.from_sparse(self.ambient_dim, self.zbasis).transpose()

    @cached_property
    def zbasis(self) -> "tuple[int, tuple]":
        """The integer twin (den, rows) of the canonical basis: den is the
        lcm of the pivot entries of zrows, and rows[i] is den times RREF
        row i, so coordinates read at the pivots share one denominator."""
        den = lcm(*[row[0][1] for row in self.zrows])
        return den, tuple(row if row[0][1] == den else
                          tuple([(k, v * (den // row[0][1])) for k, v in row])
                          for row in self.zrows)

    @cached_property
    def _row_at(self) -> dict:
        """{pivots[i]: i}, to read coordinates off a vector's own entries."""
        return {p: i for i, p in enumerate(self.pivots)}

    def _split(self, v) -> "tuple[tuple, dict]":
        """The coordinates of the sorted sparse vector v along the canonical
        basis (its entries at the pivots) and den times its residual, den of
        zbasis, as an accumulator: zero exactly when v lies in the subspace."""
        den, rows = self.zbasis
        at = self._row_at
        coords = tuple((at[k], t) for k, t in v if k in at)
        residual = {k: den * t for k, t in v}
        accumulate(residual, -1, coords, rows)
        return coords, residual

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return not any(any(self._split(r)[1].values()) for r in other.zrows)

    def add(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace._spanned(self.ambient_dim,
                                 [dict(r) for r in self.zrows + other.zrows])

def _image(a, columns) -> dict:
    """The image of the sparse vector a under the linear map whose column
    l is the sparse vector columns[l], as an accumulator (an int one on
    int vectors)."""
    acc = {}
    accumulate(acc, 1, a, columns)
    return acc


def _plus(u, v, a: int = 1, b: int = 1) -> tuple:
    """a * u + b * v for sparse int vectors u and v, as a sparse vector
    sorted by index over its nonzero entries."""
    return _row(_image(((0, a), (1, b)), (u, v)))


def _images(cols, twin) -> tuple:
    """The integer twin of the images of the sparse vectors of the twin
    under the linear map whose sparse columns have the integer twin cols."""
    (dc, cs), (dv, vs) = cols, twin
    return dc * dv, tuple(_row(_image(v, cs)) for v in vs)


def _restriction(s: Subspace, twin) -> "tuple | None":
    """The integer twin (den, coordinates) of the coordinates in the
    canonical basis of s of the vectors of the integer twin (den,
    vectors), or None when one of them is not in s.  The coordinate along
    basis row i is the entry at the i-th pivot, and each vector's
    residual (minus the coordinates times the basis) is read once, on ints."""
    den, vectors = twin
    split = [s._split(v) for v in vectors]
    if any(any(residual.values()) for _, residual in split):
        return None
    return den, tuple(coords for coords, _ in split)


def kernel(m: RatMatrix) -> Subspace:
    """Basis of the right null space {v : m v = 0}, cached on m."""
    return m._kernel


def sparse_kernel(cols: int, rows: Iterable) -> Subspace:
    """The right null space of the matrix with cols columns whose nonzero
    rows are the sparse int vectors rows ((column, int), ...), with
    nonzero values; they go to the elimination made primitive, without a
    dense copy or a Fraction."""
    echelon = _eliminate([_primitive(dict(r)) for r in rows if r])
    pivots = {c for c, _ in echelon}
    out = []
    for f in range(cols):
        if f in pivots:
            continue
        # e_f - sum of row[f] / row[c] * e_c over the pivot rows, times
        # the lcm of those row[c] so that its entries are integers
        terms = [(c, row[f], row[c]) for c, row in echelon if f in row]
        scale = lcm(*[a for _, _, a in terms])
        v = {f: scale}
        for c, b, a in terms:
            v[c] = -b * (scale // a)
        out.append(_primitive(v))
    return Subspace._spanned(cols, out)


def integer_rank(rows: Iterable) -> int:
    """The rank of the matrix whose rows are the sparse integer rows
    {column: int} of rows, zero rows allowed; each goes to the
    elimination made primitive, without a dense copy or a Fraction."""
    return len(_eliminate([_primitive(r) for r in rows if r], reduce=False))


def column_space(m: RatMatrix) -> Subspace:
    """Image of the linear map represented by m (span of its columns)."""
    return Subspace.from_integer_rows(m.rows, m.zcols[1])


@dataclass(frozen=True)
class QuotientMap:
    """Quotient of QQ^ambient_dim by a relation subspace, as one sparse map.

    The quotient basis is the classes of the free columns, the columns
    without a pivot in the relations' canonical RREF, so structure
    constants computed through a QuotientMap are reproducible.  The image
    of ambient column c in quotient coordinates is e_k for the k-th free
    column, and minus pivot row i of the RREF restricted to the free
    columns for the pivot column of row i.  The image of v is then v's
    free part minus the pivot rows' combination at v's pivot
    coordinates, which is the free part of v reduced by the relations; so
    the kernel is exactly the relation subspace, and lifting e_k is the
    ambient unit at free[k].  The map holds the images as an integer
    twin, zimages = (den, den * images), read off the relations' zbasis
    (den the lcm of the pivot entries of their canonical rows,
    relations.zrows), and a value is divided only when it leaves as a
    quotient-level Fraction.
    """

    ambient_dim: int
    relations: Subspace
    free: tuple
    zimages: tuple

    @property
    def dim(self) -> int:
        return len(self.free)

    def integer_image(self, a) -> dict:
        """den times the image of the sparse vector a, for den of zimages,
        as an accumulator: an int one when a has int values."""
        return _image(a, self.zimages[1])

    def kills(self, a) -> bool:
        """Whether the sparse vector a lies in the relation subspace; with
        int values, a pure int test."""
        return not any(self.integer_image(a).values())

    @cached_property
    def projection(self) -> RatMatrix:
        """The dim x ambient matrix of the projection."""
        return RatMatrix.from_sparse(self.dim, self.zimages)

    @cached_property
    def section(self) -> RatMatrix:
        """The ambient x dim matrix sending e_k to the ambient unit at free[k]."""
        return RatMatrix.from_sparse(self.ambient_dim, (1, tuple(((f, 1),) for f in self.free)))


def quotient(ambient_dim: int, r: Subspace) -> QuotientMap:
    if r.ambient_dim != ambient_dim:
        raise ValueError("relation subspace lives in a different ambient space")
    pivset = set(r.pivots)
    free = tuple(c for c in range(ambient_dim) if c not in pivset)
    position = {f: k for k, f in enumerate(free)}
    den, rows = r.zbasis
    images = [None] * ambient_dim
    for k, f in enumerate(free):
        images[f] = ((k, den),)
    for p, row in zip(r.pivots, rows):
        images[p] = tuple((position[c], -t) for c, t in row if c != p)
    return QuotientMap(ambient_dim, r, free, (den, tuple(images)))


def solve_matrix(m: RatMatrix, rhs: RatMatrix) -> RatMatrix:
    """Columnwise solve of m X = rhs (free variables zero in every column).

    One elimination of [m | rhs]: the system is consistent exactly when no
    pivot lands in the rhs block, and then column j of X is read off the
    pivot rows, as the rref of [m | column j] would give it.
    """
    if rhs.rows != m.rows:
        raise ValueError("right-hand side row mismatch")
    n = m.cols
    (dm, cm), (dr, cr) = m.zcols, rhs.zcols
    aug = RatMatrix.from_sparse(m.rows, (dm * dr, tuple(
        [_scaled(c, dr) for c in cm] + [_scaled(c, dm) for c in cr])))
    echelon = _eliminate(_integer_rows(aug))
    if any(c >= n for c, _ in echelon):
        raise ValueError("inconsistent linear system")
    # X[c][j] = row[n + j] / row[c] on the pivot row of column c, at one scale
    den = lcm(*[row[c] for c, row in echelon])
    x = [[] for _ in range(rhs.cols)]
    for c, row in echelon:
        for k, v in row.items():
            if k >= n:
                x[k - n].append((c, v * (den // row[c])))
    return RatMatrix.from_sparse(n, (den, tuple(map(tuple, x))))
