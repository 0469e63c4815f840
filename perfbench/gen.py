"""Seeded inputs for the benchmark, written as leibxmod fixture files.

Standard library only: the inputs must not depend on the program they
measure.  Every algebra class is given by sparse structure constants in
a basis where its centre and derived algebra are spanned by basis
vectors, so the facts the output checks need (dim [q,q], which sub-pairs
are central, which extensions are stem) are known by construction.  A
unimodular change of basis then densifies each input (see unimodular
for what the seed decides), and a draw whose structure equals one
already drawn in the run is refused, so no job can reuse a result the
program cached for an earlier one.
"""

import json
import random
from fractions import Fraction

ONE = Fraction(1)
ZERO = Fraction(0)

# Transvections per densifying change of basis: enough to fill the
# tables, few enough that a dimension-5 hl(q, 3) stays within seconds.
TRANSVECTIONS = 2


# -- small exact linear algebra ---------------------------------------------------

def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO)
             for j in range(len(b[0]) if b else 0)] for i in range(len(a))]


def matvec(m, v):
    return [sum((m[i][k] * v[k] for k in range(len(v))), ZERO)
            for i in range(len(m))]


def bilinear_change(t, x, y, zinv):
    """t'[i][j] = zinv . sum_ab x[a][i] y[b][j] t[a][b]: a bilinear table
    (vectors in some space) after changing the bases of both arguments
    and of the values."""
    n_out = len(zinv)
    out = []
    for i in range(len(x[0]) if x else 0):
        row = []
        for j in range(len(y[0]) if y else 0):
            acc = [ZERO] * n_out
            for a in range(len(x)):
                if x[a][i]:
                    for b in range(len(y)):
                        if y[b][j]:
                            s = x[a][i] * y[b][j]
                            for k, v in enumerate(t[a][b]):
                                if v:
                                    acc[k] += s * v
            row.append(matvec(zinv, acc))
        out.append(row)
    return out


def transvections(n, rng):
    """A product of TRANSVECTIONS elementary matrices and its inverse."""
    g, ginv = identity(n), identity(n)
    if n < 2:
        return g, ginv
    for _ in range(TRANSVECTIONS):
        i, j = rng.sample(range(n), 2)
        lam = Fraction(rng.choice((-1, 1)))
        e, einv = identity(n), identity(n)
        e[i][j], einv[i][j] = lam, -lam
        g, ginv = matmul(g, e), matmul(einv, ginv)
    return g, ginv


def unimodular(n, fixed, rng):
    """G = D S and its inverse: D densifies and comes from the job slot's
    own stream `fixed`, the same in every run; S flips the signs of basis
    vectors as the seed draws them.  Each seed so gives other inputs, on
    which exact elimination does the same work: a run's cost does not
    depend on its seed.  (A seeded permutation of the basis instead made
    single hl(q, 3) jobs vary from 1.0 to 3.3 s.)"""
    d, dinv = transvections(n, fixed)
    signs = [Fraction(rng.choice((-1, 1))) for _ in range(n)]
    return ([[x * s for x, s in zip(row, signs)] for row in d],
            [[x * s for x in row] for row, s in zip(dinv, signs)])


# -- algebra classes --------------------------------------------------------------

class Algebra:
    """Structure constants c[i][j] = [e_i, e_j] in a basis where each
    bracket of basis vectors is a multiple of one basis vector."""

    def __init__(self, name, dim, brackets, lie):
        self.name, self.dim = name, dim
        self.c = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        for i, j, k, x in brackets:
            self.c[i][j][k] += Fraction(x)
            if lie:
                self.c[j][i][k] -= Fraction(x)
        for row in self.c:
            for v in row:
                if sum(1 for x in v if x) > 1:
                    raise ValueError(f"{name}: brackets must be coordinate")
        self.derived = sorted({k for row in self.c for v in row
                               for k, x in enumerate(v) if x})


def direct_sum(name, *parts):
    brackets, off = [], 0
    for p in parts:
        for i in range(p.dim):
            for j in range(p.dim):
                for k, x in enumerate(p.c[i][j]):
                    if x:
                        brackets.append((i + off, j + off, k + off, x))
        off += p.dim
    return Algebra(name, off, brackets, lie=False)


def abelian(n):
    return Algebra(f"k{n}", n, [], lie=True)


N2 = Algebra("n2", 2, [(0, 0, 1, 1)], lie=False)          # [e1,e1] = e2
HEIS3 = Algebra("heis3", 3, [(0, 1, 2, 1)], lie=True)      # [x,y] = z
HEIS5 = Algebra("heis5", 5, [(0, 1, 4, 1), (2, 3, 4, 1)], lie=True)
SL2 = Algebra("sl2", 3, [(0, 1, 2, 1), (2, 0, 0, 2), (2, 1, 1, -2)], lie=True)
# null-filiform Leibniz algebras: [e_i, e1] = e_{i+1}, generated by e1
NF3 = Algebra("nf3", 3, [(i, 0, i + 1, 1) for i in range(2)], lie=False)
NF4 = Algebra("nf4", 4, [(i, 0, i + 1, 1) for i in range(3)], lie=False)
NF5 = Algebra("nf5", 5, [(i, 0, i + 1, 1) for i in range(4)], lie=False)

CLASSES = {a.name: a for a in [
    N2, HEIS3, HEIS5, NF3, NF4, NF5,
    direct_sum("heis3+k1", HEIS3, abelian(1)),
    direct_sum("heis3+k2", HEIS3, abelian(2)),
    direct_sum("sl2+k1", SL2, abelian(1)),
    direct_sum("sl2+k2", SL2, abelian(2)),
    direct_sum("n2+k1", N2, abelian(1)),
    direct_sum("n2+heis3", N2, HEIS3),
]}


# -- crossed modules in sparse coordinates ---------------------------------------

class XMod:
    """A crossed module by tables: top and base brackets, delta (base x top),
    left[i][j] = ^{b_i} t_j and right[j][i] = t_j^{b_i}, both in the top."""

    def __init__(self, top, base, delta, left, right, same_basis=False,
                 ideal=None):
        self.top, self.base = top, base
        self.delta, self.left, self.right = delta, left, right
        self.same_basis = same_basis  # (q, q, id): one change for both
        self.ideal = ideal            # base coordinate of each top coordinate

    @property
    def dims(self):
        return len(self.top), len(self.base)


def adjoint(a):
    return XMod(a.c, a.c, identity(a.dim), a.c,
                [[a.c[j][i] for i in range(a.dim)] for j in range(a.dim)],
                same_basis=True)


def inclusion(a, coords):
    """(n, q, incl) for the ideal n spanned by the basis vectors `coords`."""
    pos = {k: t for t, k in enumerate(coords)}

    def restrict(v):
        if any(x for k, x in enumerate(v) if k not in pos):
            raise ValueError(f"{a.name}: {coords} is not an ideal")
        return [v[k] for k in coords]
    top = [[restrict(a.c[i][j]) for j in coords] for i in coords]
    delta = [[ONE if k == coords[t] else ZERO for t in range(len(coords))]
             for k in range(a.dim)]
    left = [[restrict(a.c[i][j]) for j in coords] for i in range(a.dim)]
    right = [[restrict(a.c[j][i]) for i in range(a.dim)] for j in coords]
    return XMod(top, a.c, delta, left, right, ideal=list(coords))


def zero_over(a):
    """(0, q, i)."""
    return XMod([], a.c, [[] for _ in range(a.dim)],
                [[] for _ in range(a.dim)], [])


def padded(x, top_pad, base_pad):
    """x plus an abelian pair (k^top_pad, k^base_pad) acting trivially."""
    dt, db = x.dims
    nt, nb = dt + top_pad, db + base_pad

    def pad_table(t, rows, cols, inner_r, inner_c, out):
        return [[(list(t[i][j]) + [ZERO] * (out - len(t[i][j]))
                  if i < inner_r and j < inner_c else [ZERO] * out)
                 for j in range(cols)] for i in range(rows)]
    delta = [[x.delta[i][j] if i < db and j < dt else ZERO for j in range(nt)]
             for i in range(nb)]
    return XMod(pad_table(x.top, nt, nt, dt, dt, nt),
                pad_table(x.base, nb, nb, db, db, nb), delta,
                pad_table(x.left, nb, nt, db, dt, nt),
                pad_table(x.right, nt, nb, dt, db, nt))


def _support(vectors):
    return {k for v in vectors for k, x in enumerate(v) if x}


def derived_pair(x):
    """Coordinates spanning the derived pair: action values in the top,
    brackets in the base (all tables here are coordinate)."""
    return (_support(v for row in x.left for v in row)
            | _support(v for row in x.right for v in row),
            _support(v for row in x.base for v in row))


def centre_pair(x):
    """Coordinates inside the centre: top vectors the base annihilates,
    central base vectors acting trivially."""
    dt, db = x.dims
    top = {j for j in range(dt)
           if not any(any(x.left[i][j]) or any(x.right[j][i]) for i in range(db))}
    base = {i for i in range(db)
            if not any(any(x.base[i][k]) or any(x.base[k][i]) for k in range(db))
            and not any(any(x.left[i][j]) or any(x.right[j][i])
                        for j in range(dt))}
    return top, base


def quotient(x, ker_top, ker_base):
    """Quotient by a central crossed ideal spanned by basis vectors, with
    the coordinate projections."""
    kt = [j for j in range(x.dims[0]) if j not in ker_top]
    kb = [i for i in range(x.dims[1]) if i not in ker_base]

    def tab(t, rows, cols, keep):
        return [[[t[r][c][k] for k in keep] for c in cols] for r in rows]
    q = XMod(tab(x.top, kt, kt, kt), tab(x.base, kb, kb, kb),
             [[x.delta[i][j] for j in kt] for i in kb],
             tab(x.left, kb, kt, kt), tab(x.right, kt, kb, kt),
             same_basis=x.same_basis and kt == kb)
    proj_t = [[ONE if j == keep else ZERO for j in range(x.dims[0])] for keep in kt]
    proj_b = [[ONE if i == keep else ZERO for i in range(x.dims[1])] for keep in kb]
    return q, proj_t, proj_b


def change_basis(x, fixed, rng):
    """x in new unimodular bases of top and base, with the matrices
    (columns are the new basis vectors in old coordinates)."""
    dt, db = x.dims
    k, kinv = unimodular(dt, fixed, rng)
    g, ginv = unimodular(db, fixed, rng)
    if x.same_basis:
        k, kinv = g, ginv
    out = XMod(bilinear_change(x.top, k, k, kinv),
               bilinear_change(x.base, g, g, ginv),
               matmul(matmul(ginv, x.delta), k) if dt else [[] for _ in range(db)],
               bilinear_change(x.left, g, k, kinv) if dt else [[] for _ in range(db)],
               bilinear_change(x.right, k, g, kinv), same_basis=x.same_basis)
    return out, (k, kinv), (g, ginv)


# -- fixture documents ------------------------------------------------------------

def _names(prefix, n):
    return [f"{prefix}{i + 1}" for i in range(n)]


def _sparse_vec(v, names):
    return {names[k]: str(x) for k, x in enumerate(v) if x}


def _sparse_table(t, rows, cols, out):
    doc = {}
    for i, rn in enumerate(rows):
        row = {cols[j]: _sparse_vec(v, out) for j, v in enumerate(t[i]) if any(v)}
        if row:
            doc[rn] = row
    return doc


def _sparse_cols(m, src, tgt):
    """m is tgt x src; the document maps each source name to its image."""
    doc = {}
    for j, sn in enumerate(src):
        col = {tgt[i]: str(m[i][j]) for i in range(len(tgt)) if m[i][j]}
        if col:
            doc[sn] = col
    return doc


def algebra_doc(name, c):
    basis = _names("e", len(c))
    return {"kind": "algebra", "name": name, "dim": len(c), "basis": basis,
            "brackets": _sparse_table(c, basis, basis, basis)}


def _xmod_names(x):
    if x.same_basis:
        names = _names("e", x.dims[0])
        return names, names
    return _names("t", x.dims[0]), _names("b", x.dims[1])


def xmod_doc(name, x):
    """An adjoint crossed module is written as users write (q, q, id):
    one algebra for top and base, and the name the program gives it."""
    tn, bn = _xmod_names(x)
    if x.same_basis:
        top = base = algebra_doc(name, x.base)
        name = f"({name},{name},id)"
    else:
        top = {"kind": "algebra", "name": f"{name}.top", "dim": len(tn),
               "basis": tn, "brackets": _sparse_table(x.top, tn, tn, tn)}
        base = {"kind": "algebra", "name": f"{name}.base", "dim": len(bn),
                "basis": bn, "brackets": _sparse_table(x.base, bn, bn, bn)}
    action = {"kind": "action", "name": f"{name}.action", "actor": base,
              "acted": top, "left": _sparse_table(x.left, bn, tn, tn),
              "right": _sparse_table(x.right, tn, bn, tn)}
    return {"kind": "xmod", "name": name, "top": top, "base": base,
            "delta": _sparse_cols(x.delta, tn, bn), "action": action}


def extension_doc(name, total, quotient_x, proj_t, proj_b):
    (tt, tb), (qt, qb) = _xmod_names(total), _xmod_names(quotient_x)
    return {"kind": "extension", "name": name,
            "total": xmod_doc(f"{name}.total", total),
            "quotient": xmod_doc(f"{name}.quotient", quotient_x),
            "projection": {"top_map": _sparse_cols(proj_t, tt, qt),
                           "base_map": _sparse_cols(proj_b, tb, qb)}}


def write(path, doc):
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")


def write_twin(job):
    """The job's input under other names, as a separate file: equal in
    structure, but a different key for every cache in the program."""
    path = job["path"]
    twin = path.with_name(f"{path.stem}.twin{path.suffix}")
    text = path.read_text(encoding="utf-8")
    twin.write_text(text.replace(job["name"], job["name"] + "~"),
                    encoding="utf-8")
    return twin


def _key(doc):
    """The structure of a document, without its names."""
    def strip(d):
        if isinstance(d, dict):
            return {k: strip(v) for k, v in d.items() if k != "name"}
        return d
    return json.dumps(strip(doc), sort_keys=True)


# -- workloads --------------------------------------------------------------------
#
# One round of each workload.  Counts are chosen so that the median job
# sits inside the largest cost class, never at the seam between two.

def spread(counts):
    """Items repeated by count, each spread evenly over the list, so that
    every class meets every phase of the host's speed during a run."""
    slots = [((i + 0.5) / n, k, item) for k, (item, n) in enumerate(counts)
             for i in range(n)]
    return [item for _, _, item in sorted(slots)]


# squares: (q, q, id) on dimension 4 and 5; heis3+k1 (about 1 s) holds
# the median, sl2+k1 and nf4 (about 0.5 s) sit below it, heis5 (about
# 4 s) above.
SQUARES = spread([("sl2+k1", 2), ("nf4", 2), ("heis3+k1", 12), ("heis5", 2)])

# homology: hl(q, 3) on dimension 5, Lie and non-Lie.
HOMOLOGY = spread([(c, 3) for c in ("heis5", "nf5", "sl2+k2", "heis3+k2",
                                    "n2+heis3")])

# extensions: (kind, algebra, kernel rule).  The kernel is a
# central sub-pair, inside the derived pair for "stem" and outside it for
# "nonstem"; "split" pads the crossed module with an abelian pair and
# projects the pad away.  Totals of dimension 3 (0.2 to 0.5 s) hold the
# median; dimension 2 (0.06 s) sits below, dimension 4 (0.6 to 2 s) above.
EXTENSIONS = spread([
    (("adjoint", "n2", "stem"), 2), (("zero", "n2", "stem"), 2),
    (("zero", "nf3", "stem"), 3), (("zero", "heis3", "stem"), 3),
    (("zero", "n2+k1", "nonstem"), 3),
    (("adjoint", "heis3", "stem"), 5), (("adjoint", "nf3", "stem"), 5),
    (("adjoint", "n2+k1", "stem"), 5), (("adjoint", "n2+k1", "nonstem"), 5),
    (("inclusion", "heis3", "stem"), 5), (("inclusion", "nf3", "stem"), 5),
    (("split", "n2", "nonstem"), 5),
    (("zero", "heis3+k1", "stem"), 2), (("adjoint", "heis3+k1", "nonstem"), 1),
    (("inclusion", "heis3+k1", "nonstem"), 1), (("split", "heis3", "nonstem"), 1),
])

# ideals used by the inclusion kind, by algebra: basis coordinates
IDEALS = {"heis3": [0, 2], "nf3": [1, 2], "heis3+k1": [0, 2, 3]}


class Draws:
    """The seeded draws of one run; refuses any input whose structure
    equals one drawn before in the run."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.seen = set()

    def fresh(self, slot, make):
        """make(fixed, rng) -> (doc, key doc, facts); `fixed` is the slot's
        own stream, the same for every seed."""
        for attempt in range(1000):
            # a collision redraws the seeded part first, the slot's later
            fixed = random.Random(f"{slot}/{attempt // 50}")
            doc, key_doc, facts = make(fixed, self.rng)
            key = _key(key_doc)
            if key not in self.seen:
                self.seen.add(key)
                return doc, facts
        raise RuntimeError(f"{slot}: no fresh input left")


def squares_jobs(draws, out_dir, classes=SQUARES):
    jobs = []
    for n, cls in enumerate(classes):
        a = CLASSES[cls]

        def make(fixed, rng, a=a, n=n):
            x, _, _ = change_basis(adjoint(a), fixed, rng)
            doc = xmod_doc(f"sq{n:02d}.{a.name}", x)
            return doc, doc, {"class": a.name, "derived_dim": len(a.derived)}
        doc, facts = draws.fresh(f"squares/{n}", make)
        path = out_dir / f"sq{n:02d}.xmod"
        write(path, doc)
        jobs.append({"kind": "squares", "name": doc["base"]["name"],
                     "path": path, "facts": facts,
                     "algebra": _algebra_of(doc["base"])})
    return jobs


def homology_jobs(draws, out_dir, classes=HOMOLOGY):
    jobs = []
    for n, cls in enumerate(classes):
        a = CLASSES[cls]

        def make(fixed, rng, a=a, n=n):
            g, ginv = unimodular(a.dim, fixed, rng)
            doc = algebra_doc(f"hl{n:02d}.{a.name}",
                              bilinear_change(a.c, g, g, ginv))
            return doc, doc, {"class": a.name}
        # one densifying change per class: the jobs of a class cost the
        # same, so the median job cannot fall between two of them
        doc, facts = draws.fresh(f"homology/{cls}", make)
        path = out_dir / f"hl{n:02d}.algebra"
        write(path, doc)
        jobs.append({"kind": "homology", "name": doc["name"], "path": path,
                     "facts": facts, "algebra": _algebra_of(doc),
                     "parent": a.c})
    return jobs


def _extension_total(kind, a):
    if kind in ("adjoint", "split"):
        return adjoint(a)
    if kind == "zero":
        return zero_over(a)
    return inclusion(a, IDEALS[a.name])


def extension_jobs(draws, out_dir, specs=EXTENSIONS):
    jobs = []
    for n, (kind, cls, rule) in enumerate(specs):
        a = CLASSES[cls]

        def make(fixed, rng, kind=kind, a=a, rule=rule, n=n):
            x = _extension_total(kind, a)
            if kind == "split":
                pad_t, pad_b = fixed.choice(((1, 1), (1, 0), (0, 1)))
                total = padded(x, pad_t, pad_b)
                ker_t = set(range(x.dims[0], total.dims[0]))
                ker_b = set(range(x.dims[1], total.dims[1]))
            else:
                total = x
                ker_t, ker_b = _central_kernel(kind, total, rule, fixed)
            q, proj_t, proj_b = quotient(total, ker_t, ker_b)
            dt, (k, _), (g, _) = change_basis(total, fixed, rng)
            dq, (_, k2inv), (_, g2inv) = change_basis(q, fixed, rng)
            pt = matmul(matmul(k2inv, proj_t), k) if q.dims[0] else []
            pb = matmul(matmul(g2inv, proj_b), g)
            name = f"ex{n:02d}.{kind}.{a.name}"
            der_t, der_b = derived_pair(total)
            facts = {"kind": kind, "class": a.name,
                     "kernel_dims": [len(ker_t), len(ker_b)],
                     "stem": ker_t <= der_t and ker_b <= der_b}
            doc = extension_doc(name, dt, dq, pt, pb)
            return doc, doc["total"], facts
        doc, facts = draws.fresh(f"extensions/{n}", make)
        path = out_dir / f"ex{n:02d}.extension"
        write(path, doc)
        facts["quotient_base"] = _algebra_of(doc["quotient"]["base"])
        jobs.append({"kind": "extensions", "name": doc["name"], "path": path,
                     "facts": facts})
    return jobs


def _central_kernel(kind, x, rule, rng):
    """A central crossed ideal on basis coordinates: inside the derived
    pair for rule "stem", not inside it for "nonstem"."""
    zt, zb = centre_pair(x)
    dt, db = derived_pair(x)
    if kind == "zero":
        pool = sorted(zb & db) if rule == "stem" else sorted(zb - db)
        return set(), {rng.choice(pool)}
    if kind == "adjoint":
        pool = sorted(zb & db) if rule == "stem" else sorted(zb - db)
        k = {rng.choice(pool)}
        if rule == "nonstem" and rng.random() < 0.5:
            k |= zb
        return k, set(k)
    # inclusion: delta maps top coordinate t to base coordinate ideal[t],
    # so the top kernel {t} needs {ideal[t]} in the base kernel
    pool = [t for t in sorted(zt) if x.ideal[t] in zb
            and ((t in dt and x.ideal[t] in db) if rule == "stem"
                 else t not in dt)]
    t = rng.choice(pool)
    return {t}, {x.ideal[t]}


def _algebra_of(doc):
    """Structure constants of an algebra document, for the checks."""
    basis = doc["basis"]
    d = len(basis)
    idx = {b: i for i, b in enumerate(basis)}
    c = [[[ZERO] * d for _ in range(d)] for _ in range(d)]
    for rn, row in doc["brackets"].items():
        for cn, v in row.items():
            for k, x in v.items():
                c[idx[rn]][idx[cn]][idx[k]] = Fraction(x)
    return c
