"""Shared constructions for the test suite: standard algebras, a seeded
random generator of valid Leibniz algebras, and a seeded corpus of central
extensions over them (central_extension_corpus).

The random generator works by relation-solving: it fixes a valid base
algebra B from a small catalogue, appends a central annihilating socle
T, and solves the Leibniz identity for the unknown extension cocycle
w: B x B -> T.  For that ansatz the identity is linear in w (the socle
kills every product of two unknowns), so the solution space is the
kernel of an exact rational constraint matrix; a random point of it is
a valid algebra by construction, and a random unimodular change of
basis densifies the table without changing validity.
"""

import json
import os
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from _dense import from_rows, span, unit_vec, zero_vec
from _reference_checks import _bracket, _mul_vec
from _reference_grid import grid, sparse_table
import leibxmod
from leibxmod import algebra, xmod
from leibxmod.algebra import LeibnizAction, LeibnizAlgebra, check_leibniz
from leibxmod.extensions import Extension
from leibxmod.ratlin import (
    RatMatrix,
    Subspace,
    _primitive,
    dense,
    kernel,
    rational,
)
from leibxmod.tensor import _legs, _representatives, _symbols
from leibxmod.xmod import CrossedModule, SubPair, XModHom, center_xmod


def k_abelian(n, name=None):
    return LeibnizAlgebra.abelian(name or f"k{n}", n)


def zero_algebra():
    return LeibnizAlgebra("zero", 0, (), ())


def n2():
    z = zero_vec(2)
    c = (((Fraction(0), Fraction(1)), z), (z, z))
    return LeibnizAlgebra("n2", 2, ("e1", "e2"), c)


def heis3():
    z = zero_vec(3)
    zvec = (Fraction(0), Fraction(0), Fraction(1))
    nzvec = (Fraction(0), Fraction(0), Fraction(-1))
    c = (
        (z, zvec, z),
        (nzvec, z, z),
        (z, z, z),
    )
    return LeibnizAlgebra("heis3", 3, ("x", "y", "z"), c)


def sl2():
    def v(*xs):
        return tuple(Fraction(x) for x in xs)
    # basis e, f, h with [e,f]=h, [h,e]=2e, [h,f]=-2f, antisymmetric
    c = (
        (v(0, 0, 0), v(0, 0, 1), v(-2, 0, 0)),
        (v(0, 0, -1), v(0, 0, 0), v(0, 2, 0)),
        (v(2, 0, 0), v(0, -2, 0), v(0, 0, 0)),
    )
    return LeibnizAlgebra("sl2", 3, ("e", "f", "h"), c)


def bad_dim1():
    c = (((Fraction(1),),),)
    return LeibnizAlgebra("bad1", 1, ("e",), c)


def r2_nonlie():
    """Non-Lie dim 2 with [e2,e1] = e2 (and no other products)."""
    z = zero_vec(2)
    c = ((z, z), ((Fraction(0), Fraction(1)), z))
    return LeibnizAlgebra("r2", 2, ("e1", "e2"), c)


def sol2_lie():
    """Solvable Lie dim 2: [e1,e2] = e2 = -[e2,e1]."""
    z = zero_vec(2)
    c = ((z, (Fraction(0), Fraction(1))), ((Fraction(0), Fraction(-1)), z))
    return LeibnizAlgebra("sol2", 2, ("e1", "e2"), c)


_CATALOGUE = {1: [k_abelian(1)], 2: [k_abelian(2), n2(), r2_nonlie(), sol2_lie()]}


def _cocycle_solutions(base):
    """Kernel of the linearized Leibniz constraint on w: B x B -> K."""
    b = base.dim
    nvars = b * b
    rows = []
    for i in range(b):
        for j in range(b):
            for k in range(b):
                row = [Fraction(0)] * nvars
                for q in range(b):
                    row[i * b + q] += base.c[j][k][q]       # w(e_i, [e_j,e_k])
                for p in range(b):
                    row[p * b + k] -= base.c[i][j][p]       # w([e_i,e_j], e_k)
                    row[p * b + j] += base.c[i][k][p]       # w([e_i,e_k], e_j)
                rows.append(row)
    return kernel(from_rows(rows, cols=nvars))


def _central_extension(base, socle_dim, rng, name):
    b, t, d = base.dim, socle_dim, base.dim + socle_dim
    sol = _cocycle_solutions(base)
    omega = [[zero_vec(t) for _ in range(b)] for _ in range(b)]
    for s in range(t):
        point = [Fraction(0)] * (b * b)
        for kvec in sol.basis.entries:
            a = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            for idx, x in enumerate(kvec):
                point[idx] += a * x
        for i in range(b):
            for j in range(b):
                row = list(omega[i][j])
                row[s] = point[i * b + j]
                omega[i][j] = tuple(row)
    c = []
    for i in range(d):
        crow = []
        for j in range(d):
            if i < b and j < b:
                crow.append(tuple(base.c[i][j]) + omega[i][j])
            else:
                crow.append(zero_vec(d))
        c.append(tuple(crow))
    names = tuple(f"e{i+1}" for i in range(d))
    return LeibnizAlgebra(name, d, names, tuple(c))


def _change_basis(a, rng):
    """Conjugate by a random product of elementary matrices (unimodular)."""
    d = a.dim
    if d < 2:
        return a
    g = RatMatrix.identity(d)
    ginv = RatMatrix.identity(d)
    for _ in range(rng.randint(1, 2)):
        i, j = rng.sample(range(d), 2)
        lam = Fraction(rng.choice([-1, 1, 2]))
        e = [[Fraction(1 if r == c else 0) for c in range(d)] for r in range(d)]
        e[i][j] = lam
        einv = [[Fraction(1 if r == c else 0) for c in range(d)] for r in range(d)]
        einv[i][j] = -lam
        g = g.mul(from_rows(e))
        ginv = from_rows(einv).mul(ginv)
    c = tuple(
        tuple(_mul_vec(ginv, _bracket(a, g.column(i), g.column(j))) for j in range(d))
        for i in range(d))
    return LeibnizAlgebra(a.name + "'", d, a.basis_names, c)


def random_leibniz_corpus(count=12, seed=20260817):
    """Deterministic list of `count` random valid Leibniz algebras, dim <= 3."""
    rng = random.Random(seed)
    out = []
    recipes = []
    for i in range(count):
        if i % 3 == 0:
            recipes.append((rng.choice(_CATALOGUE[1]), rng.choice([1, 2])))
        else:
            recipes.append((rng.choice(_CATALOGUE[2]), 1))
    for idx, (base, socle) in enumerate(recipes):
        alg = _central_extension(base, socle, rng, f"rand{idx+1}")
        alg = _change_basis(alg, rng)
        rep = check_leibniz(alg)
        assert rep.valid, f"random generator produced an invalid algebra:\n{rep.summary()}"
        out.append(alg)
    return out


def fixture_algebras():
    """The named corpus used across oracle and acceptance tests."""
    return [k_abelian(1), k_abelian(2), k_abelian(3), n2(), heis3(), sl2()]


def _padded_algebra(a, pad):
    d = a.dim + pad
    z = zero_vec(d)
    c = tuple(
        tuple(tuple(a.c[i][j]) + zero_vec(pad) if i < a.dim and j < a.dim else z
              for j in range(d))
        for i in range(d))
    names = tuple(a.basis_names) + tuple(f"p{i+1}" for i in range(pad))
    return LeibnizAlgebra(f"{a.name}+k{pad}", d, names, c)


def padded_split_extension(xm, top_pad=1, base_pad=1, name=None):
    """Block-sum of a crossed module with an abelian trivially-acted pad,
    projected onto the original summand: split, central, and (for a
    nonzero pad) never stem because the pad misses the derived pair."""
    dt, db = xm.top.dim, xm.base.dim
    top = _padded_algebra(xm.top, top_pad)
    base = _padded_algebra(xm.base, base_pad)
    delta = from_rows(
        [[xm.delta.entries[i][j] if j < dt else Fraction(0) for j in range(top.dim)]
         for i in range(db)]
        + [[Fraction(0)] * top.dim for _ in range(base_pad)],
        cols=top.dim)
    left = tuple(
        tuple(tuple(xm.action.left[i][j]) + zero_vec(top_pad)
              if i < db and j < dt else zero_vec(top.dim)
              for j in range(top.dim))
        for i in range(base.dim))
    right = tuple(
        tuple(tuple(xm.action.right[j][i]) + zero_vec(top_pad)
              if j < dt and i < db else zero_vec(top.dim)
              for i in range(base.dim))
        for j in range(top.dim))
    total = CrossedModule(f"{xm.name}+pad", top, base, delta,
                          LeibnizAction(base, top, left, right))
    proj = XModHom(
        total, xm,
        from_rows([[Fraction(1 if i == j else 0)
                    for j in range(top.dim)] for i in range(dt)],
                  cols=top.dim),
        from_rows([[Fraction(1 if i == j else 0)
                    for j in range(base.dim)] for i in range(db)],
                  cols=base.dim))
    return Extension.from_projection(proj, name or f"{xm.name}_split")


def zero_over(a, name=None):
    """The crossed module (0, a, i)."""
    zt = zero_algebra()
    return CrossedModule(name or f"(0,{a.name},i)", zt, a,
                         RatMatrix.zeros(a.dim, 0), LeibnizAction.trivial(a, zt))


def n2_over_k():
    """The stem cover presentation of (0, k, i) by (0, n2, i)."""
    total = zero_over(n2())
    ker = SubPair(total, Subspace.zero(0),
                  span(2, [unit_vec(2, 1)]))
    return Extension.from_quotient_by(total, ker, name="n2_over_k")


def zero_pair(xm):
    return SubPair(xm, Subspace.zero(xm.top.dim), Subspace.zero(xm.base.dim))


def center_quotient(xm, name):
    return Extension.from_quotient_by(
        xm, SubPair(xm, center_xmod(xm).top_sub, center_xmod(xm).base_sub),
        name=name)


def central_fixture_extensions():
    """Central extensions covering stem covers, stem non-covers, identity,
    and split cases; the shared corpus for connecting-map properties."""
    xm_n2 = CrossedModule.adjoint_identity(n2())
    xm_h = CrossedModule.adjoint_identity(heis3())
    xm_k2 = CrossedModule.adjoint_identity(k_abelian(2))
    line = span(2, [unit_vec(2, 0)])
    return [
        n2_over_k(),
        Extension.from_projection(XModHom.identity(xm_n2), name="id_n2"),
        center_quotient(xm_n2, "n2_mod_center"),
        center_quotient(xm_h, "heis3_mod_center"),
        Extension.from_quotient_by(xm_k2, SubPair(xm_k2, line, line),
                                   name="k2_mod_line"),
        padded_split_extension(xm_n2),
        padded_split_extension(xm_h, top_pad=2, base_pad=1),
    ]


def direction(r):
    """The nonzero sparse int vector r divided by its content: equal for
    r and every positive multiple of it."""
    return tuple(sorted(_primitive(dict(r)).items()))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _sym(dm, dn, *terms):
    """Dense ambient vector of tensor._symbols(dm, dn, terms)."""
    return dense(_symbols(dm, dn, terms).items(), 2 * dm * dn)


# -- Fraction sparse views, read off the dense views of the tables -------------------

def sparse_st(a):
    """The Fraction sparse view of an algebra's table: st[i][j] = nonzero
    entries of [e_i, e_j]."""
    return sparse_table(a.c)


def sparse_sl(act):
    """sl[i][j] = nonzero entries of ^{m_i} n_j, as Fractions."""
    return sparse_table(act.left)


def sparse_sr(act):
    """sr[j][i] = nonzero entries of n_j ^ {m_i}, as Fractions."""
    return sparse_table(act.right)


@lru_cache(maxsize=None)
def evaluations(pair):
    """ev[s][k]: ambient symbol k evaluated into the first factor X of side
    s by the action of Y on X, x * y -> x^y and y * x -> ^y x, as a
    Fraction sparse vector."""
    ev = []
    for s, (X, Y, _, y_on_x) in enumerate(pair.sides):
        left, right = sparse_sl(y_on_x), sparse_sr(y_on_x)
        blocks = [None, None]
        blocks[s] = [right[x][y] for x in range(X.dim) for y in range(Y.dim)]
        blocks[1 - s] = [left[y][x] for y in range(Y.dim) for x in range(X.dim)]
        ev.append(tuple(blocks[0] + blocks[1]))
    return tuple(ev)


def bracket_term(pair, i, j, alt=False):
    """[symbol_i, symbol_j] as one tensor._symbols term on Fractions: the
    first leg of symbol i acted on by symbol j, written in the block of
    symbol i (the primary representative) or, with alt, in the other."""
    t = _legs(pair.m.dim, pair.n.dim, i)[0] ^ alt
    ev = evaluations(pair)
    return (1, t, ev[t][i], ev[1 - t][j])


@lru_cache(maxsize=None)
def representative_table(pres):
    """The Fraction sparse view of the representative table of pres."""
    (d0, d1), amb = pres.pair.zevaluations[0], pres.ambient_dim
    view = grid(_representatives(pres.pair), amb, amb)
    return tuple(tuple(tuple(rational(v, d0 * d1)) for v in row) for row in view)


@lru_cache(maxsize=None)
def bracket_table(pres):
    """The dense representative table of pres, for the dense contract."""
    return tuple(tuple(dense(v, pres.ambient_dim) for v in row)
                 for row in representative_table(pres))


def primary_entry(pair, i, j):
    """The chosen bracket representative: lands in the block of symbol i."""
    return _sym(pair.m.dim, pair.n.dim, bracket_term(pair, i, j))


def alt_entry(pair, i, j):
    """The other representative, congruent to the primary one modulo the
    relation subspace (their differences are relation rows)."""
    return _sym(pair.m.dim, pair.n.dim, bracket_term(pair, i, j, alt=True))


def representatives(pres, i, j):
    """The two representatives of [symbol i, symbol j] in a presentation,
    as dense ambient vectors: the primary one read from the table, and
    the other one."""
    return bracket_table(pres)[i][j], alt_entry(pres.pair, i, j)


def quotient_basis_lifts(pres):
    """The ambient symbols whose classes are the quotient basis: the
    units at the free columns of the relations."""
    return [unit_vec(pres.ambient_dim, f) for f in pres.qmap.free]


def child_env():
    """The environment with this leibxmod's source directory first on
    PYTHONPATH, so that a child interpreter imports the same package."""
    src = str(Path(leibxmod.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def non_leibniz_inputs(tmp_path):
    """The trivial action of nj3 on the zero algebra, the crossed module
    (0, nj3, 0) on it, its identity extension and the identity
    homomorphisms of nj3 and of (0, nj3, 0), written into tmp_path:
    nj3 ([e1,e2] = e3 = -[e2,e1], [e1,e3] = e1 = -[e3,e1]) is
    anticommutative and fails the Jacobi, so the Leibniz, identity."""
    docs = {
        "nj3.algebra": {"kind": "algebra", "name": "nj3", "dim": 3,
                        "basis": ["e1", "e2", "e3"],
                        "brackets": {"e1": {"e2": {"e3": "1"}, "e3": {"e1": "1"}},
                                     "e2": {"e1": {"e3": "-1"}},
                                     "e3": {"e1": {"e1": "-1"}}}},
        "zero.algebra": {"kind": "algebra", "name": "zero", "dim": 0, "basis": []},
        "trivial.action": {"kind": "action", "name": "trivial", "actor": "nj3",
                           "acted": "zero"},
        "nj3.xmod": {"kind": "xmod", "name": "(0,nj3,0)", "top": "zero",
                     "base": "nj3", "action": "trivial"},
        "nj3.extension": {"kind": "extension", "name": "id", "total": "nj3",
                          "quotient": "nj3",
                          "projection": {"top_map": {}, "base_map": {
                              b: {b: "1"} for b in ("e1", "e2", "e3")}}},
        "nj3.hom": {"kind": "hom", "name": "id", "source": "nj3", "target": "nj3",
                    "matrix": {b: {b: "1"} for b in ("e1", "e2", "e3")}},
        "nj3_xmod.hom": {"kind": "hom", "name": "id", "source": "nj3", "target": "nj3",
                         "top_map": {}, "base_map": {b: {b: "1"} for b in ("e1", "e2", "e3")}},
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    return {name: tmp_path / name for name in docs}


def renamed_adjoint_identity(a):
    """(a', a, id): a copy a' of a under other names, acted on by a's
    bracket, an adjoint identity up to names."""
    b = LeibnizAlgebra.from_sparse(f"{a.name}'", tuple(f"{x}'" for x in a.basis_names), a.zst)
    den, st = a.zst
    return CrossedModule(f"({b.name},{a.name},id)", b, a, RatMatrix.identity(a.dim),
                         LeibnizAction.from_sparse(a, b, den, st, st))


def count_law_evaluations(monkeypatch):
    """A Counter of the evaluations of the action, crossed module and
    crossed module hom laws, keyed by "action", "xmod" and "xmod_hom";
    the hom count is also keyed by ("xmod_hom", source name, target name).
    Each check reads a report cached on its object, so an evaluation is
    one computation of a report, not one call of the check."""
    calls = Counter()
    for module, name, kind in ((algebra, "_action_report", "action"),
                               (xmod, "_xmod_report", "xmod"),
                               (xmod, "_xmod_hom_report", "xmod_hom")):
        def counted(obj, _real=getattr(module, name), _kind=kind):
            calls[_kind] += 1
            if _kind == "xmod_hom":
                calls[_kind, obj.source.name, obj.target.name] += 1
            return _real(obj)
        monkeypatch.setattr(module, name, counted)
    return calls


# -- a generated corpus of central extensions ------------------------------------

def heisenberg(k):
    """The Heisenberg Lie algebra of dimension 2k + 1: [x_i, y_i] = z = -[y_i, x_i]."""
    d = 2 * k + 1
    c = [[zero_vec(d)] * d for _ in range(d)]
    for i in range(0, 2 * k, 2):
        c[i][i + 1] = unit_vec(d, d - 1)
        c[i + 1][i] = tuple(-x for x in unit_vec(d, d - 1))
    names = tuple(f"{v}{i + 1}" for i in range(k) for v in "xy") + ("z",)
    return LeibnizAlgebra(f"heis{d}", d, names, tuple(map(tuple, c)))


def direct_sum(a, b):
    """a + b, the basis of a first, with the basis names e1, e2, ..."""
    d = a.dim + b.dim
    c = tuple(
        tuple(tuple(a.c[i][j]) + zero_vec(b.dim) if i < a.dim and j < a.dim
              else zero_vec(a.dim) + tuple(b.c[i - a.dim][j - a.dim])
              if i >= a.dim and j >= a.dim else zero_vec(d)
              for j in range(d))
        for i in range(d))
    return LeibnizAlgebra(f"{a.name}+{b.name}", d, tuple(f"e{i + 1}" for i in range(d)), c)


def _combination(rng, rows, d):
    """A random combination of the rows, coefficients in -2..2."""
    out = zero_vec(d)
    for r in rows:
        c = rng.randint(-2, 2)
        out = tuple(x + c * y for x, y in zip(out, r))
    return out


def random_central_kernel(t, rng):
    """A random central crossed ideal K of the crossed module t: its top
    spanned by random combinations of a basis of the top of Z(t), its base
    by their images under delta and random combinations of a basis of the
    base of Z(t).  delta maps the top of Z(t) into its base, so K lies in
    Z(t) and contains delta(K_top): a central crossed ideal."""
    z = t.center
    zt, zb = z.top_sub.basis.entries, z.base_sub.basis.entries
    tops = [_combination(rng, zt, t.top.dim) for _ in range(rng.randint(0, len(zt)))]
    bases = [_mul_vec(t.delta, v) for v in tops]
    bases += [_combination(rng, zb, t.base.dim) for _ in range(rng.randint(0, len(zb)))]
    return SubPair(t, span(t.top.dim, tops), span(t.base.dim, bases))


def corpus_crossed_modules(seed):
    """(q, q, id), (Z(q), q, incl) and ([q, q], q, incl) for the algebras
    q of random_leibniz_corpus(12), n2, heis3, sl2, r2, sol2, ten random
    direct sums of two of those (drawn with the seed), heis5 and heis7."""
    rng = random.Random(seed)
    small = random_leibniz_corpus(12) + [n2(), heis3(), sl2(), r2_nonlie(), sol2_lie()]
    algebras = small + [direct_sum(*rng.sample(small, 2)) for _ in range(10)]
    algebras += [heisenberg(2), heisenberg(3)]
    out = []
    for i, q in enumerate(algebras):
        qid = CrossedModule.adjoint_identity(q, name=f"q{i}")
        out += [qid, CrossedModule.inclusion(q, qid.center.base_sub, name=f"z{i}"),
                CrossedModule.inclusion(q, qid.derived.base_sub, name=f"d{i}")]
    return tuple(out)


def central_extension_corpus(seed):
    """The distinct central extensions T -> T/K over the crossed modules T of
    corpus_crossed_modules(seed), five random kernels K each
    (random_central_kernel), drawn with the seed."""
    rng, seen, out = random.Random(seed), set(), []
    for t in corpus_crossed_modules(seed):
        for _ in range(5):
            k = random_central_kernel(t, rng)
            key = (t.name, k.top_sub, k.base_sub)
            if key not in seen:
                seen.add(key)
                out.append(Extension.from_quotient_by(t, k, name=f"{t.name}/K{len(out)}"))
    return out
