"""The dense crossed-ideal routines that leibxmod used before they read
the integer twins through one pairwise product, kept as a test oracle.

is_crossed_ideal, crossed_ideal_closure and commutator are the old
functions of leibxmod.xmod verbatim, predicates their old comparison of
the derived pair and the center with the whole pair, row for row,
span_brackets the old one of leibxmod.algebra and _through_base the old
one of leibxmod.tensor; ideal_closure is the old loop of
leibxmod.algebra (two spans of brackets with the full subspace, then two
sums), on this dense span_brackets: every bracket and action is one
dense contraction of a pair of basis vectors (the dense bracket and
actions of _reference_checks, once methods of the algebra and the
action), and every membership test the dense reduce of
_reference_quotient.  is_surjective is the old XModHom.is_surjective
and is_bijective the old reading of theta*'s bijectivity in
prop41_crosscheck, both off the uncached ranks of the component maps.
The differential tests in test_xmod.py, test_descent.py and
test_extensions.py compare the library's routines with them.
"""

from _dense import span, unit_vec
from _reference_checks import _act_left, _act_right, _bracket, _mul_vec
from _reference_quotient import contains_vector
from leibxmod.algebra import LeibnizAction, LeibnizAlgebra
from leibxmod.ratlin import RatMatrix, Subspace, rank
from leibxmod.xmod import CrossedModule, SubPair, XModHom


def span_brackets(a: LeibnizAlgebra, X: Subspace, Y: Subspace) -> Subspace:
    """Linear span of {[x, y] : x in X, y in Y} (basis pairs suffice)."""
    if X.ambient_dim != a.dim or Y.ambient_dim != a.dim:
        raise ValueError("subspace/algebra dimension mismatch")
    out = [_bracket(a, x, y) for x in X.basis.entries for y in Y.basis.entries]
    return span(a.dim, out)


def ideal_closure(a: LeibnizAlgebra, seed: Subspace) -> Subspace:
    """Least two-sided ideal containing seed, by fixpoint iteration."""
    if seed.ambient_dim != a.dim:
        raise ValueError("seed/algebra dimension mismatch")
    s = seed
    full = Subspace.full(a.dim)
    while True:
        nxt = s.add(span_brackets(a, full, s)).add(span_brackets(a, s, full))
        if nxt == s:
            return s
        s = nxt


def is_crossed_ideal(xm: CrossedModule, sp: SubPair) -> bool:
    """Stability of (top_sub, base_sub) under delta, brackets and actions."""
    t, b = sp.top_sub, sp.base_sub
    for v in t.basis.entries:
        if not contains_vector(b, _mul_vec(xm.delta, v)):
            return False
    full_b = Subspace.full(xm.base.dim)
    if not b.contains_subspace(span_brackets(xm.base, b, full_b)):
        return False
    if not b.contains_subspace(span_brackets(xm.base, full_b, b)):
        return False
    for y in b.basis.entries:
        for j in range(xm.top.dim):
            nj = unit_vec(xm.top.dim, j)
            if not contains_vector(t, _act_left(xm.action, y, nj)):
                return False
            if not contains_vector(t, _act_right(xm.action, nj, y)):
                return False
    for i in range(xm.base.dim):
        qi = unit_vec(xm.base.dim, i)
        for x in t.basis.entries:
            if not contains_vector(t, _act_left(xm.action, qi, x)):
                return False
            if not contains_vector(t, _act_right(xm.action, x, qi)):
                return False
    return True


def crossed_ideal_closure(xm: CrossedModule, seed: SubPair) -> SubPair:
    """Least crossed ideal containing the seed, by fixpoint iteration."""
    t, b = seed.top_sub, seed.base_sub
    full_b = Subspace.full(xm.base.dim)
    while True:
        nb = b.add(span_brackets(xm.base, b, full_b)) \
             .add(span_brackets(xm.base, full_b, b)) \
             .add(span(
                 xm.base.dim, [_mul_vec(xm.delta, v) for v in t.basis.entries]))
        acts = []
        for y in nb.basis.entries:
            for j in range(xm.top.dim):
                nj = unit_vec(xm.top.dim, j)
                acts.append(_act_left(xm.action, y, nj))
                acts.append(_act_right(xm.action, nj, y))
        for i in range(xm.base.dim):
            qi = unit_vec(xm.base.dim, i)
            for x in t.basis.entries:
                acts.append(_act_left(xm.action, qi, x))
                acts.append(_act_right(xm.action, x, qi))
        nt = t.add(span(xm.top.dim, acts))
        if nt == t and nb == b:
            return SubPair(xm, t, b)
        t, b = nt, nb


def commutator(xm: CrossedModule, a: SubPair, b: SubPair) -> SubPair:
    """Commutator of two crossed ideals (s,h) and (t,j):
    (span(D_h(t) + D_j(s)), [h, j]), where D_h(t) = span{^h t, t^h}.

    The result is asserted to be a crossed ideal already (closure no-op);
    a fixture violating that raises so the divergence is surfaced.
    """
    if not is_crossed_ideal(xm, a) or not is_crossed_ideal(xm, b):
        raise ValueError("commutator arguments must be crossed ideals")
    s, h = a.top_sub, a.base_sub
    t, j = b.top_sub, b.base_sub
    gens = []
    for y in h.basis.entries:
        for x in t.basis.entries:
            gens.append(_act_left(xm.action, y, x))
            gens.append(_act_right(xm.action, x, y))
    for y in j.basis.entries:
        for x in s.basis.entries:
            gens.append(_act_left(xm.action, y, x))
            gens.append(_act_right(xm.action, x, y))
    top = span(xm.top.dim, gens)
    base = span_brackets(xm.base, h, j).add(span_brackets(xm.base, j, h))
    out = SubPair(xm, top, base)
    closed = crossed_ideal_closure(xm, out)
    if not closed.same_spaces(out):
        raise AssertionError(
            f"commutator span of {xm.name} is not already a crossed ideal: "
            f"span dims {out.dims()}, closure dims {closed.dims()}")
    return out


def predicates(xm: CrossedModule) -> tuple:
    """(is_perfect, is_abelian): whether the derived pair and the center
    of xm span the same subspaces as its full pair."""
    full = xm.full_pair()
    return xm.derived.same_spaces(full), xm.center.same_spaces(full)


def _through_base(x: CrossedModule, y: CrossedModule) -> LeibnizAction:
    """The action of x.top on y.top that maps down by x.delta and acts by
    y.action.  When x is the base with the identity, that is y.action
    table for table, and y.action itself is returned, with its cached
    sparse views and validity report."""
    if x.top == x.base and x.delta == RatMatrix.identity(x.base.dim):
        return y.action
    m, n = x.top, y.top
    return LeibnizAction(
        m, n,
        tuple(tuple(_act_left(y.action, x.delta.column(a), unit_vec(n.dim, b))
                    for b in range(n.dim)) for a in range(m.dim)),
        tuple(tuple(_act_right(y.action, unit_vec(n.dim, b), x.delta.column(a))
                    for a in range(m.dim)) for b in range(n.dim)))


def is_surjective(f: XModHom) -> bool:
    """Both component maps have full row rank."""
    return (rank(f.top_map) == f.target.top.dim
            and rank(f.base_map) == f.target.base.dim)


def is_bijective(f: XModHom) -> bool:
    """Surjective, and both component maps have full column rank."""
    return is_surjective(f) and (rank(f.top_map), rank(f.base_map)) == (
        f.source.top.dim, f.source.base.dim)
