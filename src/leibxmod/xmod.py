"""Leibniz crossed modules and their structure theory.

A crossed module is an algebra homomorphism delta: top -> base together
with an action of the base on the top satisfying

  (i)  delta(^q n) = [q, delta n]   and   delta(n^q) = [delta n, q],
  (ii) ^{delta(n1)} n2 = [n1, n2] = n1 ^ {delta(n2)}   (Peiffer).

Crossed ideals, their commutator, the center, derived crossed module,
abelianization and Liezation all live here.  The center, the derived pair
and the abelianization are cached properties of the crossed module, as
its validity report and its squares are; ``center_xmod``,
``derived_xmod`` and ``abelianization`` read them.  What needs a valid
crossed module (the commutator, the derived pair and all built on it,
quotients, Liezation) checks that first and raises ValueError with the
report, so invalid input never reaches a runtime assertion; the center
is defined on any crossed module.  "Generated by" is always
implemented as linear span followed by a crossed-ideal closure; where
the theory promises the closure is a no-op (commutator of crossed
ideals) that promise is asserted, so a divergence raises instead of
being silently absorbed.  The closure iterates one step (``_step``) to
its fixpoint, and a pair is a crossed ideal exactly when that step
leaves it alone; the whole pair is one by definition.  The step and the
commutator's span read their generators off the integer twins through
the one product idiom (``algebra._products``), on the twins of the
subspaces' canonical bases, and span them as int rows: each of the
step's six families is one product of a subspace with the whole algebra,
and the commutator of a pair with itself takes each product once.
``CrossedModule.inclusion`` restricts its brackets, read off the twins,
to the ideal through one helper (``ratlin._restriction``).  The crossed
module and homomorphism laws, like those of ``algebra``, cover every
basis pair but are evaluated term by term over nonzero entries
(``ratlin.join``), and each report is cached on the object it checks;
the center is two kernels of sparse rows read off the integer twins, the
base part one annihilator over the action and base tables (one kernel for
both parts of an adjoint identity, whose base rows are the top's).  A map's
surjectivity and kernel pair read the same cached kernels of its maps,
and the maps it induces on the squares are cached on it like the squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import (
    AlgebraHom,
    LeibnizAction,
    LeibnizAlgebra,
    ValidityReport,
    _pairwise,
    _products,
    _projected,
    _quotient,
    _report,
    _residual,
    _through,
    _violations,
    annihilator,
    check_action,
    check_hom,
    is_bracket_action,
    is_lie,
    subalgebra_on,
)
from .ratlin import (
    RatMatrix,
    Subspace,
    _images,
    _plus,
    _restriction,
    join,
    kernel,
    solve_matrix,
    transposed,
)


@dataclass(frozen=True)
class CrossedModule:
    name: str
    top: LeibnizAlgebra
    base: LeibnizAlgebra
    delta: RatMatrix            # base.dim x top.dim
    action: LeibnizAction       # base acting on top

    def __post_init__(self):
        if self.delta.rows != self.base.dim or self.delta.cols != self.top.dim:
            raise ValueError("delta shape mismatch")
        if self.action.actor is not self.base and self.action.actor != self.base:
            raise ValueError("action actor must be the base algebra")
        if self.action.acted is not self.top and self.action.acted != self.top:
            raise ValueError("action acted must be the top algebra")

    @classmethod
    def adjoint_identity(cls, q: LeibnizAlgebra, name=None) -> "CrossedModule":
        """The crossed module (q, q, id) with the bracket action."""
        return cls(name or f"({q.name},{q.name},id)", q, q,
                   RatMatrix.identity(q.dim), LeibnizAction.adjoint(q))

    @classmethod
    def inclusion(cls, q: LeibnizAlgebra, s, name=None) -> "CrossedModule":
        """(n, q, i) for a two-sided ideal n = s of q with the bracket action:
        [e_i, u_j] and [u_j, e_i] for the basis u of s, read off the twins
        and restricted to s at once, which is also the ideal test."""
        if s.ambient_dim != q.dim:
            raise ValueError("seed/algebra dimension mismatch")
        us = s.zbasis
        den, left = _through(us, q.zst, "r.")  # keyed (j, i): [e_i, u_j]
        _, right = _through(us, q.zst, ".r")  # keyed (j, i): [u_j, e_i]
        coords = _restriction(s, (den, [v for _, v in left + right]))
        if coords is None:
            raise ValueError(f"subspace is not a two-sided ideal of {q.name}")
        top, incl = subalgebra_on(q, s, name or f"{q.name}_ideal")
        den, flat = coords
        rows = tuple(zip([k for k, _ in left + right], flat))
        action = LeibnizAction.from_sparse(q, top, den, transposed(rows[:len(left)]),
                                           rows[len(left):])
        return cls(name or f"({top.name},{q.name},incl)", top, q, incl, action)

    def full_pair(self) -> "SubPair":
        return SubPair(self, Subspace.full(self.top.dim), Subspace.full(self.base.dim))

    @cached_property
    def validity(self) -> ValidityReport:
        """The report of check_xmod, evaluated once per object."""
        return _xmod_report(self)

    @cached_property
    def squares(self):
        """The exterior squares with their induced structure (tensor)."""
        from .tensor import _squares
        return _squares(self)

    @cached_property
    def center(self) -> "SubPair":
        """(n^q, st_q(n) & Z(q)): annihilated top part and annihilating center.
        n -> ^{q_i} n and n -> n^{q_i} contract the acted slot of sl and sr,
        q -> ^q n_j and q -> n_j^q their actor slot, and q -> [q, e_j] and q
        -> [e_j, q] either slot of st: the base is one annihilator.  For an
        adjoint identity sl = sr = st, so the base's row families are the
        top's, each twice: one annihilator is both parts."""
        act, q = self.action, self.base
        top = annihilator(self.top.dim, ((act.sl, "r."), (act.sr, ".r")))
        return SubPair(self, top, top if is_adjoint_identity(self) else annihilator(
            q.dim, ((act.sl, ".r"), (act.sr, "r."), (q.zst[1], ".r"), (q.zst[1], "r."))))

    @cached_property
    def derived(self) -> "SubPair":
        """The commutator of the full pair with itself; raises ValueError
        unless the crossed module is valid."""
        return commutator(self, self.full_pair(), self.full_pair())

    @cached_property
    def abelianization(self) -> "tuple[CrossedModule, XModHom]":
        """The quotient by the derived pair, with the projection."""
        # commutator asserts the derived pair to be a crossed ideal
        out, proj = _quotient_xmod(self, self.derived, name=f"{self.name}_ab")
        if not _is_abelian(out):
            raise AssertionError("abelianization failed to be abelian")
        return out, proj


@dataclass(frozen=True)
class SubPair:
    """A pair of subspaces (top_sub, base_sub) of a crossed module."""

    parent: CrossedModule
    top_sub: Subspace
    base_sub: Subspace

    def __post_init__(self):
        if self.top_sub.ambient_dim != self.parent.top.dim:
            raise ValueError("top subspace dimension mismatch")
        if self.base_sub.ambient_dim != self.parent.base.dim:
            raise ValueError("base subspace dimension mismatch")

    def dims(self):
        return (self.top_sub.dim, self.base_sub.dim)

    def contains(self, other: "SubPair") -> bool:
        return (self.top_sub.contains_subspace(other.top_sub)
                and self.base_sub.contains_subspace(other.base_sub))

    def same_spaces(self, other: "SubPair") -> bool:
        return self.top_sub == other.top_sub and self.base_sub == other.base_sub


def check_xmod(xm: CrossedModule) -> ValidityReport:
    """Action axioms plus conditions (i) and (ii) on all basis pairs.

    Residuals are joined over nonzero entries, as in check_action, whose
    cached report of the action comes first.  For an adjoint identity the
    residuals of (i) and (ii) read t - t, for t = [q, n], [n, q], [n1, n2]:
    a valid action report is then the whole one."""
    return xm.validity


def is_adjoint_identity(xm: CrossedModule) -> bool:
    """xm is (P, P, id) with P acting on itself by its bracket, up to names."""
    return is_bracket_action(xm.action) and xm.delta == RatMatrix.identity(xm.top.dim)


def _xmod_report(xm: CrossedModule) -> ValidityReport:
    top, base, act = xm.top, xm.base, xm.action
    bad = list(check_action(act).violations)
    if not bad and is_adjoint_identity(xm):
        return _report(f"crossed module {xm.name}", bad)
    dcols, L, R = xm.delta.zcols, (act.den, act.sl), (act.den, act.sr)
    units = (1, tuple(((j, 1),) for j in range(top.dim)))
    # q indexes the base, n, a and b the top; the report runs over (q, n)
    # for equivariance, then over (a, b) for Peiffer
    bad += _violations({"q": base.basis_names, "n": top.basis_names,
                        "a": top.basis_names, "b": top.basis_names}, [
        # (i) delta(^q n) - [q, delta n]
        ("equivariance-left ", 0, 0, base.dim, "qn", "qn",
         ((1, L, "qn", dcols, ""), (-1, dcols, "n", base.zst, "q."))),
        # (i) delta(n^q) - [delta n, q]
        ("equivariance-right ", 0, 1, base.dim, "qn", "nq",
         ((1, R, "nq", dcols, ""), (-1, dcols, "n", base.zst, ".q"))),
        # (ii) ^{delta n1} n2 - [n1, n2]
        ("peiffer-left ", 1, 0, top.dim, "ab", "ab",
         ((1, dcols, "a", L, ".b"), (-1, units, "b", top.zst, "a."))),
        # (ii) n1 ^ {delta n2} - [n1, n2]
        ("peiffer-right ", 1, 1, top.dim, "ab", "ab",
         ((1, dcols, "b", R, "a."), (-1, units, "b", top.zst, "a."))),
    ])
    return _report(f"crossed module {xm.name}", bad)


def _acts(xm: CrossedModule, ys, xs) -> list:
    """The nonzero ^y x and x^y for y over the base twin ys and x over the
    top twin xs, as sparse int vectors (see _pairwise)."""
    act = xm.action
    return _pairwise((act.den, act.sl), ys, xs) + _pairwise((act.den, act.sr), xs, ys)


def _step(xm: CrossedModule, t: Subspace, b: Subspace) -> tuple:
    """One round of the crossed-ideal closure of (t, b): the base b + [b, q]
    + [q, b] + delta(t), then the top t with ^b n and n^b for that base b
    and ^q t and t^q added, each family one product of a subspace with
    the whole algebra (see _products), every generator a sparse int vector."""
    base, act = xm.base, xm.action
    L, R, tz, bz = (act.den, act.sl), (act.den, act.sr), t.zbasis, b.zbasis
    nb = Subspace.from_integer_rows(base.dim, [
        *bz[1], *_products(bz, base.zst, ".r"), *_products(bz, base.zst, "r."),
        *_images(xm.delta.zcols, tz)[1]])
    nz = nb.zbasis
    nt = Subspace.from_integer_rows(xm.top.dim, [
        *tz[1], *_products(nz, L, ".r"), *_products(nz, R, "r."),
        *_products(tz, L, "r."), *_products(tz, R, ".r")])
    return nt, nb


def is_crossed_ideal(xm: CrossedModule, sp: SubPair) -> bool:
    """Stability of (top_sub, base_sub) under delta, brackets and actions:
    a fixpoint of the closure step, which the whole pair is by definition."""
    return (sp.dims() == (xm.top.dim, xm.base.dim)
            or _step(xm, sp.top_sub, sp.base_sub) == (sp.top_sub, sp.base_sub))


def crossed_ideal_closure(xm: CrossedModule, seed: SubPair) -> SubPair:
    """Least crossed ideal containing the seed, by fixpoint iteration."""
    t, b = seed.top_sub, seed.base_sub
    while (nxt := _step(xm, t, b)) != (t, b):
        t, b = nxt
    return SubPair(xm, t, b)


def commutator(xm: CrossedModule, a: SubPair, b: SubPair) -> SubPair:
    """Commutator of two crossed ideals (s,h) and (t,j):
    (span(D_h(t) + D_j(s)), [h, j] + [j, h]), where D_h(t) = span{^h t,
    t^h}; the base needs both sides, since delta(t^h) = [delta t, h].

    Raises ValueError, with the report, unless xm is valid; the result is
    asserted to be a crossed ideal already (closure no-op).
    """
    _require_valid(xm)
    same = b == a  # then both sides are the same products, taken once
    if not is_crossed_ideal(xm, a) or (not same and not is_crossed_ideal(xm, b)):
        raise ValueError("commutator arguments must be crossed ideals")
    s, h = a.top_sub.zbasis, a.base_sub.zbasis
    t, j = b.top_sub.zbasis, b.base_sub.zbasis
    top, base = _acts(xm, h, t), _pairwise(xm.base.zst, h, j)
    if not same:
        top, base = top + _acts(xm, j, s), base + _pairwise(xm.base.zst, j, h)
    out = SubPair(xm, Subspace.from_integer_rows(xm.top.dim, top),
                  Subspace.from_integer_rows(xm.base.dim, base))
    closed = crossed_ideal_closure(xm, out)
    if not closed.same_spaces(out):
        raise AssertionError(
            f"commutator span of {xm.name} is not already a crossed ideal: "
            f"span dims {out.dims()}, closure dims {closed.dims()}")
    return out


def center_xmod(xm: CrossedModule) -> SubPair:
    return xm.center


def derived_xmod(xm: CrossedModule) -> SubPair:
    return xm.derived


@dataclass(frozen=True)
class XModHom:
    source: CrossedModule
    target: CrossedModule
    top_map: RatMatrix   # target.top.dim x source.top.dim
    base_map: RatMatrix  # target.base.dim x source.base.dim

    def __post_init__(self):
        if (self.top_map.rows, self.top_map.cols) != (self.target.top.dim,
                                                      self.source.top.dim):
            raise ValueError("top map shape mismatch")
        if (self.base_map.rows, self.base_map.cols) != (self.target.base.dim,
                                                        self.source.base.dim):
            raise ValueError("base map shape mismatch")

    @classmethod
    def identity(cls, xm: CrossedModule) -> "XModHom":
        return cls(xm, xm, RatMatrix.identity(xm.top.dim),
                   RatMatrix.identity(xm.base.dim))

    def is_surjective(self) -> bool:
        """Source dim - kernel dim = target dim, for both components."""
        return all(m.cols - kernel(m).dim == m.rows for m in (self.top_map, self.base_map))

    def kernel_pair(self) -> SubPair:
        return SubPair(self.source, kernel(self.top_map), kernel(self.base_map))

    @cached_property
    def sections(self) -> "tuple[RatMatrix, RatMatrix]":
        """Linear sections of both components of a surjective map, every
        free variable zero: solved once per object."""
        return tuple(solve_matrix(m, RatMatrix.identity(m.rows))
                     for m in (self.top_map, self.base_map))

    @cached_property
    def validity(self) -> ValidityReport:
        """The report of check_xmod_hom, evaluated once per object."""
        return _xmod_hom_report(self)

    @cached_property
    def square_maps(self):
        """The maps induced on the exterior squares by a surjective map (tensor)."""
        from .tensor import _square_maps
        return _square_maps(self)


def check_xmod_hom(f: XModHom) -> ValidityReport:
    """Component homomorphisms, delta compatibility, and equivariance.

    Between adjoint identities, with top_map == base_map = f, delta
    compatibility is f - f and equivariance at (q, n) f's hom residual at
    (q, n) and (n, q): a valid check_hom of f is then the whole report."""
    return f.validity


def _xmod_hom_report(f: XModHom) -> ValidityReport:
    src, tgt = f.source, f.target
    bad = list(check_hom(AlgebraHom(src.top, tgt.top, f.top_map)).violations)
    if not bad and f.top_map == f.base_map and all(map(is_adjoint_identity, (src, tgt))):
        return _report(f"crossed module hom {src.name} -> {tgt.name}", bad)
    bad += check_hom(AlgebraHom(src.base, tgt.base, f.base_map)).violations
    tcols, bcols = f.top_map.zcols, f.base_map.zcols
    # base_map delta - delta' top_map, column by column; the residual is
    # the tgt.base.dim x src.top.dim matrix, row by row
    scale, diff = join([("n", 1, src.delta.zcols, "n", bcols, ""),
                        ("n", -1, tcols, "n", tgt.delta.zcols, "")])
    n = src.top.dim
    flat = {k * n + j: v for (j,), acc in diff.items() for k, v in acc.items()}
    if any(flat.values()):
        bad.append(("delta compatibility", _residual(flat, scale, tgt.base.dim * n)))
    # fl[i][k] = ^{f q_i} e_k and fr[j][k] = (f n_j)^{e_k}: the target
    # action expanded over f q and over f n
    ta, act = tgt.action, src.action
    fl = _through(bcols, (ta.den, ta.sl), ".r")
    fr = _through(tcols, (ta.den, ta.sr), ".r")
    bad += _violations({"q": src.base.basis_names, "n": src.top.basis_names}, [
        # f(^q n) - ^{f q}(f n)
        ("equivariance-left ", 0, 0, tgt.top.dim, "qn", "qn",
         ((1, (act.den, act.sl), "qn", tcols, ""), (-1, tcols, "n", fl, "q."))),
        # f(n^q) - (f n)^{f q}
        ("equivariance-right ", 0, 1, tgt.top.dim, "qn", "nq",
         ((1, (act.den, act.sr), "nq", tcols, ""), (-1, bcols, "q", fr, "n."))),
    ])
    return _report(f"crossed module hom {src.name} -> {tgt.name}", bad)


def _require_valid(xm: CrossedModule) -> None:
    """Raise ValueError, with the report, unless xm is a valid crossed module."""
    rep = check_xmod(xm)
    if not rep.valid:
        raise ValueError(f"invalid crossed module:\n{rep.summary()}")


def quotient_xmod(xm: CrossedModule, ideal: SubPair,
                  name=None) -> "tuple[CrossedModule, XModHom]":
    """Componentwise quotient by a crossed ideal, with the projection hom."""
    _require_valid(xm)
    if not is_crossed_ideal(xm, ideal):
        raise ValueError(f"quotient of {xm.name} by a pair that is not a crossed ideal")
    return _quotient_xmod(xm, ideal, name)


def _quotient_xmod(xm: CrossedModule, ideal: SubPair,
                   name=None) -> "tuple[CrossedModule, XModHom]":
    """The quotient by a pair the caller knows to be a crossed ideal of the
    valid crossed module xm, with the projection, both asserted; its
    components are ideals (the base by the closure step, the top by
    Peiffer).  The quotient bases are the classes of the free coordinates."""
    top_alg, qt = _quotient(xm.top, ideal.top_sub, f"{xm.top.name}_q")
    base_alg, qb = _quotient(xm.base, ideal.base_sub, f"{xm.base.name}_q")
    delta, act = qb.projection.mul(xm.delta.mul(qt.section)), xm.action
    action = LeibnizAction.from_sparse(
        base_alg, top_alg, qt.zimages[0] * act.den,
        _projected(qt, act.sl, qb.free, qt.free), _projected(qt, act.sr, qt.free, qb.free))
    out = CrossedModule(name or f"{xm.name}_quot", top_alg, base_alg, delta, action)
    rep = check_xmod(out)
    if not rep.valid:
        raise AssertionError(f"quotient crossed module invalid:\n{rep.summary()}")
    proj = XModHom(xm, out, qt.projection, qb.projection)
    prep = check_xmod_hom(proj)
    if not prep.valid:
        raise AssertionError(f"quotient projection invalid:\n{prep.summary()}")
    return out, proj


def abelianization(xm: CrossedModule) -> "tuple[CrossedModule, XModHom]":
    return xm.abelianization


def liezation(xm: CrossedModule) -> "tuple[CrossedModule, XModHom]":
    """Quotient by the crossed ideal generated by squares and the
    symmetrized action terms; the result is a crossed module of Lie
    algebras with an antisymmetric action (both asserted).

    Squares [x,x] are polarized into basis brackets [n_i,n_j]+[n_j,n_i]
    (including i = j), which spans the same subspace in characteristic 0.
    """
    _require_valid(xm)
    top, base, act = xm.top, xm.base, xm.action
    # every generator an int vector, each family at its table's scale
    tgens = _sums(top.zst[1], top.zst[1]) + _sums(act.sl, act.sr)
    seed = SubPair(xm,
                   Subspace.from_integer_rows(top.dim, tgens),
                   Subspace.from_integer_rows(base.dim, _sums(base.zst[1], base.zst[1])))
    ideal = crossed_ideal_closure(xm, seed)
    out, proj = quotient_xmod(xm, ideal, name=f"{xm.name}_lie")
    if not (is_lie(out.top) and is_lie(out.base)):
        raise AssertionError("liezation failed to produce Lie algebras")
    if _sums(out.action.sl, out.action.sr):
        raise AssertionError("liezation action is not antisymmetric")
    return out, proj


def _sums(a, b) -> list:
    """The nonzero a[i, j] + b[j, i] over the keys of the int entries a and
    b, at one scale."""
    a, b = dict(a), dict(b)
    return [v for i, j in sorted(a.keys() | {(j, i) for i, j in b})
            if (v := _plus(a.get((i, j), ()), b.get((j, i), ())))]


@dataclass(frozen=True)
class XModFlags:
    is_perfect: bool
    is_abelian: bool


def predicates(xm: CrossedModule) -> XModFlags:
    return XModFlags(is_perfect=xm.derived.dims() == (xm.top.dim, xm.base.dim),
                     is_abelian=_is_abelian(xm))


def _is_abelian(xm: CrossedModule) -> bool:
    """The center is the full pair, cross-checked: no bracket and no action in the tables."""
    abelian = xm.center.dims() == (xm.top.dim, xm.base.dim)
    alt = not any((xm.top.zst[1], xm.base.zst[1], xm.action.sl, xm.action.sr))
    if alt != abelian:
        raise AssertionError(
            "center-based and component-based abelian predicates disagree")
    return abelian
