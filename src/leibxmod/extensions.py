"""Extensions of crossed modules and their classification.

An extension is a surjective crossed module map together with its
kernel pair.  Central extensions admit a connecting map from the Schur
multiplier of the quotient to the kernel: lift through the map the
projection induces on the squares (built once per map, and read by the
multiplier map too), then evaluate in the total.  Two lifts differ by
the kernel of that map, the one-leg span, which the evaluation kills
exactly when the kernel is central; that is asserted on its basis.
Maps into the kernel and the multipliers restrict through one helper
(``ratlin._restriction``).

The classification (central, stem extension, stem cover) follows the
subspace inclusions kernel vs center and kernel vs derived pair; the
cover condition compares the kernel with the multiplier of the quotient
through the invariant triple (top dimension, base dimension, rank of
the connecting map), which determines abelian crossed modules with
trivial action up to isomorphism.  Every equivalence the theory
promises (the four characterizations of stem extensions, the bijective
characterization of covers, exactness of the six-term sequence) is
recomputed on both sides and asserted, never assumed; the perfect stem
cover's total is asserted perfect off its derived pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import (
    LeibnizAction,
    LeibnizAlgebra,
    ValidityReport,
    _report,
    _residual,
    _through,
    _violations,
    ideal_closure,
)
from .ratlin import (
    RatMatrix,
    Subspace,
    _images,
    _restriction,
    column_space,
    kernel,
    rank,
    solve_matrix,
)
from .tensor import (
    _induced_presentation_hom,
    exterior_presentation,
    exterior_square_data,
    multiplier_functorial_map,
    schur_multiplier,
)
from .xmod import (
    CrossedModule,
    SubPair,
    XModHom,
    check_xmod,
    check_xmod_hom,
    _quotient_xmod,
    is_crossed_ideal,
    predicates,
    quotient_xmod,
)


@dataclass(frozen=True)
class Extension:
    """A surjective crossed module map with its kernel pair.

    Each derived object is a cached property, built at most once per
    Extension and kept outside the dataclass fields (equality, hashing and
    repr are unchanged); a property that raises caches nothing.  The
    center, derived pair and abelianization it reads are those cached on
    its total and quotient crossed modules."""

    name: str
    total: CrossedModule
    quotient: CrossedModule
    proj: XModHom
    kernel: SubPair

    def __post_init__(self):
        if self.proj.source != self.total or self.proj.target != self.quotient:
            raise ValueError("projection endpoints disagree with the extension")
        if self.kernel.parent != self.total:
            raise ValueError("kernel pair lives on a different crossed module")

    @classmethod
    def from_projection(cls, proj: XModHom, name=None) -> "Extension":
        return cls(name or f"{proj.source.name}->{proj.target.name}",
                   proj.source, proj.target, proj, proj.kernel_pair())

    @classmethod
    def from_quotient_by(cls, xm: CrossedModule, ideal: SubPair,
                         name=None) -> "Extension":
        """Extension presented by dividing a crossed module by a crossed ideal."""
        _, proj = quotient_xmod(xm, ideal)
        return cls.from_projection(proj, name)

    @cached_property
    def validity(self) -> ValidityReport:
        """Component validity (each distinct component once), surjectivity, the
        kernel pair, and the induced isomorphism total/kernel -> quotient."""
        bad = [*(v for xm in dict.fromkeys((self.total, self.quotient))
                 for v in check_xmod(xm).violations), *check_xmod_hom(self.proj).violations]
        if not self.proj.is_surjective():
            bad.append(("projection not surjective in both components", ()))
        if not self.kernel.same_spaces(self.proj.kernel_pair()):
            bad.append(("stored kernel differs from the projection kernel", ()))
        if not is_crossed_ideal(self.total, self.kernel):
            bad.append(("kernel pair is not a crossed ideal", ()))
        elif not bad:
            qx, qproj = _quotient_xmod(self.total, self.kernel)
            if (qx.top.dim, qx.base.dim) != (self.quotient.top.dim,
                                             self.quotient.base.dim):
                bad.append(("quotient dimensions differ from total mod kernel", ()))
            else:
                st, sb = qproj.sections
                ind = XModHom(qx, self.quotient, self.proj.top_map.mul(st),
                              self.proj.base_map.mul(sb))
                bad.extend(check_xmod_hom(ind).violations)
                # square, since the dimensions agree: bijective iff surjective
                if not ind.is_surjective():
                    bad.append(("induced map to the quotient is not bijective", ()))
        return _report(f"extension {self.name}", bad)

    @cached_property
    def _central(self) -> bool:
        """Whether the kernel lies in the total's center; raises ValueError
        unless the extension is valid."""
        if not self.validity.valid:
            raise ValueError(f"invalid extension:\n{self.validity.summary()}")
        return self.total.center.contains(self.kernel)

    @cached_property
    def flags(self) -> "ExtensionFlags":
        """Central / stem extension / stem cover flags (monotone by construction)."""
        central = self._central
        stem = central and self.total.derived.contains(self.kernel)
        cover = False
        if stem:
            mult, _ = schur_multiplier(self.quotient)
            cover = ((*self.kernel.dims(), rank(self.kernel_xmod[0].delta))
                     == (mult.top.dim, mult.base.dim, rank(mult.delta)))
        return ExtensionFlags(central, stem, cover)

    multiplier_map = cached_property(
        lambda self: multiplier_functorial_map(self.proj))

    @cached_property
    def kernel_xmod(self) -> "tuple[CrossedModule, XModHom]":
        """The kernel of a central extension as an abelian crossed module with
        trivial action, plus its inclusion into the total."""
        if not self._central:
            raise ValueError("kernel crossed module needs a central extension")
        a, b = self.kernel.top_sub, self.kernel.base_sub
        top = LeibnizAlgebra.abelian(f"ker({self.name}).top", a.dim,
                                     tuple(f"a{i+1}" for i in range(a.dim)))
        base = LeibnizAlgebra.abelian(f"ker({self.name}).base", b.dim,
                                      tuple(f"b{i+1}" for i in range(b.dim)))
        # the connecting map of the total restricted to the kernel pair
        delta = _restriction(b, _images(self.total.delta.zcols, a.zbasis))
        if delta is None:  # validity made the kernel pair a crossed ideal
            raise AssertionError(f"delta of {self.name} does not map the kernel top "
                                 "into the kernel base")
        kxm = CrossedModule(f"ker({self.name})", top, base, RatMatrix.from_sparse(b.dim, delta),
                            LeibnizAction.trivial(base, top))
        incl = XModHom(kxm, self.total, RatMatrix.from_sparse(a.ambient_dim, a.zbasis),
                       RatMatrix.from_sparse(b.ambient_dim, b.zbasis))
        rep = check_xmod_hom(incl)
        if not rep.valid:
            raise AssertionError(
                f"central kernel fails to embed as a crossed module:\n{rep.summary()}")
        return kxm, incl

    @cached_property
    def theta(self) -> XModHom:
        """Connecting map from the multiplier of the quotient to the kernel,
        lifted through the induced square maps and evaluated in the total."""
        if not self.flags.central:
            raise ValueError("connecting map needs a central extension")
        kxm, _ = self.kernel_xmod
        mult, incl = schur_multiplier(self.quotient)
        esd, (top_hom, base_hom) = exterior_square_data(self.total), self.proj.square_maps
        lam, mu = esd.lambda_n.matrix.zcols, esd.mu_q.matrix.zcols
        # two lifts differ by the kernel of the induced map, the one-leg
        # span, which the evaluation kills exactly when the kernel is central
        if (any(_images(lam, kernel(top_hom.matrix).zbasis)[1])
                or any(_images(mu, kernel(base_hom.matrix).zbasis)[1])):
            raise AssertionError("connecting map depends on the chosen sections")
        # the induced maps are asserted surjective, so a failed solve is internal
        try:
            top = solve_matrix(top_hom.matrix, incl.top_map)
        except ValueError:
            raise AssertionError("multiplier top does not lift to the total") from None
        try:
            base = solve_matrix(base_hom.matrix, incl.base_map)
        except ValueError:
            raise AssertionError("multiplier base does not lift to the total") from None
        tcols = _restriction(self.kernel.top_sub, _images(lam, top.zcols))
        if tcols is None:
            raise AssertionError("connecting image escapes the kernel top")
        bcols = _restriction(self.kernel.base_sub, _images(mu, base.zcols))
        if bcols is None:
            raise AssertionError("connecting image escapes the kernel base")
        out = XModHom(mult, kxm, RatMatrix.from_sparse(kxm.top.dim, tcols),
                      RatMatrix.from_sparse(kxm.base.dim, bcols))
        rep = check_xmod_hom(out)
        if not rep.valid:
            raise AssertionError(
                f"connecting map is not a crossed module map:\n{rep.summary()}")
        return out

    @cached_property
    def ab_proj(self) -> XModHom:
        """Map between the abelianizations induced by the projection."""
        ab_t, abproj_t = self.total.abelianization
        ab_q, abproj_q = self.quotient.abelianization
        st, sb = abproj_t.sections
        top = abproj_q.top_map.mul(self.proj.top_map).mul(st)
        base = abproj_q.base_map.mul(self.proj.base_map).mul(sb)
        out = XModHom(ab_t, ab_q, top, base)
        rep = check_xmod_hom(out)
        if not rep.valid:
            raise AssertionError(
                f"abelianized projection is not a crossed module map:\n{rep.summary()}")
        return out

    @cached_property
    def kernel_to_ab(self) -> "tuple[RatMatrix, RatMatrix]":
        """The kernel's inclusion followed by the total's abelianization, per component."""
        (_, kincl), (_, abproj_t) = self.kernel_xmod, self.total.abelianization
        return (abproj_t.top_map.mul(kincl.top_map), abproj_t.base_map.mul(kincl.base_map))

    @cached_property
    def one_leg(self) -> tuple:
        """(span, ideal, bp, psi2): the kernel's one-leg span in the total's
        top square, its ideal closure, and the kernel-base square bp with
        its induced map psi2 into the total's base square."""
        esd_t = exterior_square_data(self.total)
        # the induced top map's kernel is asserted to be the one-leg span
        span = kernel(self.proj.square_maps[0].matrix)
        ideal = ideal_closure(esd_t.qn.resolved, span)
        bxm = CrossedModule.inclusion(self.total.base, self.kernel.base_sub)
        bp = exterior_presentation(
            CrossedModule.adjoint_identity(self.total.base), bxm,
            name=f"{bxm.top.name}(^){self.total.base.name}")
        psi2 = _induced_presentation_hom(
            bp, esd_t.qq, RatMatrix.identity(self.total.base.dim), bxm.delta)
        return span, ideal, bp, psi2


@dataclass(frozen=True)
class ExtensionFlags:
    central: bool
    stem_extension: bool
    stem_cover: bool


# The public names of the cached fields of an extension.
def check_extension(e: Extension) -> ValidityReport:
    return e.validity


def classify(e: Extension) -> ExtensionFlags:
    return e.flags


def central_kernel_xmod(e: Extension) -> "tuple[CrossedModule, XModHom]":
    return e.kernel_xmod


def theta_star(e: Extension) -> XModHom:
    return e.theta


@dataclass(frozen=True)
class Prop41Report:
    """Four equivalent stem characterizations of a central extension plus
    the bijective characterization of covers; agreement is asserted when
    the report is built."""

    kernel_in_derived: bool
    theta_surjective: bool
    kernel_to_abelianization_zero: bool
    abelianizations_isomorphic: bool
    stem_cover: bool
    theta_bijective: bool
    multiplier_map_vanishes: bool


def prop41_crosscheck(e: Extension) -> Prop41Report:
    flags = e.flags
    if not flags.central:
        raise ValueError("stem characterizations apply to central extensions")
    th = e.theta
    # the extension is central, so stem means kernel inside the derived pair
    in_derived = flags.stem_extension
    surjective = th.is_surjective()
    ab_t, _ = e.total.abelianization
    to_ab_zero = all(m.is_zero() for m in e.kernel_to_ab)
    abh = e.ab_proj
    # between equal dimensions, bijective means surjective
    ab_iso = ((ab_t.top.dim, ab_t.base.dim) == (abh.target.top.dim,
                                                abh.target.base.dim)
              and abh.is_surjective())
    if len({in_derived, surjective, to_ab_zero, ab_iso}) != 1:
        raise AssertionError(
            f"stem characterizations disagree on {e.name}: "
            f"derived={in_derived} surjective={surjective} "
            f"ab-zero={to_ab_zero} ab-iso={ab_iso}")
    bijective = surjective and kernel(th.top_map).dim == kernel(th.base_map).dim == 0
    mm = e.multiplier_map
    mm_zero = mm.top_map.is_zero() and mm.base_map.is_zero()
    if not (flags.stem_cover == bijective == (ab_iso and mm_zero)):
        raise AssertionError(
            f"cover characterizations disagree on {e.name}: "
            f"flag={flags.stem_cover} bijective={bijective} "
            f"ab-iso+vanishing={(ab_iso and mm_zero)}")
    return Prop41Report(in_derived, surjective, to_ab_zero, ab_iso,
                        flags.stem_cover, bijective, mm_zero)


@dataclass(frozen=True)
class SequenceNode:
    """Exactness record at one node: image of the incoming map against
    kernel of the outgoing map, per component."""

    name: str
    incoming_image_top: Subspace
    incoming_image_base: Subspace
    outgoing_kernel_top: Subspace
    outgoing_kernel_base: Subspace
    exact: bool


@dataclass(frozen=True)
class ExactnessReport:
    extension: str
    maps: tuple   # (name, top matrix, base matrix)
    nodes: tuple  # SequenceNode per interior node plus the final surjectivity
    exact: bool


def _node(name, prev_top, prev_base, next_top, next_base) -> SequenceNode:
    img_t, img_b = column_space(prev_top), column_space(prev_base)
    ker_t, ker_b = kernel(next_top), kernel(next_base)
    return SequenceNode(name, img_t, img_b, ker_t, ker_b,
                        img_t == ker_t and img_b == ker_b)


def six_term_report(e: Extension) -> ExactnessReport:
    """Exactness of the sequence from the one-leg ideal through both
    multipliers and the kernel to the abelianizations."""
    if not e.flags.central:
        raise ValueError("the sequence is defined for central extensions")
    span, ideal, bp, psi2 = e.one_leg
    if ideal != span:
        raise AssertionError("one-leg span fails to be an ideal of the top square")
    esd = exterior_square_data(e.total)
    kt, kb = kernel(esd.lambda_n.matrix), kernel(esd.mu_q.matrix)
    f1_top = _restriction(kt, ideal.zbasis)
    if f1_top is None:
        raise AssertionError("one-leg ideal escapes the multiplier top")
    f1_base = _restriction(kb, psi2.matrix.zcols)
    if f1_base is None:
        raise AssertionError("kernel-base square escapes the multiplier base")
    mm, th, abh = e.multiplier_map, e.theta, e.ab_proj
    maps = (("(I, b^p) -> M(total)", RatMatrix.from_sparse(kt.dim, f1_top),
             RatMatrix.from_sparse(kb.dim, f1_base)),
            ("M(total) -> M(quotient)", mm.top_map, mm.base_map),
            ("M(quotient) -> kernel", th.top_map, th.base_map),
            ("kernel -> total_ab", *e.kernel_to_ab),
            ("total_ab -> quotient_ab", abh.top_map, abh.base_map))
    # the sequence ends in zero, so exactness at the last node is
    # surjectivity of the abelianized projection
    pairs = [m[1:] for m in maps] + [(RatMatrix.zeros(0, abh.target.top.dim),
                                      RatMatrix.zeros(0, abh.target.base.dim))]
    nodes = tuple(_node(name, *a, *b) for name, a, b in zip(
        ("M(total)", "M(quotient)", "kernel", "total_ab", "quotient_ab"),
        pairs, pairs[1:]))
    return ExactnessReport(e.name, maps, nodes, all(n.exact for n in nodes))


def lemma35_check(e: Extension) -> ValidityReport:
    """Abelianness of the one-leg ideal and of the kernel-base square, and
    validity of the connecting structure between them.

    The brackets of the ideal's canonical basis are one law over its
    twin, and those of the kernel-base square are read off its table.
    The connecting map applies the structure map to the top leg; its lift
    through the kernel-base square is chosen deterministically (one pivot
    solve over every column, each as if alone), which is immaterial for
    the validity being checked; only an inconsistent solve is followed by
    a test of each column against the image.
    """
    if not e.flags.central:
        raise ValueError("the abelian connecting structure needs a central extension")
    esd_t = exterior_square_data(e.total)
    span, ideal, bp, psi2 = e.one_leg
    bad = [] if ideal == span else [("one-leg span is not already an ideal", ())]
    res, us, index = esd_t.qn.resolved, ideal.zbasis, [str(k) for k in range(ideal.dim)]
    # [u_i, u_j] is u_j through the rows [u_i, e_k]
    rows = _through(us, res.zst, ".r")
    bad += _violations({"i": index, "j": index}, [
        ("one-leg ideal bracket ", 0, 0, res.dim, "ij", "ij", ((1, us, "j", rows, "i."),))])
    den, st = bp.resolved.zst
    bad += [(f"kernel-base square bracket ({i},{j})", _residual(dict(v), den, bp.resolved.dim))
            for (i, j), v in st]
    dy, ys = _images(esd_t.id_wedge_delta.matrix.zcols, us)
    try:
        delta = solve_matrix(psi2.matrix, RatMatrix.from_sparse(psi2.matrix.rows, (dy, ys)))
    except ValueError:  # name every column outside the image of psi2
        image = column_space(psi2.matrix)
        bad += [("connecting image escapes the kernel-base square",
                 RatMatrix.from_sparse(psi2.matrix.rows, (dy, (y,))).column(0))
                for y in ys if _restriction(image, (dy, (y,))) is None]
    if not bad:
        top = LeibnizAlgebra.abelian(f"I({e.name})", ideal.dim,
                                     tuple(f"i{k+1}" for k in range(ideal.dim)))
        cm = CrossedModule(f"(I,b^p)({e.name})", top, bp.resolved, delta,
                           LeibnizAction.trivial(bp.resolved, top))
        bad.extend(check_xmod(cm).violations)
    return _report(f"abelian connecting structure of {e.name}", bad)


def stem_cover_of_perfect(xm: CrossedModule) -> Extension:
    """The extension of a perfect crossed module by its multiplier, through
    the evaluation of the exterior squares."""
    if not predicates(xm).is_perfect:
        raise ValueError(
            f"{xm.name} is not perfect: the evaluation kernel would escape "
            "the derived pair, so the construction cannot be a cover")
    e = Extension.from_projection(exterior_square_data(xm).phi,
                                  name=f"cover({xm.name})")
    if not e.flags.stem_cover:
        raise AssertionError(f"constructed extension of {xm.name} is not a cover")
    if e.total.derived.dims() != (e.total.top.dim, e.total.base.dim):
        raise AssertionError("cover total fails to be perfect")
    mt, _ = schur_multiplier(e.total)
    if (mt.top.dim, mt.base.dim) != (0, 0):
        raise AssertionError("cover total keeps a nonzero multiplier")
    return e


def cor47_dimension_check(e1: Extension, e2: Extension) -> ValidityReport:
    """Dimension-level comparison of two stem covers of the same quotient:
    derived pairs, totals mod center, and centers mod kernel."""
    if e1.quotient != e2.quotient:
        raise ValueError("stem covers lie over different quotients")
    rows = []
    for e in (e1, e2):
        if not e.flags.stem_cover:
            raise ValueError(f"{e.name} is not a stem cover")
        (zt, zb), (kt, kb) = e.total.center.dims(), e.kernel.dims()
        rows.append((e.total.derived.dims(),
                     (e.total.top.dim - zt, e.total.base.dim - zb),
                     (zt - kt, zb - kb)))
    bad = []
    for label, x, y in zip(("derived pair", "total mod center",
                            "center mod kernel"), rows[0], rows[1]):
        if x != y:
            bad.append((f"{label} dimensions differ",
                        tuple(Fraction(v) for v in x + y)))
    return _report(f"cover dimension comparison {e1.name} vs {e2.name}", bad)
