"""Extensions of crossed modules: classification, connecting map, exactness."""

from collections import Counter
from fractions import Fraction as QQ
from functools import cached_property
from pathlib import Path

import pytest

from leibxmod import algebra, cli, extensions, ratlin, tensor, xmod
from leibxmod.algebra import AlgebraHom, LeibnizAlgebra
from leibxmod.extensions import (
    Extension,
    central_kernel_xmod,
    check_extension,
    classify,
    cor47_dimension_check,
    lemma35_check,
    prop41_crosscheck,
    six_term_report,
    stem_cover_of_perfect,
    theta_star,
)
from leibxmod.tensor import MutualActionPair, exterior_square_data, induced_exterior_hom
from leibxmod.ratlin import RatMatrix, Subspace, kernel
from leibxmod.xmod import CrossedModule, SubPair, XModHom

from helpers import (
    count_law_evaluations,
    zero_pair,
    center_quotient,
    central_fixture_extensions,
    fixture_algebras,
    heis3,
    k_abelian,
    n2,
    n2_over_k,
    padded_split_extension,
    random_leibniz_corpus,
    sl2,
    zero_over,
)
import _reference_descent as ref_descent
import _reference_xmod as ref_xmod
from _dense import from_columns, from_rows, span, unit_vec
from _reference_quotient import contains_vector


# -- construction and validity --------------------------------------------------

def test_from_quotient_by_is_valid():
    e = n2_over_k()
    assert check_extension(e).valid
    assert (e.kernel.top_sub.dim, e.kernel.base_sub.dim) == (0, 1)
    assert (e.quotient.top.dim, e.quotient.base.dim) == (0, 1)


def test_rejects_mismatched_endpoints():
    e = n2_over_k()
    other = CrossedModule.adjoint_identity(n2())
    with pytest.raises(ValueError):
        Extension("bad", e.total, other, e.proj, e.kernel)
    with pytest.raises(ValueError):
        Extension("bad", e.total, e.quotient, e.proj,
                  SubPair(other, Subspace.zero(2), Subspace.zero(2)))


def test_check_extension_flags_wrong_kernel():
    e = n2_over_k()
    wrong = Extension("bad", e.total, e.quotient, e.proj, e.total.full_pair())
    rep = check_extension(wrong)
    assert not rep.valid
    assert any("stored kernel" in label for label, _ in rep.violations)
    with pytest.raises(ValueError):
        classify(wrong)


def test_check_extension_flags_non_surjective():
    xm = CrossedModule.adjoint_identity(n2())
    zero = XModHom(xm, xm, RatMatrix.zeros(2, 2), RatMatrix.zeros(2, 2))
    rep = check_extension(Extension.from_projection(zero, name="collapse"))
    assert not rep.valid
    assert any("not surjective" in label for label, _ in rep.violations)


def test_from_quotient_by_rejects_non_ideal():
    xm = CrossedModule.adjoint_identity(n2())
    # span{e1} is not an ideal of n2 ([e1,e1] = e2 escapes)
    bad = SubPair(xm, Subspace.zero(2), span(2, [unit_vec(2, 0)]))
    with pytest.raises(ValueError):
        Extension.from_quotient_by(xm, bad)


# -- classification --------------------------------------------------------------

def test_classify_n2_over_k_is_stem_cover():
    fl = classify(n2_over_k())
    assert (fl.central, fl.stem_extension, fl.stem_cover) == (True, True, True)


def test_classify_identity_extension():
    xm = CrossedModule.adjoint_identity(n2())
    fl = classify(Extension.from_projection(XModHom.identity(xm)))
    assert (fl.central, fl.stem_extension, fl.stem_cover) == (True, True, False)


def test_classify_split_is_central_not_stem():
    for xm in (CrossedModule.adjoint_identity(n2()),
               CrossedModule.adjoint_identity(heis3())):
        fl = classify(padded_split_extension(xm))
        assert (fl.central, fl.stem_extension, fl.stem_cover) == (True, False, False)


def test_classify_center_quotients():
    fl = classify(center_quotient(CrossedModule.adjoint_identity(n2()),
                                  "n2_mod_center"))
    assert (fl.central, fl.stem_extension, fl.stem_cover) == (True, True, True)
    fl = classify(center_quotient(CrossedModule.adjoint_identity(heis3()),
                                  "heis3_mod_center"))
    assert (fl.central, fl.stem_extension, fl.stem_cover) == (True, True, False)


def test_classify_full_quotient_is_not_central():
    xm = CrossedModule.adjoint_identity(n2())
    e = Extension.from_quotient_by(xm, xm.full_pair(), name="n2_mod_all")
    fl = classify(e)
    assert (fl.central, fl.stem_extension, fl.stem_cover) == (False, False, False)


# -- connecting map ---------------------------------------------------------------

def test_theta_on_n2_over_k():
    th = theta_star(n2_over_k())
    assert (th.top_map.rows, th.top_map.cols) == (0, 0)
    assert th.base_map.entries == ((QQ(1),),)


def test_theta_vanishes_on_split():
    xm = CrossedModule.adjoint_identity(n2())
    th = theta_star(padded_split_extension(xm))
    assert th.top_map.is_zero() and th.base_map.is_zero()


def test_theta_needs_central():
    xm = CrossedModule.adjoint_identity(n2())
    e = Extension.from_quotient_by(xm, xm.full_pair())
    with pytest.raises(ValueError):
        theta_star(e)


def test_theta_section_independent():
    # the oracle lifts through sections of the projection; the skewed policy
    # displaces each section column by a kernel vector, so the two policies
    # genuinely differ whenever the kernel is nonzero
    for e in central_fixture_extensions():
        kxm, _ = central_kernel_xmod(e)
        th = theta_star(e)
        for skew in (False, True):
            assert (th.top_map, th.base_map) == ref_descent._theta_matrices(e, kxm, skew), e.name


# -- stem characterizations --------------------------------------------------------

def test_prop41_on_stem_cover():
    rep = prop41_crosscheck(n2_over_k())
    assert rep.kernel_in_derived and rep.theta_surjective
    assert rep.kernel_to_abelianization_zero and rep.abelianizations_isomorphic
    assert rep.stem_cover and rep.theta_bijective and rep.multiplier_map_vanishes


def test_prop41_on_split():
    rep = prop41_crosscheck(
        padded_split_extension(CrossedModule.adjoint_identity(n2())))
    assert not rep.kernel_in_derived and not rep.theta_surjective
    assert not rep.kernel_to_abelianization_zero
    assert not rep.abelianizations_isomorphic
    assert not rep.stem_cover and not rep.theta_bijective


def test_prop41_stem_but_not_cover():
    rep = prop41_crosscheck(
        center_quotient(CrossedModule.adjoint_identity(heis3()),
                        "heis3_mod_center"))
    assert rep.kernel_in_derived and rep.theta_surjective
    assert not rep.stem_cover and not rep.theta_bijective
    assert not rep.multiplier_map_vanishes


def test_prop41_agreement_on_corpus():
    # the crosscheck raises if any two characterizations disagree
    for e in central_fixture_extensions():
        prop41_crosscheck(e)


# -- six-term sequence --------------------------------------------------------------

def test_six_term_on_n2_over_k():
    rep = six_term_report(n2_over_k())
    assert rep.exact
    assert tuple(n.name for n in rep.nodes) == (
        "M(total)", "M(quotient)", "kernel", "total_ab", "quotient_ab")
    dims = [((n.incoming_image_top.dim, n.incoming_image_base.dim),
             (n.outgoing_kernel_top.dim, n.outgoing_kernel_base.dim))
            for n in rep.nodes]
    assert dims == [(((0, 1)), (0, 1)), ((0, 0), (0, 0)), ((0, 1), (0, 1)),
                    ((0, 0), (0, 0)), ((0, 1), (0, 1))]
    names = [nm for nm, _, _ in rep.maps]
    assert names == ["(I, b^p) -> M(total)", "M(total) -> M(quotient)",
                     "M(quotient) -> kernel", "kernel -> total_ab",
                     "total_ab -> quotient_ab"]
    f1 = rep.maps[0]
    assert (f1[2].rows, f1[2].cols) == (1, 2)


def test_six_term_exact_on_corpus():
    for e in central_fixture_extensions():
        rep = six_term_report(e)
        assert rep.exact, e.name
        assert all(n.exact for n in rep.nodes)


def test_six_term_needs_central():
    xm = CrossedModule.adjoint_identity(n2())
    with pytest.raises(ValueError):
        six_term_report(Extension.from_quotient_by(xm, xm.full_pair()))


# -- abelian connecting structure ----------------------------------------------------

def test_lemma35_valid_on_corpus():
    for e in central_fixture_extensions():
        rep = lemma35_check(e)
        assert rep.valid, rep.summary()
        assert e.name in rep.subject


def test_lemma35_needs_central():
    xm = CrossedModule.adjoint_identity(n2())
    with pytest.raises(ValueError):
        lemma35_check(Extension.from_quotient_by(xm, xm.full_pair()))


def _lemma35_cases():
    """The shared corpus and the center quotients of (q, q, id) over heis3,
    n2, sl2 and six random algebras: central extensions all."""
    return central_fixture_extensions() + [
        center_quotient(CrossedModule.adjoint_identity(q), f"{q.name}_mod_center")
        for q in [heis3(), n2(), sl2()] + random_leibniz_corpus(6)]


def test_lemma35_matches_the_dense_reference():
    cases = _lemma35_cases()
    assert len(cases) == 16
    for e in cases:
        assert lemma35_check(e) == ref_descent.lemma35_check(e), e.name


def test_lemma35_violations_match_the_dense_reference():
    # over sl2 mod its (zero) center: the one-leg ideal replaced by the whole
    # top square (not the span, not abelian, and escaping the zero
    # kernel-base square), then the kernel-base square by the whole base
    # square (not abelian)
    labels = set()
    for side in (0, 1):
        e = center_quotient(CrossedModule.adjoint_identity(sl2()), "sl2_mod_center")
        span, ideal, bp, psi2 = e.one_leg
        esd = exterior_square_data(e.total)
        vars(e)["one_leg"] = ((span, Subspace.full(esd.qn.resolved.dim), bp, psi2) if side == 0
                              else (span, ideal, esd.qq, AlgebraHom.identity(esd.qq.resolved)))
        rep = lemma35_check(e)
        assert not rep.valid and rep == ref_descent.lemma35_check(e)
        labels |= {label.split(" (")[0] for label, _ in rep.violations}
    assert labels == {"one-leg span is not already an ideal", "one-leg ideal bracket",
                      "kernel-base square bracket",
                      "connecting image escapes the kernel-base square"}


def test_lemma35_refuses_a_non_central_extension_as_the_reference():
    xm = CrossedModule.adjoint_identity(n2())
    e = Extension.from_quotient_by(xm, xm.full_pair())
    for check in (lemma35_check, ref_descent.lemma35_check):
        with pytest.raises(ValueError, match="^the abelian connecting structure needs"):
            check(e)


# -- stem covers of perfect crossed modules -------------------------------------------

def test_stem_cover_of_sl2():
    xm = CrossedModule.adjoint_identity(sl2())
    e = stem_cover_of_perfect(xm)
    assert classify(e).stem_cover
    assert e.quotient == xm
    # the multiplier of (sl2, sl2, id) vanishes, so the cover has zero kernel
    assert (e.kernel.top_sub.dim, e.kernel.base_sub.dim) == (0, 0)


def test_stem_cover_reads_its_total_perfect_off_the_derived_pair():
    # the flags have computed the total's derived pair; the total's
    # abelianization is not built
    e = stem_cover_of_perfect(cli.load_fixture(FIXTURES / "sl2_id.xmod"))
    assert "derived" in vars(e.total) and "abelianization" not in vars(e.total)


def test_stem_cover_refuses_non_perfect():
    for a in (n2(), heis3(), k_abelian(2)):
        with pytest.raises(ValueError):
            stem_cover_of_perfect(CrossedModule.adjoint_identity(a))


def test_cover_dimensions_agree_across_covers():
    # two presentations of n2 as a stem cover of (0, k, i): the bracket
    # concentrates on the first basis vector in one and on the second in
    # the other, so the projections differ but all invariants match
    q0 = zero_over(k_abelian(1), name="(0,k,i)")
    t1 = zero_over(n2(), name="(0,n2,i)")
    z2 = (QQ(0), QQ(0))
    swapped = LeibnizAlgebra("n2s", 2, ("e1", "e2"),
                             ((z2, z2), (z2, (QQ(1), QQ(0)))))
    t2 = zero_over(swapped, name="(0,n2s,i)")
    e1 = Extension.from_projection(
        XModHom(t1, q0, RatMatrix.zeros(0, 0),
                from_rows([[QQ(1), QQ(0)]], cols=2)), name="cov1")
    e2 = Extension.from_projection(
        XModHom(t2, q0, RatMatrix.zeros(0, 0),
                from_rows([[QQ(0), QQ(1)]], cols=2)), name="cov2")
    assert classify(e1).stem_cover and classify(e2).stem_cover
    rep = cor47_dimension_check(e1, e2)
    assert rep.valid, rep.summary()


def test_cor47_requires_same_quotient_and_covers():
    e = n2_over_k()
    other = center_quotient(CrossedModule.adjoint_identity(n2()), "n2_mod_center")
    with pytest.raises(ValueError):
        cor47_dimension_check(e, other)
    split = padded_split_extension(CrossedModule.adjoint_identity(n2()))
    with pytest.raises(ValueError):
        cor47_dimension_check(split, split)


# -- exact refusal messages ------------------------------------------------------------

def test_precondition_messages_pinned():
    # the strings were captured before the analyses moved onto the cached
    # fields of Extension; a cached property that raises caches nothing,
    # so a second read raises the same error again
    e = n2_over_k()
    wrong = Extension("bad", e.total, e.quotient, e.proj, e.total.full_pair())
    invalid = ("invalid extension:\n"
               "extension bad: INVALID (1 violation(s))\n"
               "  stored kernel differs from the projection kernel: residual ()")
    for _ in range(2):
        with pytest.raises(ValueError) as ex:
            classify(wrong)
        assert str(ex.value) == invalid
    xm = CrossedModule.adjoint_identity(n2())
    not_central = Extension.from_quotient_by(xm, xm.full_pair(), name="n2_mod_all")
    for fn, message in [
            (theta_star, "connecting map needs a central extension"),
            (central_kernel_xmod, "kernel crossed module needs a central extension"),
            (prop41_crosscheck, "stem characterizations apply to central extensions"),
            (six_term_report, "the sequence is defined for central extensions"),
            (lemma35_check,
             "the abelian connecting structure needs a central extension")]:
        with pytest.raises(ValueError) as ex:
            fn(not_central)
        assert str(ex.value) == message, fn.__name__
    other = center_quotient(xm, "n2_mod_center")
    with pytest.raises(ValueError) as ex:
        cor47_dimension_check(e, other)
    assert str(ex.value) == "stem covers lie over different quotients"
    split = padded_split_extension(xm)
    with pytest.raises(ValueError) as ex:
        cor47_dimension_check(split, split)
    assert str(ex.value) == "(n2,n2,id)_split is not a stem cover"


# -- failure paths ------------------------------------------------------------------
# Each runtime assertion below is reached through a perturbed input; the
# messages are pinned exactly.

@pytest.mark.parametrize("side", [0, 1])
def test_theta_reports_an_evaluation_that_depends_on_the_lift(monkeypatch, side):
    # the identity of (n2, n2, id) with its induced map on one square
    # replaced by zero: that map's kernel is the whole square, on which the
    # evaluation does not vanish, so two lifts give different images
    real = tensor._square_maps

    def zeroed(f):
        homs = list(real(f))
        h = homs[side]
        homs[side] = AlgebraHom(h.source, h.target, RatMatrix.zeros(h.matrix.rows, h.matrix.cols))
        return tuple(homs)

    monkeypatch.setattr(tensor, "_square_maps", zeroed)
    e = Extension.from_projection(XModHom.identity(CrossedModule.adjoint_identity(n2())), "id")
    with pytest.raises(AssertionError) as err:
        theta_star(e)
    assert str(err.value) == "connecting map depends on the chosen sections"


@pytest.mark.parametrize("e, message", [
    (center_quotient(CrossedModule.adjoint_identity(n2()), "n2_mod_center"),
     "connecting image escapes the kernel top"),
    (n2_over_k(), "connecting image escapes the kernel base"),
])
def test_theta_reports_an_image_outside_the_kernel(e, message):
    # the same extension with its kernel replaced by the zero pair, against
    # which every nonzero connecting image escapes; the zero pair fails
    # validity, so the flags and kernel crossed module are those of e
    shrunk = Extension(e.name, e.total, e.quotient, e.proj, zero_pair(e.total))
    vars(shrunk).update(flags=e.flags, kernel_xmod=e.kernel_xmod)
    with pytest.raises(AssertionError) as err:
        theta_star(shrunk)
    assert str(err.value) == message


@pytest.mark.parametrize("side, message", [
    (0, "one-leg ideal escapes the multiplier top"),
    (1, "kernel-base square escapes the multiplier base"),
])
def test_six_term_reports_a_first_map_outside_the_multiplier(side, message):
    # the one-leg ideal replaced by the whole top square, or the map of the
    # kernel-base square by one onto a basis vector outside the multiplier
    e = center_quotient(CrossedModule.adjoint_identity(n2()), "n2_mod_center")
    span, ideal, bp, psi2 = e.one_leg
    esd = exterior_square_data(e.total)
    if side == 0:
        full = Subspace.full(ideal.ambient_dim)
        vars(e)["one_leg"] = (full, full, bp, psi2)
    else:
        kb, d = kernel(esd.mu_q.matrix), esd.qq.resolved.dim
        j = next(j for j in range(d) if not contains_vector(kb, unit_vec(d, j)))
        onto = from_columns([unit_vec(d, j)] * bp.resolved.dim, rows=d)
        vars(e)["one_leg"] = (span, ideal, bp, AlgebraHom(bp.resolved, esd.qq.resolved, onto))
    with pytest.raises(AssertionError) as err:
        six_term_report(e)
    assert str(err.value) == message


KERNEL_DELTA = "delta of n2_over_k does not map the kernel top into the kernel base"


def test_kernel_xmod_reports_a_delta_outside_the_kernel(monkeypatch):
    # validity makes the kernel pair a crossed ideal, so delta maps its top
    # into its base; a restriction that finds otherwise is a failed invariant
    monkeypatch.setattr(extensions, "_restriction", lambda s, twin: None)
    with pytest.raises(AssertionError) as err:
        central_kernel_xmod(cli.load_fixture(FIXTURES / "n2_over_k.extension"))
    assert str(err.value) == KERNEL_DELTA


def test_kernel_xmod_failure_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(extensions, "_restriction", lambda s, twin: None)
    assert cli.main(["classify-extension", str(FIXTURES / "n2_over_k.extension")]) == 3
    assert capsys.readouterr().err == f"error: internal invariant failed: {KERNEL_DELTA}\n"


# -- each derived object once per extension ---------------------------------------------

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


ANALYSES = ("center", "derived", "abelianization")


def count_calls(monkeypatch):
    """Counting wrappers over the bodies of the analyses a crossed module
    caches, and of its validity report; the counter is keyed by (property
    name, crossed module name)."""
    calls = Counter()
    for name in (*ANALYSES, "validity"):
        def counted(xm, _real=vars(CrossedModule)[name].func, _name=name):
            calls[(_name, xm.name)] += 1
            return _real(xm)
        prop = cached_property(counted)
        prop.__set_name__(CrossedModule, name)
        monkeypatch.setattr(CrossedModule, name, prop)
    return calls


def test_each_derived_object_computed_once(monkeypatch):
    calls = count_calls(monkeypatch)
    e = cli.load_fixture(FIXTURES / "split_over_n2.extension")
    t, q = e.total.name, e.quotient.name
    for _ in range(2):
        classify(e)
        theta_star(e)
        prop41_crosscheck(e)
        six_term_report(e)
        lemma35_check(e)
    # the validity of total and quotient is the extension's check;
    # lemma35_check adds one on its own connecting structure, a new object
    # each call
    assert {k: v for k, v in calls.items() if k[1] in (t, q)} == {
        ("center", t): 1, ("derived", t): 1, ("derived", q): 1,
        ("abelianization", t): 1, ("abelianization", q): 1,
        ("validity", t): 1, ("validity", q): 1}


def test_each_command_computes_each_object_once(monkeypatch, capsys):
    # classify-extension then verify-sequence on one input: the second
    # command reads what the first cached on the loaded extension and on
    # its crossed modules
    path = FIXTURES / "split_over_n2.extension"
    e = cli.load_fixture(path)
    calls = count_calls(monkeypatch)
    for command in ("classify-extension", "verify-sequence"):
        assert cli.main([command, str(path), "--json"]) == 0
    mine = {k: v for k, v in calls.items() if k[1] in (e.total.name, e.quotient.name)}
    assert {k for k in mine if k[0] != "validity"} == {
        ("center", e.total.name), ("derived", e.total.name),
        ("derived", e.quotient.name), ("abelianization", e.total.name),
        ("abelianization", e.quotient.name)}
    assert set(mine.values()) == {1}, mine
    # no crossed module of the run, the squares and kernels included, has
    # an analysis computed twice
    analysed = {k: v for k, v in calls.items() if k[0] in ANALYSES}
    assert set(analysed.values()) == {1}, analysed
    capsys.readouterr()


def test_each_command_builds_the_total_derived_pair_once(monkeypatch, capsys):
    path = FIXTURES / "split_over_n2.extension"
    total = cli.load_fixture(path).total
    calls = Counter()

    def counted(xm, a, b, _real=xmod.commutator):
        full = xm.full_pair()
        if xm.name == total.name and a.same_spaces(full) and b.same_spaces(full):
            calls["derived"] += 1
        return _real(xm, a, b)

    monkeypatch.setattr(xmod, "commutator", counted)
    for command in ("classify-extension", "verify-sequence"):
        assert cli.main([command, str(path), "--json"]) == 0
    # the total's abelianization divides by its cached derived pair
    assert calls["derived"] == 1
    capsys.readouterr()


def test_classify_checks_the_projection_once(monkeypatch, capsys):
    path = FIXTURES / "split_over_n2.extension"
    e = cli.load_fixture(path)
    calls = count_law_evaluations(monkeypatch)
    for command in ("classify-extension", "verify-sequence"):
        assert cli.main([command, str(path), "--json"]) == 0
    capsys.readouterr()
    # Extension.validity and the induced exterior maps share one report
    assert calls["xmod_hom", e.total.name, e.quotient.name] == 1


def test_extension_commands_never_densify(monkeypatch, capsys):
    # the connecting map, the inclusion crossed modules and the subalgebras
    # behind them read the integer twins: with no dense table (the body of
    # c, left and right) built, both commands print their golden --json
    # bytes on both fixture extensions
    golden = (Path(__file__).resolve().parent / "golden" / "json_corpus.txt").read_text()

    def densified(*args, **kwargs):
        raise AssertionError("a dense table was built")

    monkeypatch.setattr(algebra, "_densified", densified)
    monkeypatch.chdir(FIXTURES)
    for name in ("n2_over_k.extension", "split_over_n2.extension"):
        for command in ("classify-extension", "verify-sequence"):
            head = f"$ leibxmod {command} {name} --json\n"
            expect = golden.split(head, 1)[1].split("[exit 0]\n", 1)[0]
            assert cli.main([command, name, "--json"]) == 0, (command, name)
            assert capsys.readouterr().out == expect, (command, name)


@pytest.mark.parametrize("name, tables", [
    ("n2_over_k.extension", 5), ("split_over_n2.extension", 4)])
def test_extension_commands_build_each_evaluation_table_once(monkeypatch, capsys, name, tables):
    # theta* reads the total's symbols through the pairs of the total's own
    # squares, with their evaluations: one table per pair of a square, and
    # one for the kernel-base square of the one-leg ideal
    built = []

    def counted(pair, _real=vars(MutualActionPair)["zevaluations"].func):
        built.append((pair.m.name, pair.n.name))
        return _real(pair)

    prop = cached_property(counted)
    prop.__set_name__(MutualActionPair, "zevaluations")
    monkeypatch.setattr(MutualActionPair, "zevaluations", prop)
    for command in ("classify-extension", "verify-sequence"):
        assert cli.main([command, str(FIXTURES / name), "--json"]) == 0
    capsys.readouterr()
    assert len(built) == tables, built


def test_prop41_reads_theta_off_its_kernels(monkeypatch):
    # theta* is surjective when source dim - kernel dim = target dim in both
    # components, and bijective when both kernels are zero besides: neither
    # theta* nor the surjection is ranked
    ranked = _calls_of(monkeypatch, "rank")
    for e in central_fixture_extensions():
        th = e.theta
        assert prop41_crosscheck(e).theta_bijective == e.flags.stem_cover, e.name
        maps = (th.top_map, th.base_map, e.proj.top_map, e.proj.base_map)
        assert not any(m is f for m in ranked for f in maps), e.name
        assert "_kernel" in vars(th.top_map), e.name


def _calls_of(monkeypatch, name) -> list:
    """The first argument of every call of the ratlin routine name, wrapped
    in every module of the package that imported it."""
    calls, real = [], getattr(ratlin, name)

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    for module in (ratlin, algebra, xmod, tensor, extensions):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


def _kernels_taken(monkeypatch) -> list:
    """Every matrix object whose kernel is eliminated from now on, in order:
    RatMatrix's cached kernel, wrapped."""
    taken = []

    def counted(m, _real=vars(RatMatrix)["_kernel"].func):
        taken.append(m)
        return _real(m)

    prop = cached_property(counted)
    prop.__set_name__(RatMatrix, "_kernel")
    monkeypatch.setattr(RatMatrix, "_kernel", prop)
    return taken


@pytest.mark.parametrize("name", ["split_over_n2.extension", "n2_over_k.extension"])
def test_induced_square_maps_are_eliminated_once(monkeypatch, name):
    # one kernel per induced map gives both its surjectivity and its
    # one-leg kernel; the surjection's surjectivity reads the kernels its
    # kernel pair has already taken, and nothing is ranked
    f = cli.load_fixture(FIXTURES / name).proj
    f.kernel_pair(), exterior_square_data(f.source), exterior_square_data(f.target)
    eliminated, ranks = _calls_of(monkeypatch, "sparse_kernel"), _calls_of(monkeypatch, "rank")
    top_hom, base_hom = induced_exterior_hom(f)
    assert eliminated == [top_hom.matrix.cols, base_hom.matrix.cols]
    assert "_kernel" in vars(top_hom.matrix) and "_kernel" in vars(base_hom.matrix)
    assert ranks == []


def test_an_induced_map_that_misses_a_class_is_not_surjective(monkeypatch):
    # the identity of (n2, n2, id) with the first column of each induced
    # map dropped: the kernel grows and the image misses a class
    real = tensor._induced_presentation_hom

    def dropped(src, tgt, fm, fn):
        hom = real(src, tgt, fm, fn)
        rows = [(QQ(0), *row[1:]) for row in hom.matrix.entries]
        return AlgebraHom(hom.source, hom.target,
                          from_rows(rows, cols=hom.matrix.cols))

    monkeypatch.setattr(tensor, "_induced_presentation_hom", dropped)
    with pytest.raises(AssertionError) as err:
        induced_exterior_hom(XModHom.identity(CrossedModule.adjoint_identity(n2())))
    assert str(err.value) == "induced top map is not surjective"


@pytest.mark.parametrize("name, in_prop41", [("split_over_n2.extension", 1),
                                             ("n2_over_k.extension", 2)])
def test_theta_solves_and_eliminates_once(monkeypatch, name, in_prop41):
    # theta* solves the multiplier against each induced square map once
    # (the multiplier map has built them); prop41 reads its surjectivity and
    # bijectivity off its kernels, and the exactness node at M(quotient)
    # reads the same kernels: each of theta*'s matrices is eliminated once.
    # The theta* of split_over_n2 is not surjective on the top, so prop41
    # leaves its base alone
    e = cli.load_fixture(FIXTURES / name)
    e.flags, e.kernel_xmod, e.ab_proj, e.multiplier_map  # their own solves
    solves = _calls_of(monkeypatch, "solve_matrix")
    th = e.theta
    top_hom, base_hom = e.proj.square_maps
    assert len(solves) == 2
    assert solves[0] is top_hom.matrix and solves[1] is base_hom.matrix
    eliminated, ranked = _kernels_taken(monkeypatch), _calls_of(monkeypatch, "rank")

    def of_theta():
        return [m for m in eliminated if m is th.top_map or m is th.base_map]

    prop41_crosscheck(e)
    assert len(of_theta()) == in_prop41 and of_theta()[0] is th.top_map
    six_term_report(e)
    assert len(of_theta()) == 2 and of_theta()[1] is th.base_map
    assert not any(m is th.top_map or m is th.base_map for m in ranked)




def _oracle_extensions() -> list:
    """The central fixture extensions, and each algebra of the oracle
    corpora as (q, q, id) over its quotient by the center."""
    algebras = fixture_algebras() + random_leibniz_corpus()
    return central_fixture_extensions() + [
        center_quotient(CrossedModule.adjoint_identity(a), f"{a.name}_mod_center")
        for a in algebras]


def test_surjectivity_and_bijectivity_match_the_rank_reference():
    # read off the cached kernels, as the old ranks of the component maps
    # read them: on every map an analysis of a central extension reads,
    # onto and not onto
    for e in _oracle_extensions():
        (_, kincl), (_, abproj) = e.kernel_xmod, e.total.abelianization
        esd = exterior_square_data(e.total)
        maps = (e.proj, e.theta, e.ab_proj, e.multiplier_map, kincl, abproj,
                esd.phi, esd.multiplier[1])
        for f in maps:
            assert f.is_surjective() == ref_xmod.is_surjective(f), (e.name, f.target.name)
        rep = prop41_crosscheck(e)
        assert rep.theta_surjective == ref_xmod.is_surjective(e.theta), e.name
        assert rep.theta_bijective == ref_xmod.is_bijective(e.theta), e.name


def test_no_matrix_is_ranked_after_its_kernel_is_taken(monkeypatch, capsys):
    # a map whose kernel is cached reads its rank off it; rank is for maps
    # whose kernel nothing reads
    late = []

    def counted(m, _real=ratlin.rank):
        late.append("_kernel" in vars(m))
        return _real(m)

    for module in (algebra, xmod, tensor, extensions, cli):
        if getattr(module, "rank", None) is ratlin.rank:
            monkeypatch.setattr(module, "rank", counted)
    runs = [(command, name) for name in ("n2_over_k.extension", "split_over_n2.extension")
            for command in ("classify-extension", "verify-sequence")]
    runs += [(command, name) for name in ("n2_id.xmod", "sl2_id.xmod")
             for command in ("multiplier", "exterior")] + [("stemcover", "sl2_id.xmod")]
    for command, name in runs:
        assert cli.main([command, str(FIXTURES / name)]) == 0, (command, name)
    capsys.readouterr()
    assert late and not any(late)
