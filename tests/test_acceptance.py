"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Every comparison is exact (integer dimensions, rational matrices); there
are no tolerances anywhere.  Run with ``pytest tests/test_acceptance.py -v``
for the per-criterion verdict lines, or ``-s`` to see them inline.
"""

import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from leibxmod.algebra import LeibnizAction, check_leibniz
from leibxmod.extensions import (
    Extension,
    central_kernel_xmod,
    classify,
    prop41_crosscheck,
    six_term_report,
    stem_cover_of_perfect,
    theta_star,
)
from leibxmod.homology import hl
from leibxmod.ratlin import kernel
from leibxmod.tensor import (
    MutualActionPair,
    exterior_square_data,
    schur_multiplier,
    _build_presentation,
)
from leibxmod.xmod import (
    CrossedModule,
    SubPair,
    abelianization,
    center_xmod,
    is_crossed_ideal,
)

from _dense import span, unit_vec
from _reference_checks import _mul_vec, contract
from _reference_descent import _theta_matrices
from _reference_quotient import contains_vector
from helpers import (
    alt_entry,
    bracket_table,
    central_fixture_extensions,
    child_env,
    fixture_algebras,
    heis3,
    k_abelian,
    n2,
    n2_over_k,
    padded_split_extension,
    primary_entry,
    random_leibniz_corpus,
    sl2,
    vec_sub,
    zero_over,
)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({label}): PASS")


def test_criterion_1_homology_oracle_equivalence():
    with criterion(1, "homology oracle equivalence"):
        corpus = fixture_algebras() + random_leibniz_corpus()
        assert len(random_leibniz_corpus()) >= 10
        start = time.monotonic()
        for q in corpus:
            esd = exterior_square_data(CrossedModule.adjoint_identity(q))
            assert kernel(esd.mu_q.matrix).dim == hl(q, 2), q.name
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"oracle loop took {elapsed:.2f}s"


def test_criterion_2_derived_multiplier_values():
    with criterion(2, "derived multiplier values"):
        mult, _ = schur_multiplier(zero_over(k_abelian(1, "k")))
        assert (mult.top.dim, mult.base.dim) == (0, 1)
        mult, _ = schur_multiplier(CrossedModule.adjoint_identity(n2()))
        assert (mult.top.dim, mult.base.dim) == (1, 1)
        mult, _ = schur_multiplier(CrossedModule.adjoint_identity(sl2()))
        assert (mult.top.dim, mult.base.dim) == (0, 0)
        assert hl(n2(), 2) == 1


def test_criterion_3_stem_cover_classification():
    with criterion(3, "stem cover classification"):
        e = n2_over_k()
        fl = classify(e)
        assert (fl.central, fl.stem_extension, fl.stem_cover) == (True, True, True)
        rep = six_term_report(e)
        assert all(node.exact for node in rep.nodes[:4])
        assert rep.exact
        split = padded_split_extension(CrossedModule.adjoint_identity(n2()))
        fl = classify(split)
        assert (fl.central, fl.stem_extension) == (True, False)


def _central_subquotients(xm):
    """Every quotient of xm by a crossed ideal spanned by central basis
    vectors whose connecting image stays inside the base part."""
    z = center_xmod(xm)
    tv, bv = z.top_sub.basis.entries, z.base_sub.basis.entries
    out = []
    for tmask in range(2 ** len(tv)):
        top = span(
            xm.top.dim, [v for i, v in enumerate(tv) if tmask >> i & 1])
        for bmask in range(2 ** len(bv)):
            base = span(
                xm.base.dim, [v for i, v in enumerate(bv) if bmask >> i & 1])
            if not all(contains_vector(base, _mul_vec(xm.delta, v))
                       for v in top.basis.entries):
                continue
            pair = SubPair(xm, top, base)
            assert is_crossed_ideal(xm, pair)
            out.append(Extension.from_quotient_by(
                xm, pair, name=f"{xm.name}/({tmask},{bmask})"))
    return out


def test_criterion_4_stem_equivalence_suite():
    with criterion(4, "stem characterizations agree on >= 20 extensions"):
        xms = [CrossedModule.adjoint_identity(a) for a in fixture_algebras()]
        xms += [zero_over(n2()), zero_over(heis3()), zero_over(k_abelian(1))]
        extensions = []
        for xm in xms:
            extensions.extend(_central_subquotients(xm))
        assert len(extensions) >= 20, len(extensions)
        for e in extensions:
            assert classify(e).central, e.name
            rep = prop41_crosscheck(e)  # raises if any pair disagrees
            assert len({rep.kernel_in_derived, rep.theta_surjective,
                        rep.kernel_to_abelianization_zero,
                        rep.abelianizations_isomorphic}) == 1, e.name
            assert rep.stem_cover == rep.theta_bijective, e.name


def test_criterion_5_perfect_stem_cover():
    with criterion(5, "stem cover of a perfect crossed module"):
        e = stem_cover_of_perfect(CrossedModule.adjoint_identity(sl2()))
        assert classify(e).stem_cover
        ab, _ = abelianization(e.total)
        assert (ab.top.dim, ab.base.dim) == (0, 0)
        mult, _ = schur_multiplier(e.total)
        assert (mult.top.dim, mult.base.dim) == (0, 0)
        with pytest.raises(ValueError):
            stem_cover_of_perfect(CrossedModule.adjoint_identity(n2()))


def _presentation_corpus():
    out = []
    for a in fixture_algebras():
        ad = LeibnizAction.adjoint(a)
        out.append(_build_presentation(MutualActionPair(a, a, ad, ad), (), f"{a.name}(x){a.name}"))
    for xm in (CrossedModule.adjoint_identity(n2()),
               CrossedModule.adjoint_identity(heis3()),
               CrossedModule.adjoint_identity(sl2()),
               zero_over(n2()), zero_over(k_abelian(1))):
        esd = exterior_square_data(xm)
        out.append(esd.qn)
        out.append(esd.qq)
    return out


def test_criterion_6_well_definedness_suite():
    with criterion(6, "well-definedness of every quotient"):
        for pres in _presentation_corpus():
            units = [unit_vec(pres.ambient_dim, j)
                     for j in range(pres.ambient_dim)]
            table, amb = bracket_table(pres), pres.ambient_dim
            for r in pres.relations.basis.entries:
                for u in units:
                    assert contains_vector(pres.relations, contract(table, r, u, amb)), pres.name
                    assert contains_vector(pres.relations, contract(table, u, r, amb)), pres.name
            for i in range(pres.ambient_dim):
                for j in range(pres.ambient_dim):
                    gap = vec_sub(primary_entry(pres.pair, i, j),
                                  alt_entry(pres.pair, i, j))
                    assert contains_vector(pres.relations, gap), pres.name
            assert check_leibniz(pres.resolved).valid, pres.name


def test_criterion_7_section_independence():
    # theta* asserts itself independent of the lift; the reference lifts
    # through a plain and a skewed section of the projection
    with criterion(7, "connecting map independent of sections"):
        for e in central_fixture_extensions():
            kxm, _ = central_kernel_xmod(e)
            th = theta_star(e)
            for skew in (False, True):
                assert (th.top_map, th.base_map) == _theta_matrices(e, kxm, skew), e.name


def test_criterion_8_deterministic_json_corpus():
    with criterion(8, "byte-identical --json corpus runs"):
        driver = Path(__file__).resolve().parent / "_json_corpus_driver.py"
        runs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, str(driver)],
                                  capture_output=True, env=child_env())
            assert proc.returncode == 0, proc.stderr.decode()[:500]
            runs.append(proc.stdout)
        assert runs[0] == runs[1]
        assert len(runs[0]) > 0


def test_json_corpus_matches_golden():
    # criterion 8 compares two runs of the same code; this pins the output
    # itself, so a refactor that changes any --json payload is caught
    here = Path(__file__).resolve().parent
    proc = subprocess.run([sys.executable, str(here / "_json_corpus_driver.py")],
                          capture_output=True, env=child_env())
    assert proc.returncode == 0, proc.stderr.decode()[:500]
    assert proc.stdout == (here / "golden" / "json_corpus.txt").read_bytes()


def test_text_corpus_matches_golden():
    # the human-readable output, the stderr and the exit code of all eight
    # commands on every fixture, invalid fixtures and mismatched kinds
    # included
    here = Path(__file__).resolve().parent
    proc = subprocess.run([sys.executable, str(here / "_text_corpus_driver.py")],
                          capture_output=True, env=child_env())
    assert proc.returncode == 0, proc.stderr.decode()[:500]
    assert proc.stdout == (here / "golden" / "text_corpus.txt").read_bytes()


def test_src_keeps_its_runtime_assertions():
    # every theorem the library asserts at runtime stays asserted: a check
    # may become cheaper, never go away, so the count never drops below 52
    # (the last one added asserts that delta maps a central kernel's top
    # into its base)
    src = Path(__file__).resolve().parent.parent / "src" / "leibxmod"
    count = sum(p.read_text().count("raise AssertionError") for p in src.glob("*.py"))
    assert count >= 52
