"""The paper's theorems on a generated corpus of central extensions: the
six-term exact sequence, the stem characterizations of Proposition 4.1,
Lemma 3.5, the cover criterion and the dimensions of Corollary 4.7, on
central_extension_corpus (helpers), with a round trip through the CLI,
and the first five with the connecting map against the dense reference
on the center quotients of three rungs of the scaling ladder."""

import itertools
import json
import random
from collections import Counter, defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_descent as ref
from leibxmod import cli
from leibxmod.extensions import (
    Extension,
    classify,
    cor47_dimension_check,
    lemma35_check,
    prop41_crosscheck,
    six_term_report,
)
from leibxmod.ratlin import RatMatrix
from leibxmod.tensor import schur_multiplier
from leibxmod.xmod import CrossedModule, XModHom

from helpers import center_quotient, central_extension_corpus
from test_ladder import load_ladder, rung_algebra
from test_rational_basis import _elementary, rebased_xmod


def _random_basis(d, rng):
    """(g, g^-1) for a product of two random elementary matrices."""
    g = ginv = RatMatrix.identity(d)
    for _ in range(2 if d else 0):
        e, einv = _elementary(d, rng.randrange(d), rng.randrange(d),
                              Fraction(rng.choice([-2, -1, 1, 2])))
        g, ginv = g.mul(e), einv.mul(ginv)
    return g, ginv


def _rebased_twin(e, rng):
    """e with its total in another basis: a second extension of the same
    quotient object."""
    (gt, gtinv), (gb, gbinv) = (_random_basis(e.total.top.dim, rng),
                                _random_basis(e.total.base.dim, rng))
    total = rebased_xmod(e.total, (gt, gtinv), (gb, gbinv))
    proj = XModHom(total, e.quotient, e.proj.top_map.mul(gt), e.proj.base_map.mul(gb))
    return Extension.from_projection(proj, f"{e.name}'")


def _kind(flags):
    return "cover" if flags.stem_cover else "stem" if flags.stem_extension else "not stem"


def _cli_doc(tmp_path, command, e):
    path = tmp_path / f"{command}.extension"
    path.write_text(cli.emit(cli.extension_doc(e)))
    out = tmp_path / f"{command}.json"
    code = cli.main([command, str(path), "--json", "--out", str(out)])
    return code, json.loads(out.read_text())


def _dense(m):
    return [[str(x) for x in row] for row in m.entries]


def test_paper_theorems_hold_on_generated_central_extensions(tmp_path):
    kinds = Counter()

    @settings(derandomize=True, database=None, max_examples=1, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def run(seed):
        by_kind, covers = defaultdict(list), defaultdict(list)
        for e in central_extension_corpus(seed):
            flags = classify(e)
            assert flags.central, e.name
            prop41_crosscheck(e)
            assert six_term_report(e).exact, e.name
            assert lemma35_check(e).valid, e.name
            mult, _ = schur_multiplier(e.quotient)
            assert flags.stem_cover == (flags.stem_extension and e.kernel.dims()
                                        == (mult.top.dim, mult.base.dim)), e.name
            kinds[_kind(flags)] += 1
            by_kind[_kind(flags)].append(e)
            if flags.stem_cover:
                covers[e.quotient].append(e)
        # Corollary 4.7 wherever two covers share a quotient, with a second
        # cover of each quotient in another basis of the total
        rng = random.Random(seed)
        for group in covers.values():
            twin = _rebased_twin(group[0], rng)
            assert classify(twin).stem_cover, twin.name
            for e1, e2 in itertools.combinations(group + [twin], 2):
                assert cor47_dimension_check(e1, e2).valid, (e1.name, e2.name)
        # the CLI reads back what the library reports, on seven of each kind
        for e in [e for group in by_kind.values() for e in group[:7]][:20]:
            flags, p41, rep = classify(e), prop41_crosscheck(e), six_term_report(e)
            assert _cli_doc(tmp_path, "classify-extension", e) == (0, {
                "extension": e.name, "central": True,
                "stem_extension": flags.stem_extension, "stem_cover": flags.stem_cover,
                "prop41": {k: getattr(p41, k) for k in (
                    "kernel_in_derived", "theta_surjective", "kernel_to_abelianization_zero",
                    "abelianizations_isomorphic", "theta_bijective",
                    "multiplier_map_vanishes")}}), e.name
            assert _cli_doc(tmp_path, "verify-sequence", e) == (0, {
                "extension": e.name, "exact": True,
                "nodes": [{"name": n.name, "exact": n.exact,
                           "image": [n.incoming_image_top.dim, n.incoming_image_base.dim],
                           "kernel": [n.outgoing_kernel_top.dim, n.outgoing_kernel_base.dim]}
                          for n in rep.nodes],
                "maps": [{"name": name, "top": _dense(t), "base": _dense(b)}
                         for name, t, b in rep.maps]}), e.name

    run()
    assert sum(kinds.values()) >= 200
    assert min(kinds[k] for k in ("not stem", "stem", "cover")) >= 10, kinds


@pytest.mark.parametrize("name, kind", [("heis9", "stem"), ("sl2x5", "cover"),
                                        ("tri6", "not stem")])
def test_paper_theorems_hold_on_ladder_center_quotients(name, kind):
    # the slow case of the corpus: (q, q, id) over its quotient by the
    # center, for q of dimension 9, 15 and 21; the dense reference lifts
    # through a plain and a skewed section of the projection
    e = center_quotient(CrossedModule.adjoint_identity(rung_algebra(load_ladder(), name)), name)
    flags = classify(e)
    assert flags.central and _kind(flags) == kind
    prop41_crosscheck(e)
    assert six_term_report(e).exact and lemma35_check(e).valid
    mult, _ = schur_multiplier(e.quotient)
    assert flags.stem_cover == (flags.stem_extension
                                and e.kernel.dims() == (mult.top.dim, mult.base.dim))
    kxm, _ = e.kernel_xmod
    for skew in (False, True):
        assert (e.theta.top_map, e.theta.base_map) == ref._theta_matrices(e, kxm, skew)
