"""Fixture parsing, canonical serialization, and the command surface."""

import contextlib
import gc
import io
import json
import shutil
import subprocess
import sys
import tempfile
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from leibxmod import cli, extensions, homology
from leibxmod.extensions import stem_cover_of_perfect
from leibxmod.ratlin import Subspace
from leibxmod.xmod import abelianization, derived_xmod, liezation, predicates

from helpers import child_env, count_law_evaluations, non_leibniz_inputs
from test_checks import PROPERTY

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

GOOD = [
    "zero.algebra", "k1.algebra", "k2.algebra", "k3.algebra", "n2.algebra",
    "heis3.algebra", "sl2.algebra", "n2_adjoint.action", "heis3_adjoint.action",
    "sl2_adjoint.action", "n2_id.xmod", "heis3_id.xmod", "sl2_id.xmod",
    "zero_n2.xmod", "zero_k.xmod", "n2pad.xmod", "id_n2.hom",
    "n2_over_k.extension", "split_over_n2.extension",
]

_DOCS = {
    "LeibnizAlgebra": cli.algebra_doc,
    "LeibnizAction": cli.action_doc,
    "CrossedModule": cli.xmod_doc,
    "AlgebraHom": cli.hom_doc,
    "XModHom": cli.hom_doc,
    "Extension": cli.extension_doc,
}


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# -- parsing and exit codes ------------------------------------------------------

def test_check_valid_algebra(capsys):
    code, out, _ = run(capsys, "check", FIXTURES / "n2.algebra")
    assert code == 0 and "valid" in out


def test_check_invalid_algebra_names_triple(capsys):
    code, out, _ = run(capsys, "check", FIXTURES / "bad_dim1.algebra")
    assert code == 1
    assert "(e,e,e)" in out


def test_check_malformed_rational_is_unreadable(capsys):
    code, _, err = run(capsys, "check", FIXTURES / "bad_rational.algebra")
    assert code == 2
    assert "malformed rational" in err


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", FIXTURES / "no_such.algebra")
    assert code == 2 and "cannot read" in err


def test_check_accepts_every_kind(capsys):
    for name in GOOD:
        code, out, err = run(capsys, "check", FIXTURES / name)
        assert code == 0, (name, err)
        assert "valid" in out


def test_check_invalid_hom(capsys):
    code, out, _ = run(capsys, "check", FIXTURES / "bad_hom.hom")
    assert code == 1 and "INVALID" in out


def test_check_json_document(capsys):
    code, out, _ = run(capsys, "check", FIXTURES / "n2.algebra", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["valid"] is True and doc["violations"] == []


def test_wrong_kind_is_unreadable(capsys):
    code, _, err = run(capsys, "multiplier", FIXTURES / "n2.algebra")
    assert code == 2 and "expected kind" in err


def test_unknown_field_rejected(tmp_path, capsys):
    p = tmp_path / "odd.algebra"
    p.write_text(json.dumps({"kind": "algebra", "name": "odd", "dim": 0,
                             "basis": [], "brackets": {}, "extra": 1}))
    code, _, err = run(capsys, "check", p)
    assert code == 2 and "unknown fields" in err


def test_duplicate_key_rejected(tmp_path, capsys):
    # with the last "e1" winning, this n2 table would load as abelian
    p = tmp_path / "dup.algebra"
    p.write_text('{"kind": "algebra", "name": "n2", "dim": 2, "basis": ["e1", "e2"], '
                 '"brackets": {"e1": {"e1": {"e2": "1"}}, "e1": {}}}')
    for argv in (("check", p), ("hl", p, "2")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "dup.algebra: duplicate key 'e1'" in err


@pytest.mark.parametrize("content, reason", [
    (b'{"kind":"algebra","name":"\xff","dim":0,"basis":[]}', "codec can't decode byte 0xff"),
    (b'{"kind":"algebra","name":"deep","dim":0,"basis":' + b"[" * 100_000 + b"]" * 100_000
     + b"}", "maximum recursion depth exceeded"),
    (b'{"kind":"algebra","name":"t","dim":true,"basis":["e1"]}',
     "dim must be a non-negative integer"),
    (b'{"kind":"algebra","name":7,"dim":0,"basis":[]}', "name must be a string, got 7"),
], ids=["not-utf8", "too-deep", "dim-true", "name-not-string"])
def test_unreadable_input_exits_2_with_one_error_line(tmp_path, capsys, content, reason):
    p = tmp_path / "odd.algebra"
    p.write_bytes(content)
    code, out, err = run(capsys, "check", p)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and reason in err


def test_action_endpoint_mismatch_rejected(tmp_path, capsys):
    doc = {"kind": "xmod", "name": "bad", "top": "n2", "base": "n2",
           "delta": {}, "action": "sl2_adjoint"}
    p = tmp_path / "bad.xmod"
    for name in ("n2.algebra", "sl2.algebra", "sl2_adjoint.action"):
        (tmp_path / name).write_text((FIXTURES / name).read_text())
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", p)
    assert code == 2 and "endpoints disagree" in err


# -- canonical serialization -------------------------------------------------------

def test_round_trip_on_fixture_corpus():
    for name in GOOD:
        obj = cli.load_fixture(FIXTURES / name)
        text = cli.emit(_DOCS[type(obj).__name__](obj))
        back = cli._parse_doc(json.loads(text), None,
                              cli._Ctx(FIXTURES, frozenset()), name)
        assert back == obj, name


def test_emit_is_deterministic():
    obj = cli.load_fixture(FIXTURES / "n2_over_k.extension")
    a = cli.emit(cli.extension_doc(obj))
    b = cli.emit(cli.extension_doc(cli.load_fixture(FIXTURES / "n2_over_k.extension")))
    assert a == b


# -- computations -------------------------------------------------------------------

def test_multiplier_reports(capsys):
    code, out, _ = run(capsys, "multiplier", FIXTURES / "zero_k.xmod")
    assert code == 0 and "M = (0, 1), rank δ| = 0" in out
    code, out, _ = run(capsys, "multiplier", FIXTURES / "n2_id.xmod")
    assert code == 0 and "M = (1, 1)" in out
    code, out, _ = run(capsys, "multiplier", FIXTURES / "sl2_id.xmod")
    assert code == 0 and "M = (0, 0)" in out


def test_multiplier_json(capsys):
    code, out, _ = run(capsys, "multiplier", FIXTURES / "n2_id.xmod", "--json")
    doc = json.loads(out)
    assert code == 0
    assert (doc["qn"]["dim"], doc["qq"]["dim"]) == (2, 2)
    assert doc["multiplier"] == {"top_dim": 1, "base_dim": 1, "rank_delta": 1,
                                 "delta": {"a1": {"b1": "1"}}}


def test_multiplier_evaluates_each_law_once_per_object(monkeypatch, capsys):
    calls = count_law_evaluations(monkeypatch)
    assert cli.main(["multiplier", str(FIXTURES / "heis3_id.xmod"), "--json"]) == 0
    capsys.readouterr()
    # the input's action, which is also the bracket action of its base
    # since the input is (q, q, id), and the action on the squares; the
    # input and the crossed module of its squares
    assert calls["action"] == 2
    assert calls["xmod"] == 2


def test_multiplier_memo_stays_bounded(capsys):
    # one process, more distinct inputs than the memo holds: it keeps the
    # last of them, in place of an equal reload, and an input that has
    # left the memo is freed with the squares cached on it
    names = ["zero_k.xmod", "zero_n2.xmod", "n2_id.xmod", "n2pad.xmod", "heis3_id.xmod",
             "sl2_id.xmod"]
    for i, name in enumerate(names):
        assert cli.main(["multiplier", str(FIXTURES / name), "--json"]) == 0
        last = cli.load_fixture(FIXTURES / name)
        assert cli._last[2] is last and "squares" in vars(last)
        if i == 0:
            first = weakref.ref(last)
        del last
    capsys.readouterr()
    gc.collect()
    assert first() is None


def test_an_equal_input_reuses_the_loaded_analyses(monkeypatch, capsys, tmp_path):
    # a byte-identical copy at another path is the same input: the second
    # command reads the reports the first one cached on it
    copy = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, copy)
    calls = count_law_evaluations(monkeypatch)
    for command in ("classify-extension", "verify-sequence"):
        code, first, _ = run(capsys, command, FIXTURES / "split_over_n2.extension", "--json")
        assert code == 0 and calls
        calls.clear()
        code, again, _ = run(capsys, command, copy / "split_over_n2.extension", "--json")
        assert (code, again) == (0, first) and not calls, command


def test_an_input_that_differs_in_a_name_is_recomputed(monkeypatch, capsys, tmp_path):
    # names are part of the memo's key, because outputs print them
    doc = json.loads((FIXTURES / "split_over_n2.extension").read_text())
    doc["name"] = "renamed_split"
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    renamed = tmp_path / "fixtures" / "renamed.extension"
    renamed.write_text(json.dumps(doc))
    code, first, _ = run(capsys, "verify-sequence", FIXTURES / "split_over_n2.extension",
                         "--json")
    assert code == 0
    calls = count_law_evaluations(monkeypatch)
    code, again, _ = run(capsys, "verify-sequence", renamed, "--json")
    assert code == 0 and calls["xmod_hom"]
    assert json.loads(again)["extension"] == "renamed_split"
    assert again.replace("renamed_split", "split_over_n2") == first


def _inline_adjoint_identity(q):
    """The document of (q, q, id) with q written out at each of its four
    places, as perfbench writes its squares inputs."""
    a = cli.algebra_doc(q)
    return {"kind": "xmod", "name": f"({q.name},{q.name},id)", "top": a, "base": a,
            "delta": {b: {b: "1"} for b in q.basis_names},
            "action": {"kind": "action", "name": "adjoint", "actor": a, "acted": a,
                       "left": a["brackets"], "right": a["brackets"]}}


def test_an_inline_adjoint_identity_parses_one_algebra(tmp_path):
    p = tmp_path / "q.xmod"
    p.write_text(json.dumps(_inline_adjoint_identity(cli.load_fixture(FIXTURES / "heis3.algebra"))))
    xm = cli.load_fixture(p)
    assert xm.top is xm.base is xm.action.actor is xm.action.acted


def _counting_parses(monkeypatch):
    parsed, real = [], cli._parse_doc
    monkeypatch.setattr(cli, "_parse_doc", lambda doc, *a: parsed.append(doc) or real(doc, *a))
    return parsed


def test_a_repeated_self_contained_text_is_not_parsed_again(monkeypatch, capsys, tmp_path):
    # the text of the last input, at any path and with no file referenced,
    # is the same input: neither decoded nor parsed
    text = (FIXTURES / "n2pad.xmod").read_text()
    for name in ("a.xmod", "b.xmod"):
        (tmp_path / name).write_text(text)
    parsed = _counting_parses(monkeypatch)
    code, first, _ = run(capsys, "multiplier", tmp_path / "a.xmod", "--json")
    assert code == 0 and parsed
    parsed.clear()
    code, again, _ = run(capsys, "exterior", tmp_path / "b.xmod", "--json")
    assert code == 0 and not parsed
    assert run(capsys, "check", tmp_path / "a.xmod")[0] == 0 and not parsed
    xm = cli.load_fixture(tmp_path / "a.xmod")
    assert xm is cli.load_fixture(tmp_path / "b.xmod", expect="xmod") and not parsed
    assert "squares" in vars(xm)
    # the same text under another expected kind is read again, to its error
    code, _, err = run(capsys, "classify-extension", tmp_path / "a.xmod")
    assert code == 2 and err == "error: a.xmod: expected kind 'extension', found 'xmod'\n"
    # a text that leaves its kind to the command is read again by each
    doc = json.loads(text)
    del doc["kind"]
    (tmp_path / "c.xmod").write_text(json.dumps(doc))
    assert run(capsys, "multiplier", tmp_path / "c.xmod")[0] == 0
    code, _, err = run(capsys, "check", tmp_path / "c.xmod")
    assert code == 2 and err == "error: c.xmod: unknown kind None\n"


def test_a_referencing_input_is_parsed_again_and_sees_edits(monkeypatch, capsys, tmp_path):
    for name in ("n2.algebra", "n2_adjoint.action", "n2_id.xmod"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    parsed = _counting_parses(monkeypatch)
    code, first, _ = run(capsys, "exterior", tmp_path / "n2_id.xmod", "--json")
    assert code == 0 and parsed
    # one load reads n2.algebra three times and parses it once
    assert [d["kind"] for d in parsed].count("algebra") == 1
    parsed.clear()
    code, again, _ = run(capsys, "exterior", tmp_path / "n2_id.xmod", "--json")
    assert (code, again) == (0, first) and parsed
    doc = json.loads((tmp_path / "n2.algebra").read_text())
    doc["name"] = "m2"
    (tmp_path / "n2.algebra").write_text(json.dumps(doc))
    code, edited, _ = run(capsys, "exterior", tmp_path / "n2_id.xmod", "--json")
    assert code == 0 and json.loads(edited)["qn"]["name"] == "m2(^)m2"


def test_sub_documents_that_differ_in_true_and_1_are_not_merged(tmp_path, capsys):
    # {"dim": 1} == {"dim": True} in Python; their JSON texts differ
    k1 = {"kind": "algebra", "name": "k", "dim": 1, "basis": ["e"], "brackets": {}}
    doc = _inline_adjoint_identity(cli.load_fixture(FIXTURES / "k1.algebra"))
    doc.update(top=k1, base={**k1, "dim": True})
    p = tmp_path / "t.xmod"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", p)
    assert (code, out) == (2, "")
    assert err == "error: t.xmod.base: dim must be a non-negative integer\n"


def test_a_sub_document_nested_near_the_recursion_limit_exits_2(tmp_path, capsys):
    # decoded, but too deep to key: it still parses to its error
    (tmp_path / "k1.algebra").write_text((FIXTURES / "k1.algebra").read_text())
    p = tmp_path / "deep.xmod"
    for depth in range(sys.getrecursionlimit() - 150, sys.getrecursionlimit(), 3):
        actor = {"kind": "algebra", "name": "t", "dim": 0, "basis": [], "brackets": 0}
        text = json.dumps({"kind": "xmod", "name": "x", "top": "k1", "base": "k1",
                           "action": {"kind": "action", "actor": actor, "acted": "k1"}})
        p.write_text(text.replace('"brackets": 0', '"brackets": ' + "[" * depth + "]" * depth))
        code, out, err = run(capsys, "check", p)
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err in ("error: deep.xmod.action.actor.brackets: expected a mapping\n",
                       "error: deep.xmod: not a JSON document (maximum recursion depth "
                       "exceeded while decoding a JSON array from a unicode string)\n")


@pytest.mark.parametrize("place, entry, value, message", [
    ("base", ("x", "y", "w"), "1", "t.xmod.base.brackets[x][y]: unknown basis name 'w'"),
    ("top", ("y", "x", "z"), "--1", "t.xmod.top.brackets[y][x][z]: malformed rational '--1'"),
    ("top", ("y", "x", "z"), 1, "t.xmod.top.brackets[y][x][z]: rationals must be strings, got 1"),
    ("left", ("y", "x", "z"), "1/0", "t.xmod.action.left[y][x][z]: malformed rational '1/0'"),
    ("right", ("y", "x", "q"), "1", "t.xmod.action.right[y][x]: unknown basis name 'q'"),
    ("right", ("y", "x"), [], "t.xmod.action.right[y][x]: expected a sparse mapping, got []"),
    ("left", ("y",), "x", "t.xmod.action.left[y]: expected a mapping"),
])
def test_a_deep_error_names_its_place_byte_for_byte(tmp_path, capsys, place, entry,
                                                     value, message):
    # the location of an entry is formatted only when it is an error's
    doc = _inline_adjoint_identity(cli.load_fixture(FIXTURES / "heis3.algebra"))
    doc = json.loads(json.dumps(doc))  # four separate copies of heis3
    table = (doc[place]["brackets"] if place in ("top", "base")
             else doc["action"][place])
    for k in entry[:-1]:
        table = table.setdefault(k, {})
    table[entry[-1]] = value
    p = tmp_path / "t.xmod"
    p.write_text(json.dumps(doc))
    for command in ("check", "multiplier"):
        code, out, err = run(capsys, command, p)
        assert (code, out, err) == (2, "", f"error: {message}\n")


# strings near the grammar of Fraction: signs, slashes, points, exponents,
# underscores, blanks and a non-ASCII digit, and quotients
RATIONAL_TEXTS = st.one_of(
    st.text(alphabet="0123456789-+/._eE \u0663", max_size=8),
    st.from_regex(r"-?[0-9]{1,5}(/[0-9]{1,3})?", fullmatch=True),
    st.fractions().map(str),
)


@PROPERTY
@given(RATIONAL_TEXTS)
def test_a_rational_reads_as_fraction_reads_it(s):
    # a rational is Fraction(s); every string Fraction refuses exits 2
    # with one message
    try:
        want = Fraction(s)
    except (ValueError, ZeroDivisionError):
        doc = {"kind": "algebra", "name": "t", "dim": 1, "basis": ["e"],
               "brackets": {"e": {"e": {"e": s}}}}
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "t.algebra"
            p.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert cli.main(["check", str(p)]) == 2
        assert err.getvalue() == f"error: t.algebra.brackets[e][e][e]: malformed rational {s!r}\n"
    else:
        assert cli._rat(s, "t") == want


def test_the_parser_serves_every_command_of_a_process(capsys):
    # built once: usage errors leave it as it was, and a valid command
    # after them prints what it prints in a fresh process
    for _ in range(2):
        with pytest.raises(SystemExit) as ex:
            cli.main(["multiplier"])
        assert ex.value.code == 2
    capsys.readouterr()
    argv = ["multiplier", str(FIXTURES / "n2_id.xmod"), "--json"]
    code, out, _ = run(capsys, *argv)
    fresh = subprocess.run([sys.executable, "-m", "leibxmod", *argv],
                           capture_output=True, text=True, env=child_env())
    assert (code, out) == (fresh.returncode, fresh.stdout)


def test_exterior_report(capsys):
    code, out, _ = run(capsys, "exterior", FIXTURES / "n2_id.xmod")
    assert code == 0
    assert "basis [e1*e1, e2*e1]" in out
    assert "evaluation to top: rank 1" in out


def test_classify_cover(capsys):
    code, out, _ = run(capsys, "classify-extension",
                       FIXTURES / "n2_over_k.extension")
    assert code == 0
    assert out.splitlines()[0] == "central ✓ stem ✓ cover ✓"


def test_classify_split_flips_stem(capsys):
    code, out, _ = run(capsys, "classify-extension",
                       FIXTURES / "split_over_n2.extension")
    assert code == 0
    assert out.splitlines()[0] == "central ✓ stem ✗ cover ✗"


def test_verify_sequence(capsys):
    code, out, _ = run(capsys, "verify-sequence",
                       FIXTURES / "n2_over_k.extension")
    assert code == 0
    assert "exact at 4/4 interior nodes" in out


def test_verify_sequence_json(capsys):
    code, out, _ = run(capsys, "verify-sequence",
                       FIXTURES / "n2_over_k.extension", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["exact"] is True
    assert [n["name"] for n in doc["nodes"]] == [
        "M(total)", "M(quotient)", "kernel", "total_ab", "quotient_ab"]
    assert all(n["exact"] for n in doc["nodes"])


def test_hl_values(capsys):
    code, out, _ = run(capsys, "hl", FIXTURES / "n2.algebra", "2")
    assert code == 0 and out == "1\n"
    code, out, _ = run(capsys, "hl", FIXTURES / "k3.algebra", "2")
    assert code == 0 and out == "9\n"


def test_hl_degree_out_of_range(capsys):
    code, _, err = run(capsys, "hl", FIXTURES / "n2.algebra", "9")
    assert code == 1 and "degree" in err


def test_hl_over_size_budget_exits_1(capsys, monkeypatch):
    # heis3 has dim 3: hl 2 needs d_3, which is 9x27 = 243 entries
    monkeypatch.setattr(homology, "MAX_BOUNDARY_ENTRIES", 242)
    code, out, err = run(capsys, "hl", FIXTURES / "heis3.algebra", "2")
    assert code == 1 and out == ""
    assert "9x27 = 243 entries" in err and "budget of 242" in err
    code, out, _ = run(capsys, "hl", FIXTURES / "heis3.algebra", "1")
    assert code == 0 and out == "2\n"  # heis3 / [heis3, heis3]


def test_hl_refuses_a_non_leibniz_algebra(capsys):
    # the command reads the algebra's report first; homology.hl itself
    # stays defined on any table
    rep = cli.load_fixture(FIXTURES / "bad_dim1.algebra").validity
    assert not rep.valid
    for json_flag in ((), ("--json",)):
        code, out, err = run(capsys, "hl", FIXTURES / "bad_dim1.algebra", "2", *json_flag)
        assert (code, out) == (1, "")
        assert err == f"error: invalid Leibniz algebra:\n{rep.summary()}\n"
    assert homology.hl(cli.load_fixture(FIXTURES / "bad_dim1.algebra"), 2) == -1


def test_check_prints_the_report_cached_on_the_object(capsys):
    for name in GOOD + ["bad_dim1.algebra", "bad_hom.hom"]:
        rep = cli.load_fixture(FIXTURES / name).validity
        code, out, _ = run(capsys, "check", FIXTURES / name)
        assert (code, out) == (0 if rep.valid else 1, rep.summary() + "\n"), name


def test_stemcover_emits_reloadable_total(tmp_path, capsys):
    out_file = tmp_path / "cover.xmod"
    code, _, _ = run(capsys, "stemcover", FIXTURES / "sl2_id.xmod",
                     "--out", out_file)
    assert code == 0
    emitted = cli.load_fixture(out_file)
    expected = stem_cover_of_perfect(cli.load_fixture(FIXTURES / "sl2_id.xmod"))
    assert emitted == expected.total


def test_stemcover_refuses_non_perfect(capsys):
    code, _, err = run(capsys, "stemcover", FIXTURES / "n2_id.xmod")
    assert code == 1 and "not perfect" in err


# (q,q,id) with the adjoint action and a delta that breaks the laws
INVALID_XMODS = {
    "n2-zero-delta": ("n2", {}),
    "n2-swapped-delta": ("n2", {"e1": {"e2": "1"}, "e2": {"e1": "1"}}),
    "sl2-doubled-delta": ("sl2", {b: {b: "2"} for b in ("e", "f", "h")}),
}


def invalid_xmod(tmp_path, variant):
    """The fixture file of one invalid variant, written into tmp_path."""
    q, delta = INVALID_XMODS[variant]
    for name in (f"{q}.algebra", f"{q}_adjoint.action"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    p = tmp_path / f"{variant}.xmod"
    p.write_text(json.dumps({"kind": "xmod", "name": f"({q},{q},id)", "top": q,
                             "base": q, "delta": delta, "action": f"{q}_adjoint"}))
    return p


@pytest.mark.parametrize("variant", sorted(INVALID_XMODS))
@pytest.mark.parametrize("command", ["multiplier", "exterior", "stemcover", "liezation"])
def test_invalid_crossed_module_exits_1(tmp_path, capsys, command, variant):
    # invalid input, not an internal error: no command reaches exit 3
    code, out, err = run(capsys, command, invalid_xmod(tmp_path, variant))
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid crossed module:")


@pytest.mark.parametrize("variant", sorted(INVALID_XMODS))
def test_library_refuses_an_invalid_crossed_module(tmp_path, variant):
    xm = cli.load_fixture(invalid_xmod(tmp_path, variant))
    for fn in (derived_xmod, abelianization, predicates, stem_cover_of_perfect,
               liezation):
        with pytest.raises(ValueError, match="^invalid crossed module:"):
            fn(xm)


def test_check_refuses_an_action_over_a_non_leibniz_algebra(tmp_path, capsys):
    paths = non_leibniz_inputs(tmp_path)
    assert run(capsys, "check", paths["nj3.algebra"])[0] == 1
    for name in ("trivial.action", "nj3.xmod"):
        code, out, _ = run(capsys, "check", paths[name])
        assert code == 1 and "  leibniz nj3 (e1,e2,e3): residual ('0', '0', '1')" in out, name


def test_check_lists_a_crossed_module_that_is_total_and_quotient_once(tmp_path, capsys):
    # the identity extension of (0, nj3, 0): one crossed module, six Leibniz violations
    code, out, _ = run(capsys, "check", non_leibniz_inputs(tmp_path)["nj3.extension"])
    lines = [line for line in out.splitlines() if line.startswith("  leibniz nj3 (")]
    assert code == 1 and "INVALID (6 violation(s))" in out
    assert len(lines) == len(set(lines)) == 6


@pytest.mark.parametrize("name", ["nj3.hom", "nj3_xmod.hom"])
def test_check_lists_the_invalid_endpoint_of_a_hom_once(tmp_path, capsys, name):
    # the identity of nj3 and of (0, nj3, 0): the hom's own laws hold, and
    # the endpoint's six Leibniz violations make it invalid
    code, out, _ = run(capsys, "check", non_leibniz_inputs(tmp_path)[name])
    lines = [line for line in out.splitlines() if line.startswith("  leibniz nj3 (")]
    assert code == 1 and "INVALID (6 violation(s))" in out
    assert len(lines) == len(set(lines)) == 6


@pytest.mark.parametrize("command, name, error", [
    *[(c, "nj3.xmod", "invalid crossed module")
      for c in ("multiplier", "exterior", "stemcover", "liezation")],
    *[(c, "nj3.extension", "invalid extension")
      for c in ("classify-extension", "verify-sequence")]])
def test_commands_refuse_a_crossed_module_over_a_non_leibniz_algebra(
        tmp_path, capsys, command, name, error):
    # invalid input, refused with its reason, never an internal error
    code, out, err = run(capsys, command, non_leibniz_inputs(tmp_path)[name])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {error}:") and "leibniz nj3 (" in err


def test_liezation_emits_reloadable_quotient(tmp_path, capsys):
    out_file = tmp_path / "lz.xmod"
    code, _, _ = run(capsys, "liezation", FIXTURES / "n2_id.xmod",
                     "--out", out_file)
    assert code == 0
    emitted = cli.load_fixture(out_file)
    expected, _ = liezation(cli.load_fixture(FIXTURES / "n2_id.xmod"))
    assert emitted == expected


def test_verify_refuses_non_central(tmp_path, capsys):
    # collapsing (n2,n2,id) to the zero crossed module has the full pair as
    # kernel, which escapes the center
    doc = {"kind": "extension", "name": "collapse", "total": "n2_id",
           "quotient": "zero_xmod",
           "projection": {"top_map": {}, "base_map": {}}}
    zero_alg = {"kind": "algebra", "name": "zero", "dim": 0, "basis": [],
                "brackets": {}}
    zero_xm = {"kind": "xmod", "name": "zero_xmod", "top": zero_alg,
               "base": zero_alg,
               "delta": {},
               "action": {"kind": "action", "name": "z", "actor": zero_alg,
                          "acted": zero_alg, "left": {}, "right": {}}}
    for name in ("n2.algebra", "n2_adjoint.action", "n2_id.xmod"):
        (tmp_path / name).write_text((FIXTURES / name).read_text())
    (tmp_path / "zero_xmod.xmod").write_text(json.dumps(zero_xm))
    (tmp_path / "collapse.extension").write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify-sequence", tmp_path / "collapse.extension")
    assert code == 1 and "central" in err


def test_failed_invariant_exits_3(capsys, monkeypatch):
    # a connecting map that depends on the lift breaks a runtime-asserted
    # theorem: that is an internal error (3), not invalid input (1).  Here
    # the induced map on the base square of n2_over_k is taken to have the
    # whole square as its kernel, on which the evaluation does not vanish
    with monkeypatch.context() as patch:
        patch.setattr(extensions, "kernel", lambda m: Subspace.full(m.cols))
        code, out, err = run(capsys, "classify-extension",
                             FIXTURES / "n2_over_k.extension")
    assert code == 3 and out == ""
    assert err == ("error: internal invariant failed: "
                   "connecting map depends on the chosen sections\n")

    # only the first line of a multi-line report is printed
    def fails_with_report(m, rhs):
        raise AssertionError("law broken:\n  witness (e1,e2)")

    monkeypatch.setattr(extensions, "solve_matrix", fails_with_report)
    code, _, err = run(capsys, "verify-sequence", FIXTURES / "split_over_n2.extension")
    assert code == 3 and err == "error: internal invariant failed: law broken:\n"


@pytest.mark.parametrize("side", ["top", "base"])
def test_a_multiplier_that_does_not_lift_exits_3(capsys, monkeypatch, side):
    # the connecting map lifts the multiplier through the induced square
    # maps, which are asserted surjective: a failed solve is internal (3),
    # not invalid input (1)
    real, calls = extensions.solve_matrix, []

    def fails(m, rhs):
        calls.append(m)
        if len(calls) == ("top", "base").index(side) + 1:
            raise ValueError("inconsistent linear system")
        return real(m, rhs)

    monkeypatch.setattr(extensions, "solve_matrix", fails)
    code, out, err = run(capsys, "classify-extension", FIXTURES / "n2_over_k.extension")
    assert (code, out) == (3, "")
    assert err == ("error: internal invariant failed: "
                   f"multiplier {side} does not lift to the total\n")


def test_json_outputs_stable(capsys):
    invocations = [
        ("check", FIXTURES / "n2.algebra"),
        ("multiplier", FIXTURES / "n2_id.xmod"),
        ("exterior", FIXTURES / "n2_id.xmod"),
        ("classify-extension", FIXTURES / "n2_over_k.extension"),
        ("verify-sequence", FIXTURES / "n2_over_k.extension"),
        ("hl", FIXTURES / "n2.algebra", "2"),
    ]
    for argv in invocations:
        _, first, _ = run(capsys, *argv, "--json")
        _, second, _ = run(capsys, *argv, "--json")
        assert first == second, argv


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "leibxmod", "hl",
         str(FIXTURES / "n2.algebra"), "2"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


@pytest.mark.parametrize("argv", [
    ("check", "n2.algebra"), ("multiplier", "n2_id.xmod", "--json"),
    ("exterior", "n2_id.xmod"), ("classify-extension", "n2_over_k.extension"),
    ("verify-sequence", "n2_over_k.extension", "--json"), ("stemcover", "sl2_id.xmod"),
    ("liezation", "n2_id.xmod"), ("hl", "n2.algebra", "2")], ids=lambda argv: argv[0])
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_an_unwritable_out_exits_2_with_one_error_line(tmp_path, capsys, argv, target):
    out = tmp_path / "missing" / "x.json" if target == "missing" else tmp_path
    command, name, *rest = argv
    code, stdout, err = run(capsys, command, FIXTURES / name, *rest, "--out", out)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert "Traceback" not in err
