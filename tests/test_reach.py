"""The functions of the package that no command reaches.

All eight commands run on every fixture, plain and with --json, in this
process under sys.setprofile, after the process-wide caches (the parser,
the join's key getters and the last loaded input) are emptied.  Every
function of src/ that no call reaches must be on UNREACHED, with the
reason it stays, and nothing else may be: dead code shows up the moment
it appears, and a function a command starts to reach leaves the list.
"""

import contextlib
import inspect
import io
import sys
import types
from pathlib import Path

import leibxmod
from leibxmod import cli, ratlin

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(leibxmod.__file__).resolve().parent
COMMANDS = ("check", "multiplier", "exterior", "classify-extension",
            "verify-sequence", "stemcover", "liezation", "hl")

DENSE = "dense constructor or view: tools/ladder.py, verify-sequence's maps and the tests"
TESTS = "library entry point the tests and the oracles use"
UNREACHED = {
    # failure paths: reached only when a runtime assertion fails
    "tensor._scan": "failure path: names the relation and symbol an ill-defined bracket escapes by",
    "tensor._representatives": "failure path: the full table _scan reads",
    # paper claims with no command
    "extensions.lemma35_check": "paper claim: Lemma 3.5, the abelian connecting structure",
    "extensions.cor47_dimension_check": "paper claim: Corollary 4.7, two stem covers compared",
    "extensions.theta_star": "paper claim: the connecting map theta*, by name",
    "extensions.central_kernel_xmod": "paper claim: the central kernel as a crossed module, by name",
    # read by perfbench
    "homology.boundary": "perfbench's homology probe reads the boundary matrices",
    "xmod.center_xmod": "perfbench's probe reads the center",
    "xmod.abelianization": "perfbench's probe reads the abelianization",
    # dense constructors and views
    "algebra.LeibnizAlgebra.__init__": DENSE,
    "algebra.LeibnizAlgebra.c": DENSE,
    "algebra.LeibnizAction.__init__": DENSE,
    "algebra.LeibnizAction.left": DENSE,
    "algebra.LeibnizAction.right": DENSE,
    "algebra._densified": "the body of the dense views c, left and right",
    "ratlin.RatMatrix.__init__": DENSE,
    "ratlin.RatMatrix.column": DENSE,
    "ratlin.Subspace.basis": DENSE,
    "ratlin.sparse": "the dense constructors' conversion of a vector",
    "ratlin.sparse_table": "the dense constructors' conversion of a table",
    # constructors and entry points the tests use
    "algebra.AlgebraHom.identity": TESTS,
    "algebra.center": TESTS,
    "ratlin.Subspace.add": TESTS,
    "ratlin.Subspace.zero": TESTS,
    "xmod.XModHom.identity": TESTS,
    "xmod.derived_xmod": TESTS,
    "extensions.Extension.from_quotient_by": TESTS,
    "extensions.check_extension": TESTS,
    "cli.hom_doc": "writer of hom documents: the round-trip tests",
    "cli.extension_doc": "writer of extension documents: the round-trip tests",
    "cli._maps_doc": "the maps of hom and extension documents",
}


def functions() -> dict:
    """(file, first line) -> "module.qualname" for every function of src/."""
    out = {}

    def walk(code, module):
        for c in code.co_consts:
            if isinstance(c, types.CodeType):
                if c.co_flags & inspect.CO_NEWLOCALS and not c.co_name.startswith("<"):
                    out[c.co_filename, c.co_firstlineno] = f"{module}.{c.co_qualname}"
                walk(c, module)
    for p in sorted(SRC.glob("*.py")):
        walk(compile(p.read_text(encoding="utf-8"), str(p), "exec"), p.stem)
    return out


def reached() -> set:
    """The code objects called while every command runs on every fixture."""
    cli._parser.cache_clear()
    ratlin._keyed.cache_clear()
    cli._last = (None, None, None)
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)
    sys.setprofile(profile)
    try:
        for p in sorted(FIXTURES.iterdir()):
            for command in COMMANDS:
                for flags in ([], ["--json"]):
                    argv = [command, str(p)] + (["2"] if command == "hl" else []) + flags
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        cli.main(argv)
    finally:
        sys.setprofile(None)
    return seen


def test_every_unreached_function_is_listed_with_its_reason():
    found = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in reached()}
    names = functions()
    unreached = {name for key, name in names.items() if key not in found}
    assert unreached == set(UNREACHED)
