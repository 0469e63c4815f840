"""Fixture files and the command-line interface.

Fixture files are JSON documents (UTF-8) with a top-level ``kind`` of
``algebra``, ``action``, ``xmod``, ``hom``, or ``extension``.  Every
rational number is a string ("3", "-1/2"); floats are rejected outright.
Bracket tables, action tables, connecting maps, and hom matrices are
sparse mappings keyed by basis names, with omitted entries meaning zero.
Where a field expects a sub-object (an algebra inside an action, the
total of an extension), it may hold either an inline document or a bare
name, which resolves to ``<name>.<kind>`` in the directory of the
referencing file.

Document shapes, with all sparse mappings optional per entry::

    algebra    name, dim, basis (list of distinct names),
               brackets[left][right] = {basis: rational}
    action     name, actor, acted (algebra refs),
               left[actor_basis][acted_basis]  = {acted_basis: rational},
               right[acted_basis][actor_basis] = {acted_basis: rational}
    xmod       name, top, base (algebra refs), action (action ref whose
               endpoints must equal base/top),
               delta[top_basis] = {base_basis: rational}
    hom        name, source, target; either matrix[src_basis] =
               {tgt_basis: rational} between algebras, or top_map and
               base_map between crossed modules
    extension  name, total, quotient (xmod refs),
               projection = {top_map, base_map}; the kernel pair is
               recomputed from the projection

Commands print a human-readable report by default and a canonical JSON
document under ``--json``; ``--out`` redirects the payload to a file.
``stemcover`` and ``liezation`` always emit the constructed crossed
module as a fixture document, so their output can be fed back in.

Analyses are cached on the objects they belong to.  ``load_fixture``
returns the object it loaded last in place of an equal one (equal
integer twins and names), and for the same text, without parsing it, if
that names its kind and references no file; so a second command on the
same input, say ``verify-sequence`` after ``classify-extension``, reads
them again.

Exit codes: 0 the input was read and found valid (or the computation
succeeded), 1 the input was read but is invalid or fails a precondition
(not a valid crossed module, an action or crossed module over an
algebra that fails the Leibniz identity, a homomorphism between
invalid endpoints, not a Leibniz algebra for
``hl``, not central, not perfect, degree out of range): every
ValueError the library raises, 2 the input could not
be turned into a domain object at all (missing file, malformed JSON,
a key repeated within one JSON object, zero denominator, unknown basis
name, unresolvable reference) or the output could not be written
(``--out`` in a missing directory, or naming one), 3 a theorem the
library asserts at runtime failed: an internal error, reported as one
stderr line.  The commands raise; ``main`` alone turns each exception
into its exit code and its ``error:`` message.  ``check`` prints the report of an invalid
input on stdout and exits 1 without raising.
"""

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .algebra import AlgebraHom, LeibnizAction, LeibnizAlgebra, ValidityReport
from .extensions import (
    Extension,
    classify,
    prop41_crosscheck,
    six_term_report,
    stem_cover_of_perfect,
)
from .homology import hl
from .ratlin import RatMatrix, integer_view, kernel, rank
from .tensor import exterior_square_data, schur_multiplier
from .xmod import CrossedModule, XModHom, liezation


class FixtureError(Exception):
    """Anything that keeps a file from being read as a domain object or written."""


_FIELDS = {
    "algebra": {"kind", "name", "dim", "basis", "brackets"},
    "action": {"kind", "name", "actor", "acted", "left", "right"},
    "xmod": {"kind", "name", "top", "base", "delta", "action"},
    "hom": {"kind", "name", "source", "target", "matrix", "top_map", "base_map"},
    "extension": {"kind", "name", "total", "quotient", "projection"},
}


@dataclass(frozen=True)
class _Ctx:
    directory: Path
    active: frozenset  # resolved paths currently being loaded (cycle guard)
    parsed: dict = field(default_factory=dict)  # one load's objects: see _subobject


def _require(doc, field, where):
    if field not in doc:
        raise FixtureError(f"{where}: missing field {field!r}")
    return doc[field]


def _at(where):
    """The text of a location: a string, or (where, key) for the entry at key."""
    return where if isinstance(where, str) else f"{_at(where[0])}[{where[1]}]"


def _rat(s, where):
    if not isinstance(s, str):
        raise FixtureError(f"{_at(where)}: rationals must be strings, got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise FixtureError(f"{_at(where)}: malformed rational {s!r}") from None


def _by_name(doc, names, where, read):
    """doc = {basis name: value} as {index in names: read(value, (where, name))}."""
    if not isinstance(doc, dict):
        raise FixtureError(f"{_at(where)}: expected a mapping")
    index = {n: i for i, n in enumerate(names)}
    out = {}
    for k, v in doc.items():
        if k not in index:
            raise FixtureError(f"{_at(where)}: unknown basis name {k!r}")
        out[index[k]] = read(v, (where, k))
    return out


def _sparse_vec(doc, names, where):
    """Sparse doc = {basis name: rational}, as a sorted sparse vector."""
    if not isinstance(doc, dict):
        raise FixtureError(f"{_at(where)}: expected a sparse mapping, got {doc!r}")
    v = _by_name(doc, names, where, _rat)
    return tuple(sorted((i, t) for i, t in v.items() if t))


def _table(doc, row_names, col_names, out_names, where):
    """Sparse doc[row][col] = vector over out_names, as table entries."""
    def row(r, at):
        return _by_name(r, col_names, at, lambda sv, at: _sparse_vec(sv, out_names, at))
    rows = _by_name(doc, row_names, where, row)
    return tuple(sorted(((i, j), v) for i, r in rows.items() for j, v in r.items() if v))


def _matrix(doc, src_names, tgt_names, where):
    """Sparse doc[src] = vector over tgt_names, as a column matrix."""
    cols = _by_name(doc, src_names, where, lambda sv, at: _sparse_vec(sv, tgt_names, at))
    return RatMatrix.from_sparse(len(tgt_names), integer_view(
        tuple(cols.get(j, ()) for j in range(len(src_names))), 1))


def _maps(doc, src, tgt, where):
    """The top_map and base_map of doc, a crossed module map src -> tgt."""
    return tuple(_matrix(_require(doc, key, where), getattr(src, side).basis_names,
                         getattr(tgt, side).basis_names, f"{where}.{key}")
                 for key, side in (("top_map", "top"), ("base_map", "base")))


def _parse_algebra(doc, ctx, where):
    name = _require(doc, "name", where)
    dim = _require(doc, "dim", where)
    basis = _require(doc, "basis", where)
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise FixtureError(f"{where}: dim must be a non-negative integer")
    if (not isinstance(basis, list) or len(basis) != dim
            or len(set(basis)) != dim
            or not all(isinstance(b, str) for b in basis)):
        raise FixtureError(f"{where}: basis must list {dim} distinct names")
    st = _table(doc.get("brackets", {}), basis, basis, basis, f"{where}.brackets")
    return LeibnizAlgebra.from_sparse(name, basis, integer_view(st))


def _parse_action(doc, ctx, where):
    actor = _subobject(doc, "actor", "algebra", ctx, where)
    acted = _subobject(doc, "acted", "algebra", ctx, where)
    left = _table(doc.get("left", {}), actor.basis_names, acted.basis_names,
                  acted.basis_names, f"{where}.left")
    right = _table(doc.get("right", {}), acted.basis_names, actor.basis_names,
                   acted.basis_names, f"{where}.right")
    den, (sl, sr) = integer_view((left, right), 3)
    return LeibnizAction.from_sparse(actor, acted, den, sl, sr)


def _parse_xmod(doc, ctx, where):
    name = _require(doc, "name", where)
    top = _subobject(doc, "top", "algebra", ctx, where)
    base = _subobject(doc, "base", "algebra", ctx, where)
    delta = _matrix(doc.get("delta", {}), top.basis_names, base.basis_names,
                    f"{where}.delta")
    action = _subobject(doc, "action", "action", ctx, where)
    if action.actor != base or action.acted != top:
        raise FixtureError(
            f"{where}: action endpoints disagree with the base/top algebras")
    return CrossedModule(name, top, base, delta, action)


def _parse_hom(doc, ctx, where):
    if "matrix" in doc:
        src = _subobject(doc, "source", "algebra", ctx, where)
        tgt = _subobject(doc, "target", "algebra", ctx, where)
        return AlgebraHom(src, tgt, _matrix(doc["matrix"], src.basis_names,
                                            tgt.basis_names, f"{where}.matrix"))
    src = _subobject(doc, "source", "xmod", ctx, where)
    tgt = _subobject(doc, "target", "xmod", ctx, where)
    return XModHom(src, tgt, *_maps(doc, src, tgt, where))


def _parse_extension(doc, ctx, where):
    name = _require(doc, "name", where)
    total = _subobject(doc, "total", "xmod", ctx, where)
    quotient = _subobject(doc, "quotient", "xmod", ctx, where)
    pj = _require(doc, "projection", where)
    if not isinstance(pj, dict):
        raise FixtureError(f"{where}.projection: expected a mapping")
    proj = XModHom(total, quotient, *_maps(pj, total, quotient, f"{where}.projection"))
    return Extension.from_projection(proj, name)


_PARSERS = {
    "algebra": _parse_algebra,
    "action": _parse_action,
    "xmod": _parse_xmod,
    "hom": _parse_hom,
    "extension": _parse_extension,
}


def _parse_doc(doc, expect, ctx, where):
    if not isinstance(doc, dict):
        raise FixtureError(f"{where}: expected an object document")
    kind = doc.get("kind", expect)
    if kind not in _PARSERS:
        raise FixtureError(f"{where}: unknown kind {kind!r}")
    if expect is not None and kind != expect:
        raise FixtureError(f"{where}: expected kind {expect!r}, found {kind!r}")
    stray = set(doc) - _FIELDS[kind]
    if stray:
        raise FixtureError(f"{where}: unknown fields {sorted(stray)}")
    if not isinstance(doc.get("name", ""), str):
        raise FixtureError(f"{where}: name must be a string, got {doc['name']!r}")
    return _PARSERS[kind](doc, ctx, where)


def _subobject(doc, field, kind, ctx, where):
    """The object of doc[field], inline or the file its name refers to; in
    one load, each file and each inline document of one kind, directory and
    canonical JSON text (which tells true from 1) is parsed once."""
    ref, where = _require(doc, field, where), f"{where}.{field}"
    try:
        key = (ctx.directory / f"{ref}.{kind}" if isinstance(ref, str)
               else (kind, ctx.directory, json.dumps(ref, sort_keys=True)))
    except RecursionError:  # too deep to be valid: parsed to its error
        key = id(ref)
    if key not in ctx.parsed:
        ctx.parsed[key] = (load_fixture(key, kind, ctx) if isinstance(ref, str)
                           else _parse_doc(ref, kind, ctx, where))
    return ctx.parsed[key]


def _unique_keys(where):
    """object_pairs_hook for json.loads that refuses a repeated key, which
    the default hook would silently resolve to its last value."""
    def hook(pairs):
        doc = {}
        for k, v in pairs:
            if k in doc:
                raise FixtureError(f"{where}: duplicate key {k!r}")
            doc[k] = v
        return doc
    return hook


# the last top-level input, with its analyses (see the docstring): its text
# if it names its kind and references no file, else None; its kind; the object
_last = (None, None, None)


def load_fixture(path, expect=None, within=None):
    """Parse one fixture file (and whatever it references) to a domain object."""
    global _last
    path = Path(path)
    active = within.active if within else frozenset()
    try:
        resolved = path.resolve()
        if resolved in active:
            raise FixtureError(f"circular reference through {path.name}")
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as ex:
        raise FixtureError(f"cannot read {path}: {ex}") from None
    if not within and text == _last[0] and expect in (None, _last[1]):
        return _last[2]
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys(path.name))
    except (ValueError, RecursionError) as ex:
        raise FixtureError(f"{path.name}: not a JSON document ({ex})") from None
    ctx = _Ctx(path.parent, active | {resolved}, within.parsed if within else {})
    obj = _parse_doc(doc, expect, ctx, path.name)
    if within:
        return obj
    obj = _last[2] if obj == _last[2] else obj
    alone = "kind" in doc and not any(isinstance(k, Path) for k in ctx.parsed)
    _last = (text if alone else None, doc.get("kind"), obj)
    return obj


# -- canonical serialization -----------------------------------------------------

def _sparse_from_vec(v, den, names):
    """The sparse int vector v divided by den, keyed by basis name."""
    return {names[k]: str(Fraction(t, den)) for k, t in v}


def _sparse_from_table(twin, row_names, col_names, out_names):
    """The sparse mapping of a table with the integer twin (den, entries)."""
    den, entries = twin
    out = {}
    for (i, j), v in entries:
        out.setdefault(row_names[i], {})[col_names[j]] = _sparse_from_vec(v, den, out_names)
    return out


def _sparse_from_matrix(m, src_names, tgt_names):
    den, cols = m.zcols
    return {sn: _sparse_from_vec(cols[j], den, tgt_names)
            for j, sn in enumerate(src_names) if cols[j]}


def _maps_doc(f):
    """The top_map and base_map of a crossed module map, keyed by basis names."""
    return {key: _sparse_from_matrix(getattr(f, key), getattr(f.source, side).basis_names,
                                     getattr(f.target, side).basis_names)
            for key, side in (("top_map", "top"), ("base_map", "base"))}


def algebra_doc(a):
    return {"kind": "algebra", "name": a.name, "dim": a.dim,
            "basis": list(a.basis_names),
            "brackets": _sparse_from_table(a.zst, a.basis_names, a.basis_names,
                                           a.basis_names)}


def action_doc(act, name=None):
    return {"kind": "action",
            "name": name or f"action({act.actor.name},{act.acted.name})",
            "actor": algebra_doc(act.actor), "acted": algebra_doc(act.acted),
            "left": _sparse_from_table((act.den, act.sl), act.actor.basis_names,
                                       act.acted.basis_names,
                                       act.acted.basis_names),
            "right": _sparse_from_table((act.den, act.sr), act.acted.basis_names,
                                        act.actor.basis_names,
                                        act.acted.basis_names)}


def xmod_doc(xm):
    return {"kind": "xmod", "name": xm.name,
            "top": algebra_doc(xm.top), "base": algebra_doc(xm.base),
            "delta": _sparse_from_matrix(xm.delta, xm.top.basis_names,
                                         xm.base.basis_names),
            "action": action_doc(xm.action)}


def hom_doc(h, name=None):
    if isinstance(h, AlgebraHom):
        return {"kind": "hom",
                "name": name or f"{h.source.name}->{h.target.name}",
                "source": algebra_doc(h.source), "target": algebra_doc(h.target),
                "matrix": _sparse_from_matrix(h.matrix, h.source.basis_names,
                                              h.target.basis_names)}
    return {"kind": "hom", "name": name or f"{h.source.name}->{h.target.name}",
            "source": xmod_doc(h.source), "target": xmod_doc(h.target), **_maps_doc(h)}


def extension_doc(e):
    return {"kind": "extension", "name": e.name,
            "total": xmod_doc(e.total), "quotient": xmod_doc(e.quotient),
            "projection": _maps_doc(e.proj)}


def emit(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _dense(m):
    return [[str(x) for x in row] for row in m.entries]


# -- commands ---------------------------------------------------------------------

def _output(args, payload):
    if args.out:
        try:
            Path(args.out).write_text(payload, encoding="utf-8")
        except OSError as ex:
            raise FixtureError(f"cannot write {args.out}: {ex}") from None
    else:
        sys.stdout.write(payload)


def _write(args, text, doc):
    _output(args, emit(doc) if args.json else text)


def _mark(b):
    return "✓" if b else "✗"


def cmd_check(args):
    obj = load_fixture(args.path)
    rep = obj.validity
    if isinstance(obj, (AlgebraHom, XModHom)):
        # a hom's laws presume valid endpoints: each distinct one's violations
        # come first, an algebra's labelled as in an action's report
        ends = [(f"leibniz {e.name} {label}" if isinstance(e, LeibnizAlgebra) else label, r)
                for e in dict.fromkeys((obj.source, obj.target))
                for label, r in e.validity.violations]
        rep = ValidityReport(rep.subject, rep.valid and not ends, (*ends, *rep.violations))
    doc = {"subject": rep.subject, "valid": rep.valid,
           "violations": [{"label": label, "residual": [str(x) for x in res]}
                          for label, res in rep.violations]}
    _write(args, rep.summary() + "\n", doc)
    return 0 if rep.valid else 1


def cmd_multiplier(args):
    xm = load_fixture(args.path, expect="xmod")
    esd = exterior_square_data(xm)
    mult, _ = schur_multiplier(xm)
    r = rank(mult.delta)
    lines = [
        f"q^n = {esd.qn.name}: dim {esd.qn.resolved.dim}",
        f"q^q = {esd.qq.name}: dim {esd.qq.resolved.dim}",
        f"M = ({mult.top.dim}, {mult.base.dim}), rank δ| = {r}",
        "structure: abelian crossed module with trivial action",
    ]
    delta = _sparse_from_matrix(mult.delta, mult.top.basis_names,
                                mult.base.basis_names)
    for an, col in delta.items():
        img = " + ".join(f"{c}*{bn}" if c != "1" else bn
                         for bn, c in sorted(col.items()))
        lines.append(f"δ| {an} = {img}")
    doc = {"xmod": xm.name,
           "qn": {"name": esd.qn.name, "dim": esd.qn.resolved.dim},
           "qq": {"name": esd.qq.name, "dim": esd.qq.resolved.dim},
           "multiplier": {"top_dim": mult.top.dim, "base_dim": mult.base.dim,
                          "rank_delta": r, "delta": delta}}
    _write(args, "\n".join(lines) + "\n", doc)
    return 0


def cmd_exterior(args):
    xm = load_fixture(args.path, expect="xmod")
    esd = exterior_square_data(xm)
    # rank-nullity on the kernels the squares took for their centrality
    r_lambda, r_mu = (m.cols - kernel(m).dim for m in (esd.lambda_n.matrix, esd.mu_q.matrix))
    lines = [
        f"q^n = {esd.qn.name}: dim {esd.qn.resolved.dim}, "
        f"basis [{', '.join(esd.qn.resolved.basis_names)}]",
        f"q^q = {esd.qq.name}: dim {esd.qq.resolved.dim}, "
        f"basis [{', '.join(esd.qq.resolved.basis_names)}]",
        f"evaluation to top: rank {r_lambda}",
        f"evaluation to base: rank {r_mu}",
        f"induced crossed module: {esd.induced_xmod.name}",
    ]
    doc = {"xmod": xm.name,
           "qn": {"name": esd.qn.name, "dim": esd.qn.resolved.dim,
                  "basis": list(esd.qn.resolved.basis_names)},
           "qq": {"name": esd.qq.name, "dim": esd.qq.resolved.dim,
                  "basis": list(esd.qq.resolved.basis_names)},
           "rank_lambda": r_lambda,
           "rank_mu": r_mu,
           "id_wedge_delta": _sparse_from_matrix(
               esd.id_wedge_delta.matrix, esd.qn.resolved.basis_names,
               esd.qq.resolved.basis_names)}
    _write(args, "\n".join(lines) + "\n", doc)
    return 0


def cmd_classify(args):
    e = load_fixture(args.path, expect="extension")
    fl = classify(e)
    lines = [f"central {_mark(fl.central)} stem {_mark(fl.stem_extension)} "
             f"cover {_mark(fl.stem_cover)}"]
    p41 = None
    if fl.central:
        rep = prop41_crosscheck(e)
        p41 = {"kernel_in_derived": rep.kernel_in_derived,
               "theta_surjective": rep.theta_surjective,
               "kernel_to_abelianization_zero": rep.kernel_to_abelianization_zero,
               "abelianizations_isomorphic": rep.abelianizations_isomorphic,
               "theta_bijective": rep.theta_bijective,
               "multiplier_map_vanishes": rep.multiplier_map_vanishes}
        lines.append("stem characterizations (agree pairwise):")
        for key, val in p41.items():
            lines.append(f"  {key.replace('_', ' ')}: {_mark(val)}")
    else:
        lines.append("stem characterizations: need a central extension")
    doc = {"extension": e.name, "central": fl.central,
           "stem_extension": fl.stem_extension, "stem_cover": fl.stem_cover,
           "prop41": p41}
    _write(args, "\n".join(lines) + "\n", doc)
    return 0


def cmd_verify(args):
    rep = six_term_report(load_fixture(args.path, expect="extension"))
    lines = []
    interior = rep.nodes[:-1]
    for n in interior:
        lines.append(
            f"{n.name}: image ({n.incoming_image_top.dim}, "
            f"{n.incoming_image_base.dim}) vs kernel "
            f"({n.outgoing_kernel_top.dim}, {n.outgoing_kernel_base.dim}) "
            f"-> exact {_mark(n.exact)}")
    last = rep.nodes[-1]
    lines.append(f"{last.name}: image ({last.incoming_image_top.dim}, "
                 f"{last.incoming_image_base.dim}) -> surjective {_mark(last.exact)}")
    lines.append(f"exact at {sum(n.exact for n in interior)}/{len(interior)} "
                 "interior nodes")
    doc = {"extension": rep.extension, "exact": rep.exact,
           "nodes": [{"name": n.name, "exact": n.exact,
                      "image": [n.incoming_image_top.dim,
                                n.incoming_image_base.dim],
                      "kernel": [n.outgoing_kernel_top.dim,
                                 n.outgoing_kernel_base.dim]}
                     for n in rep.nodes],
           "maps": [{"name": nm, "top": _dense(tm), "base": _dense(bm)}
                    for nm, tm, bm in rep.maps]}
    _write(args, "\n".join(lines) + "\n", doc)
    return 0 if rep.exact else 1


def cmd_stemcover(args):
    e = stem_cover_of_perfect(load_fixture(args.path, expect="xmod"))
    _output(args, emit(xmod_doc(e.total)))
    return 0


def cmd_liezation(args):
    lz, _ = liezation(load_fixture(args.path, expect="xmod"))
    _output(args, emit(xmod_doc(lz)))
    return 0


def cmd_hl(args):
    a = load_fixture(args.path, expect="algebra")
    if not a.validity.valid:
        raise ValueError(f"invalid Leibniz algebra:\n{a.validity.summary()}")
    n = hl(a, args.degree)
    _write(args, f"{n}\n",
           {"algebra": a.name, "degree": args.degree, "dim": n})
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="leibxmod",
        description="Exact-rational invariants of Leibniz crossed modules.")
    sub = ap.add_subparsers(dest="command", required=True)
    table = [
        ("check", cmd_check, "validate any fixture file"),
        ("multiplier", cmd_multiplier, "multiplier of a crossed module"),
        ("exterior", cmd_exterior, "exterior squares of a crossed module"),
        ("classify-extension", cmd_classify,
         "central / stem / cover flags of an extension"),
        ("verify-sequence", cmd_verify,
         "six-term exactness report of a central extension"),
        ("stemcover", cmd_stemcover,
         "emit the stem cover total of a perfect crossed module"),
        ("liezation", cmd_liezation,
         "emit the universal Lie quotient of a crossed module"),
        ("hl", cmd_hl, "Leibniz homology dimension of an algebra"),
    ]
    for name, fn, help_text in table:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("path", help="fixture file")
        if name == "hl":
            sp.add_argument("degree", type=int, help="homology degree")
        sp.add_argument("--json", action="store_true",
                        help="machine-readable canonical JSON output")
        sp.add_argument("--out", default=None, help="write output to a file")
        sp.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except FixtureError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    except AssertionError as ex:
        first = str(ex).partition("\n")[0]
        print(f"error: internal invariant failed: {first}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
