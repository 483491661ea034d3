"""Command-line front door.

Subcommands: catalog, present, hilbert, rost, restrict, decompose,
torsion-index, steenrod, verify.  Exit codes: 0 all pass, 1 verification
failure, 2 usage or data error.  Output is deterministic; --format switches
between a text rendering and JSON of the same payload.  The environment
variable FLAGCHOW_MAXDEG caps the truncation degree (default 60).

A process builds one argument parser, on its first `main` call, and reuses
it; each call dispatches by subcommand name to the module's `_cmd_<name>`.
"""

import argparse
import functools
import json
import os
import re
import sys

from . import catalog as _catalog
from . import chow as _chow
from . import serialize as _ser
from . import steenrod as _steenrod
from . import torsion as _torsion
from . import verify as _verify
from .errors import FlagchowError, ValidationError
from .groebner import hilbert_series

_FAMILIES = {
    "U": "U", "Sp": "Sp", "PU": "PU", "SO": "SO_odd", "SOeven": "SO_even",
    "Spin": "Spin_odd", "G2": "G2", "F4": "F4", "E7": "E7", "E8": "E8",
}

_DEFAULT_MAXDEG_CAP = 60


class _SubParser(argparse.ArgumentParser):
    """Subcommand parser accepting --format after the subcommand as well."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.add_argument("--format", dest="format_sub",
                          choices=("text", "json"), default=None)


def _maxdeg_cap():
    raw = os.environ.get("FLAGCHOW_MAXDEG")
    if raw is None:
        return _DEFAULT_MAXDEG_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValidationError("FLAGCHOW_MAXDEG must be an integer")


def _check_maxdeg(maxdeg):
    cap = _maxdeg_cap()
    if maxdeg > cap:
        raise ValidationError(
            "maxdeg %d exceeds the cap %d (FLAGCHOW_MAXDEG)" % (maxdeg, cap))
    return maxdeg


def _model(args):
    family = _FAMILIES.get(args.group)
    if family is None:
        raise ValidationError(
            "unknown group %r; choose from %s"
            % (args.group, ", ".join(sorted(_FAMILIES))))
    return _catalog.lookup_model(family, args.rank, args.prime)


def _add_group_flags(sub, prime_default=None):
    sub.add_argument("--group", required=True)
    sub.add_argument("--rank", type=int, default=None)
    sub.add_argument("--prime", type=int, default=prime_default)


# --- subcommand payloads ---------------------------------------------------


def _cmd_catalog(args):
    model = _model(args)
    payload = {
        "case": model.label(),
        "family": model.family,
        "rank": model.rank,
        "prime": model.prime,
        "torsion_index_p": model.torsion_index_p,
        "j_invariant": list(model.j_invariant),
        "y_generators": [{"name": g.name, "topdeg": g.topdeg,
                          "chowdeg": g.topdeg // 2, "truncation": g.trunc}
                         for g in model.y_gens],
        "x_generators": [{"name": x.name, "topdeg": x.topdeg,
                          "alias": x.alias} for x in model.x_gens],
        "transgression": [
            {"index": str(e.index), "name": e.name, "topdeg": e.topdeg,
             "chowdeg": e.topdeg // 2,
             "leading": None if e.leading is None else
             {"p_exponent": e.leading.s, "body": e.leading.body.pretty()},
             "v_terms": [{"level": n, "body": b.pretty()} for n, b in e.v_terms],
             "complete": e.complete}
            for e in model.transgression],
        "operation_rules": [
            {"op": r.op, "source": r.source,
             "target": _target_str(r.target)} for r in model.op_rules],
        "restriction_tables": [t.name for t in _catalog.restriction_tables(model)],
        "notes": list(model.notes),
    }
    return 0, payload


def _target_str(target):
    if target[0] == "ypoly":
        return target[1].pretty()
    name, coef = target[1], target[2]
    return name if coef == 1 else "%d*%s" % (coef, name)


def _cmd_present(args):
    model = _model(args)
    pres = _chow.chow_presentation(model)
    payload = {"case": model.label(),
               "presentation": _ser.presentation_to_json(pres)}
    return 0, payload


def _cmd_hilbert(args):
    model = _model(args)
    maxdeg = _check_maxdeg(args.maxdeg)
    pres = _chow.chow_presentation(model)
    hs = hilbert_series(pres, maxdeg)
    payload = {"case": model.label(), "maxdeg": maxdeg,
               "dims_by_topdeg": hs.dims,
               "dims_by_chowdeg": hs.dims[0::2],
               "total": hs.total()}
    return 0, payload


def _cmd_rost(args):
    basis = _chow.rost_chow_basis(args.n, args.p)
    payload = {"height": args.n, "prime": args.p,
               "count": len(basis), "basis": _ser.basis_to_json(basis)}
    return 0, payload


def _cmd_restrict(args):
    if args.table:
        tables = [_catalog.restriction_table(args.table)]
    else:
        tables = _catalog.restriction_tables()
    payload = {"tables": []}
    worst = 0
    for t in tables:
        rep = _chow.restriction_check(t)
        entries = _catalog.lookup_model(*t.key).transgression
        payload["tables"].append({
            "name": t.name,
            "status": rep["status"],
            "image_cardinality": rep["image_cardinality"],
            "expected_cardinality": rep["expected_cardinality"],
            "images": [
                {"source": e.name,
                 "target": "0" if img is None
                 else "v_%d*%s" % (img[0], img[1].pretty())}
                for e, img in zip(entries, t.images)],
            "failures": rep["failures"],
        })
        if rep["status"] != "pass":
            worst = 1
    return worst, payload


def _cmd_decompose(args):
    model = _model(args)
    maxdeg = _check_maxdeg(args.maxdeg)
    rep = _chow.verify_additive_decomposition(model, maxdeg)
    code = 0 if rep["status"] in ("pass", "skipped") else 1
    return code, rep


def _cmd_torsion_index(args):
    model = _model(args)
    value, level, details = _torsion.torsion_index_report(model)
    payload = {"case": model.label(), "value": value,
               "verification": level}
    if level == "EXACT":
        payload["monomials_checked"] = details["monomials_checked"]
    if args.witness:
        if model.witness is not None:
            w = _torsion.witness_product(model, model.witness)
            payload["witness"] = {"indices": [str(i) for i in model.witness],
                                  "p_exponent": w.s,
                                  "body": w.body.pretty()}
    return 0, payload


def _cmd_steenrod(args):
    model = _model(args)
    op = args.op
    gen = args.gen
    q = re.fullmatch(r"Q(\d+)", op)
    sq = re.fullmatch(r"Sq(\d+)", op)
    if q or op in ("beta", "Sq1"):
        out = _steenrod.q_milnor(model, gen, int(q.group(1)) if q else 0)
        provenance = "stored rule or transgression table"
    elif sq:
        index = re.fullmatch(r"[xz](\d+)", gen)
        if index is None:
            raise ValidationError(
                "--op %s acts on a generator x<i> or z<i>, got %r" % (op, gen))
        out = _steenrod.sq_on_so_generator(int(index.group(1)),
                                           int(sq.group(1)), model)
        provenance = "derived from the binomial rule"
    else:
        raise ValidationError(
            "unknown operation %r; use Q<n>, beta, Sq1 or Sq<k>" % (op,))
    payload = {"case": model.label(), "op": op, "generator": gen,
               "image": out.pretty(), "provenance": provenance}
    return 0, payload


def _cmd_verify(args):
    if args.all == bool(args.case):
        raise ValidationError("choose --all or --case NAME")
    if args.case:
        reports = [_verify.run_case(args.case)]
    else:
        reports = _verify.run_all()
    payload = {"reports": [r.as_dict() for r in reports]}
    if args.all:
        payload["criteria"] = [
            {"criterion": label, "ok": ok, "cases": statuses}
            for label, ok, statuses in _verify.criteria_summary(reports)]
    failed = [r for r in reports if r.status == "fail"]
    payload["summary"] = {"cases": len(reports), "failed": len(failed)}
    return (1 if failed else 0), payload


# --- rendering ----------------------------------------------------------------


def _render_text(payload, out, indent=0, bullet=False):
    pad = "  " * indent
    if isinstance(payload, dict):
        first = True
        for key in payload:
            value = payload[key]
            lead = "%s- " % ("  " * (indent - 1)) if bullet and first else pad
            first = False
            if isinstance(value, (dict, list)):
                out.write("%s%s:\n" % (lead, key))
                _render_text(value, out, indent + 1)
            else:
                out.write("%s%s: %s\n" % (lead, key, value))
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                _render_text(value, out, indent + 1, bullet=True)
            else:
                out.write("%s- %s\n" % (pad, value))
    else:
        out.write("%s%s\n" % (pad, payload))


@functools.cache
def build_parser():
    """The CLI parser; cached, so a process builds it once, on its first `main`
    call, and every later call reuses it."""
    parser = argparse.ArgumentParser(
        prog="flagchow",
        description="exact mod-p flag-variety Chow ring checks")
    parser.add_argument("--format", choices=("text", "json"), default=None)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SubParser)

    s = sub.add_parser("catalog", help="dump one catalog entry")
    _add_group_flags(s)

    s = sub.add_parser("present", help="mod-p presentation of the flag quotient")
    _add_group_flags(s)

    s = sub.add_parser("hilbert", help="graded dimensions of the presentation")
    _add_group_flags(s)
    s.add_argument("--maxdeg", type=int, default=20)

    s = sub.add_parser("rost", help="summand basis for height n at prime p")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--p", type=int, required=True)

    s = sub.add_parser("restrict", help="check stored restriction tables")
    s.add_argument("--table", default=None)

    s = sub.add_parser("decompose", help="series decomposition check")
    _add_group_flags(s)
    s.add_argument("--maxdeg", type=int, default=40)

    s = sub.add_parser("torsion-index", help="torsion index with verification level")
    _add_group_flags(s, prime_default=2)
    s.add_argument("--witness", action="store_true")

    s = sub.add_parser("steenrod", help="apply an operation to a generator")
    _add_group_flags(s)
    s.add_argument("--op", required=True)
    s.add_argument("--gen", required=True)

    s = sub.add_parser("verify", help="run verification cases")
    s.add_argument("--all", action="store_true")
    s.add_argument("--case", default=None)

    return parser


def main(argv=None, out=None):
    out = out or sys.stdout
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    # looked up at call time, so a wrapper set on cli._cmd_* is the one called
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        code, payload = handler(args)
    except FlagchowError as err:
        sys.stderr.write("error: %s\n" % (err,))
        return 2
    fmt = getattr(args, "format_sub", None) or args.format or "text"
    if fmt == "json":
        out.write(json.dumps(payload, indent=2, sort_keys=True))
        out.write("\n")
    else:
        _render_text(payload, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
