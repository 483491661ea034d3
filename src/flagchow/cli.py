"""Command-line front door.

Subcommands: catalog, present, hilbert, rost, restrict, decompose,
torsion-index, steenrod, verify.  Exit codes: 0 all pass, 1 verification
failure, 2 usage or data error.  Output is deterministic; --format switches
between a text rendering and JSON of the same payload.  The environment
variable FLAGCHOW_MAXDEG caps the truncation degree (default 60).
`hilbert` answers every served presentation by one product, with no
Groebner basis (`chow.presentation_series`), and with the presentation's
note where it is symbolic.

The grammar is one table, `_COMMANDS`: each subcommand's one-line help and
its flags, each an int, a str or a switch, with a default and a required
mark.  `_parse` reads argv against it left to right, as the argparse parser
it replaced did under Python 3.11, on every Python: `--flag value` or
`--flag=value`, any unique prefix of a flag (looked up in `_PREFIXES`, each
level's table of every prefix of its long options, built at import),
`--format` before or after the subcommand (after wins), `-` or a negative
number as a value, the last repeat of a flag wins.  One walker serves both
levels, and each reads a token once: the level before the subcommand reads
up to it, and the subcommand reads the rest.  Before either applies an
option, one scan of its tokens up to `--` fails on a prefix that names
several of its options (`_AMBIGUOUS`, built at import); the scan before the
subcommand covers the whole argv, as argparse's did.  A bad or missing
value is a usage error at once, and -h or --help prints the help and exits
0 where the walk reaches it; unknown flags, stray words and anything after
`--` are reported at the end.  A usage error exits 2 through `main`'s one
`FlagchowError` path, with the usage line on stderr.  Each call dispatches
by subcommand name to the module's `_cmd_<name>`, and its text output is
gathered line by line and written in one join.

Importing this module loads no other flagchow module but `errors`.  Each
module a handler reads is a global (`_catalog`, `_chow`, ...) that imports
its module on its first read in the process and is the module itself from
then on, so a call loads only what it reads: `catalog` loads `catalog`,
`ring` and `symclass`, and no `json` (`test_cli.LOADS` pins each README
invocation's modules).
"""

import os
import re
import sys
import types

from .errors import FlagchowError, ValidationError


class _OnFirstRead:
    """The module global `_<name>` until an attribute is first read from it:
    that read imports flagchow.<name> and binds the global to the module
    itself, so a call loads only the modules it reads, and later calls read
    a plain module global."""

    def __init__(self, name):
        self.name = name

    def __getattr__(self, attr):
        # by the import statement's machinery, which -X importtime reports
        name = "flagchow." + self.name
        __import__(name)
        module = globals()["_" + self.name] = sys.modules[name]
        return getattr(module, attr)


_catalog = _OnFirstRead("catalog")
_chow = _OnFirstRead("chow")
_serialize = _OnFirstRead("serialize")
_steenrod = _OnFirstRead("steenrod")
_torsion = _OnFirstRead("torsion")
_verify = _OnFirstRead("verify")

_DEFAULT_MAXDEG_CAP = 60


def _check_maxdeg(maxdeg):
    raw = os.environ.get("FLAGCHOW_MAXDEG")
    try:
        cap = _DEFAULT_MAXDEG_CAP if raw is None else int(raw)
    except ValueError:
        raise ValidationError("FLAGCHOW_MAXDEG must be an integer")
    if maxdeg > cap:
        raise ValidationError(
            "maxdeg %d exceeds the cap %d (FLAGCHOW_MAXDEG)" % (maxdeg, cap))
    return maxdeg


def _model(args):
    family = _catalog.GROUP_FAMILIES.get(args.group)
    if family is None:
        raise ValidationError(
            "unknown group %r; choose from %s"
            % (args.group, ", ".join(sorted(_catalog.GROUP_FAMILIES))))
    return _catalog.lookup_model(family, args.rank, args.prime)


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
               "presentation": _serialize.presentation_to_json(pres)}
    return 0, payload


def _cmd_hilbert(args):
    model = _model(args)
    maxdeg = _check_maxdeg(args.maxdeg)
    hs, note = _chow.presentation_series(model, maxdeg)
    payload = {"case": model.label(), "maxdeg": maxdeg,
               "dims_by_topdeg": hs.dims,
               "dims_by_chowdeg": hs.dims[0::2],
               "total": hs.total()}
    if note:
        payload["note"] = note
    return 0, payload


def _cmd_rost(args):
    basis = _chow.rost_chow_basis(args.n, args.p)
    payload = {"height": args.n, "prime": args.p,
               "count": len(basis), "basis": _serialize.basis_to_json(basis)}
    return 0, payload


def _cmd_restrict(args):
    if args.table:
        tables = [_catalog.restriction_table(args.table)]
    else:
        tables = _catalog.restriction_tables()
    payload = {"tables": []}
    worst = 0
    for t in tables:
        rep = _catalog.restriction_check(t)
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
    value, level, details = _torsion.torsion_index(model)
    payload = {"case": model.label(), "value": value,
               "verification": level}
    if level == "EXACT":
        payload["monomials_checked"] = details["monomials_checked"]
    if args.witness:
        w = details["witness"]
        payload["witness"] = {"indices": [str(i) for i in model.witness],
                              "p_exponent": w.s, "body": w.body.pretty()}
    return 0, payload


def _cmd_steenrod(args):
    model = _model(args)
    op = args.op
    gen = args.gen
    q = re.fullmatch(r"Q(\d+)", op)
    sq = re.fullmatch(r"Sq(\d+)", op)
    if q or op in ("beta", "Sq1"):
        n = int(q.group(1)) if q else 0
        out = _steenrod.q_milnor(model, gen, n).pretty()
        provenance = "transgression table"
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
               "image": out, "provenance": provenance}
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


# the payload values a text line does not hold
_NESTED = (dict, list)


def _text_lines(payload, add, pad, lead):
    """Add the lines of payload at indent pad: `key: value` per dict key,
    `- item` per list item, a container one level deeper; lead is what a
    dict puts before its first key, `- ` where it is a list's item.  A
    list-valued key writes its scalar items in place, without a call."""
    if type(payload) is dict:
        inner = pad + "  "
        for key, value in payload.items():
            kind = type(value)
            if kind is list:
                add(f"{lead}{key}:\n")
                deeper, bullet = inner + "  ", inner + "- "
                for item in value:
                    if type(item) in _NESTED:
                        _text_lines(item, add, deeper, bullet)
                    else:
                        add(f"{bullet}{item}\n")
            elif kind is dict:
                add(f"{lead}{key}:\n")
                _text_lines(value, add, inner, inner)
            else:
                add(f"{lead}{key}: {value}\n")
            lead = pad
    elif type(payload) is list:
        inner, bullet = pad + "  ", pad + "- "
        for value in payload:
            if type(value) in _NESTED:
                _text_lines(value, add, inner, bullet)
            else:
                add(f"{bullet}{value}\n")
    else:
        add(f"{pad}{payload}\n")


def _render_text(payload, out):
    """Write payload as indented text in one write."""
    lines = []
    _text_lines(payload, lines.append, "", "")
    out.write("".join(lines))


# --- argument grammar ---------------------------------------------------------

# A flag is (kind, default, required).  Its kind is int or str for a flag that
# takes one value, bool for a switch that takes none, or the tuple of the
# values it accepts.  A required flag has no default.
_FORMAT = (("text", "json"), None, False)
_GROUP_FLAGS = {"group": (str, None, True), "rank": (int, None, False),
                "prime": (int, None, False)}
# subcommand -> (one-line help, flags by namespace attribute)
_COMMANDS = {
    "catalog": ("dump one catalog entry", _GROUP_FLAGS),
    "present": ("mod-p presentation of the flag quotient", _GROUP_FLAGS),
    "hilbert": ("graded dimensions of the presentation",
                dict(_GROUP_FLAGS, maxdeg=(int, 20, False))),
    "rost": ("summand basis for height n at prime p",
             {"n": (int, None, True), "p": (int, None, True)}),
    "restrict": ("check stored restriction tables",
                 {"table": (str, None, False)}),
    "decompose": ("series decomposition check",
                  dict(_GROUP_FLAGS, maxdeg=(int, 40, False))),
    "torsion-index": ("torsion index with verification level",
                      dict(_GROUP_FLAGS, prime=(int, 2, False),
                           witness=(bool, False, False))),
    "steenrod": ("apply an operation to a generator",
                 dict(_GROUP_FLAGS, op=(str, None, True),
                      gen=(str, None, True))),
    "verify": ("run verification cases",
               {"all": (bool, False, False), "case": (str, None, False)}),
}


def _options(flags, format_dest):
    """Option string -> (namespace attribute, flag) of one level; -h and
    --help give the flag None."""
    opts = {"-h": ("help", None), "--help": ("help", None),
            "--format": (format_dest, _FORMAT)}
    opts.update(("--" + name, (name, flag)) for name, flag in flags.items())
    return opts


def _prefixes(opts):
    """Each prefix of each long option of one level -> the options it
    names, in table order."""
    table = {}
    for option in opts:
        if option[:2] == "--":
            for end in range(2, len(option) + 1):
                table.setdefault(option[:end], []).append(option)
    return table


# levels by subcommand, None before it; --format after it sets format_sub
_LEVELS = {None: _options({}, "format")}
_LEVELS.update((cmd, _options(flags, "format_sub"))
               for cmd, (_, flags) in _COMMANDS.items())
_PREFIXES = {cmd: _prefixes(opts) for cmd, opts in _LEVELS.items()}
# each level's prefixes that name several of its long options and none
# exactly, with the options they name: the heads `_walk` fails on
_AMBIGUOUS = {cmd: {head: found for head, found in table.items()
                    if len(found) > 1 and head not in _LEVELS[cmd]}
              for cmd, table in _PREFIXES.items()}
# each subcommand's namespace attributes before its walk, and its required
# flags
_UNSET = {cmd: {"format_sub": None,
                **{name: default for name, (_, default, _) in flags.items()}}
          for cmd, (_, flags) in _COMMANDS.items()}
_REQUIRED = {cmd: [name for name, flag in flags.items() if flag[2]]
             for cmd, (_, flags) in _COMMANDS.items()}
# a word that looks like this is a value, not an unknown option
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _read(token, cmd):
    """How one level reads a token other than `--`: None for a word, else the
    option string it names (None if it names none) and the value given with
    it, after `=` or after a short option's letter (None if none).  A token
    that could name several options never gets here: `_walk` fails on it
    first."""
    opts = _LEVELS[cmd]
    if token[:1] != "-":
        return None
    if token in opts:
        return token, None
    if len(token) == 1:
        return None
    head, eq, value = token.partition("=")
    if eq and head in opts:
        return head, value
    if token[1] == "-":
        # a long option by its unique prefix
        found = _PREFIXES[cmd].get(head)
        value = value if eq else None
    else:
        # -h and what follows its letter
        found = [token[:2]] if token[:2] in opts else None
        value = token[2:]
    if found:
        return found[0], value
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def _apply(tokens, i, end, read, cmd, ns):
    """Set in ns the option read at tokens[i], taking its value from the next
    token before end where it needs one; the index after the tokens it used,
    or None if it asks for help."""
    option, value = read
    dest, flag = _LEVELS[cmd][option]
    if flag is None:
        # help, also as -hh...; any other value fails as a switch's would
        if value is None or option == "-h" and value and not value.strip("h"):
            return None
        kind = bool
    else:
        kind = flag[0]
    if kind is bool:
        if value is not None:
            raise _usage_error(cmd, "argument %s: ignored explicit argument %r"
                               % (option, value))
        ns[dest] = True
        return i + 1
    if value is None:
        i += 1
        if i == end or _read(tokens[i], cmd) is not None:
            raise _usage_error(cmd, "argument %s: expected one argument"
                               % option)
        value = tokens[i]
    if kind is int:
        try:
            value = int(value)
        except ValueError:
            raise _usage_error(cmd, "argument %s: invalid int value: %r"
                               % (option, value))
    elif kind is not str and value not in kind:
        raise _usage_error(cmd, "argument %s: invalid choice: %r "
                           "(choose from %s)"
                           % (option, value, ", ".join(map(repr, kind))))
    ns[dest] = value
    return i + 1


def _walk(tokens, cmd, ns, unknown):
    """Apply one level's options in tokens to ns, left to right, reading each
    token once.  First one scan of the tokens up to `--` fails on any whose
    head could name several of the level's options, so that it fails before
    any option applies (argparse classifies every token before it applies
    one); before the subcommand, that scan covers the subcommand's tokens
    too.
    Before the subcommand the walk stops at the first word or `--` and
    returns its index; after it, words and all from `--` on go to unknown.
    None once an option has printed the help."""
    end = tokens.index("--") if "--" in tokens else len(tokens)
    ambiguous = _AMBIGUOUS[cmd]
    for token in tokens[:end]:
        head = token.partition("=")[0]
        if head in ambiguous:
            raise _usage_error(cmd, "ambiguous option: %s could match %s"
                               % (token, ", ".join(ambiguous[head])))
    i = 0
    while i < end:
        read = _read(tokens[i], cmd)
        if read is None and cmd is None:
            return i
        if read is None or read[0] is None:
            unknown.append(tokens[i])
            i += 1
            continue
        i = _apply(tokens, i, end, read, cmd, ns)
        if i is None:
            sys.stdout.write(_help(cmd))
            return None
    if cmd is not None:
        unknown += tokens[i:]
    return i


def _parse(argv):
    """The namespace of argv's subcommand and flags, or None once -h has
    printed the help; a usage error raises ValidationError."""
    ns = {"format": None, "command": None}
    unknown = []
    i = _walk(argv, None, ns, unknown)
    if i is None:
        return None
    if i == len(argv):
        raise _usage_error(None,
                           "the following arguments are required: command")
    cmd = argv[i]
    if cmd not in _COMMANDS:
        raise _usage_error(None, "argument command: invalid choice: %r "
                           "(choose from %s)"
                           % (cmd, ", ".join(map(repr, _COMMANDS))))
    ns["command"] = cmd
    ns.update(_UNSET[cmd])
    if _walk(argv[i + 1:], cmd, ns, unknown) is None:
        return None
    missing = ["--" + name for name in _REQUIRED[cmd] if ns[name] is None]
    if missing:
        raise _usage_error(cmd, "the following arguments are required: %s"
                           % ", ".join(missing))
    if unknown:
        raise _usage_error(None, "unrecognized arguments: %s"
                           % " ".join(unknown))
    return types.SimpleNamespace(**ns)


def _spelling(name, kind):
    """A flag as usage and help spell it: --name, --name NAME or --name {a,b}."""
    if kind is bool:
        return "--" + name
    if kind in (int, str):
        return "--%s %s" % (name, name.upper())
    return "--%s {%s}" % (name, ",".join(kind))


def _usage(cmd):
    """The usage line of the level before the subcommand (None) or after it."""
    words = ["usage: flagchow" if cmd is None else "usage: flagchow " + cmd,
             "[-h]", "[%s]" % _spelling("format", _FORMAT[0])]
    if cmd is None:
        return " ".join(words + ["{%s} ..." % ",".join(_COMMANDS)])
    for name, (kind, _, required) in _COMMANDS[cmd][1].items():
        word = _spelling(name, kind)
        words.append(word if required else "[%s]" % word)
    return " ".join(words)


def _usage_error(cmd, message):
    return ValidationError("%s\n%s" % (message, _usage(cmd)))


def _help(cmd):
    """The usage line, what the level does, and each of its subcommands or
    flags from the table."""
    about, flags = _COMMANDS.get(
        cmd, ("exact mod-p flag-variety Chow ring checks", {}))
    lines = [_usage(cmd), "", about, ""]
    if cmd is None:
        lines.append("commands:")
        lines += ["  %-22s%s" % (name, line)
                  for name, (line, _) in _COMMANDS.items()]
        lines.append("")
    lines += ["options:",
              "  %-22s%s" % ("-h, --help", "show this help and exit"),
              "  %-22s%s" % (_spelling("format", _FORMAT[0]),
                             "output format (default text)")]
    for name, (kind, default, required) in flags.items():
        note = ("required" if required else
                "default %s" % default if default not in (None, False) else "")
        lines.append(("  %-22s%s" % (_spelling(name, kind), note)).rstrip())
    return "\n".join(lines) + "\n"


def main(argv=None, out=None):
    out = out or sys.stdout
    code = 0
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is not None:
            # looked up at call time, so a wrapper set on cli._cmd_* is the
            # one called
            handler = globals()["_cmd_" + args.command.replace("-", "_")]
            code, payload = handler(args)
            if (args.format_sub or args.format) == "json":
                out.write(_serialize.json_text(payload))
                out.write("\n")
            else:
                _render_text(payload, out)
        out.flush()
    except FlagchowError as err:
        sys.stderr.write("error: %s\n" % (err,))
        return 2
    except BrokenPipeError:
        # the reader closed stdout early: stop writing, and point stdout at
        # os.devnull so that the interpreter's exit flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
