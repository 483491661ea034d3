"""Property tests of the CLI argument grammar.

Every argv keeps the contract: exit 0, 1 or 2, never a traceback on stderr
and never an escaping exception.  And the flag table reads every argv as the
argparse parser it replaced does (`oracles.build_parser`): a call that fails
or asks for help prints the usage line of the same level, so a walk that
fails at the wrong level is seen too.  The argvs are
drawn from the flag table itself, `cli._COMMANDS`, so a new flag is fuzzed
with no edit here.  Most draws are well formed: a served case, every
required flag and some optional ones spelled in full with a value that
parses, `--format` before or after the subcommand or twice, and at most one
junk token or one flag spelled by a prefix; so most of them parse, and a
walk that misreads a call that parses is seen.  The rest are drawn broadly:
a subcommand's own flags and any level's, each in full or by a prefix the
subcommand reads as one, several or none of its options, its value as the
next word or after `=`, a switch bare or given `=value`, and up to two junk
tokens.  All calls run in one process, so they share the one flag table.
Sizes stay small (rank <= 4, maxdeg <= 30 or just over the cap 60, rost
n <= 3 and p <= 12) because the CLI has no work budget yet.
"""

import contextlib
import io

import oracles
import pytest

from flagchow import catalog, cli
from flagchow.catalog import restriction_tables
from flagchow.verify import CASES

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


# the values drawn for each flag of `cli._COMMANDS`, by namespace attribute
VALUES = {
    "group": st.sampled_from(("U", "Sp", "PU", "SO", "SOeven", "Spin", "G2",
                              "F4", "E7", "E8", "E6", "so", "")),
    "rank": _ints(-1, 4),
    "prime": st.sampled_from(("-2", "0", "1", "2", "3", "4", "5", "7")),
    "maxdeg": st.one_of(_ints(-2, 30), _ints(61, 63)),
    "n": _ints(-2, 3),
    "p": _ints(-3, 12),
    "table": st.sampled_from(
        tuple(t.name for t in restriction_tables()) + ("nope",)),
    "op": st.sampled_from(("Q0", "Q1", "Q2", "beta", "Sq0", "Sq1", "Sq2",
                           "Sq3", "Sq4", "P1", "Qx", "Sq", "")),
    "gen": st.sampled_from(("x1", "x2", "x3", "x4", "x5", "z3", "z7",
                            "y4", "y6", "b_1", "")),
    "case": st.sampled_from(tuple(name for name, _ in CASES) + ("nope",)),
    "format": st.sampled_from(("text", "json", "xml")),
}
JUNK = st.sampled_from(("--bogus", "-x", "--", "-", "7", "junk", "--rank=2",
                        "--format=json", "-h", "--maxdeg=-1", "é", "-hh",
                        "--=x", "a b", "-1 2"))
# what a switch is given after `=`
SWITCH_VALUES = st.sampled_from(("", "x", "yes", "--"))


def _spellings(name, names):
    """--name in full, and its prefixes split by how many of the level's
    long options in `names` each names: one, several or none (any of the
    last three lists may be empty)."""
    option = "--" + name
    by_count = {}
    for prefix in (option[:end] for end in range(3, len(option))):
        count = sum(("--" + n).startswith(prefix) for n in names)
        by_count.setdefault(min(count, 2), []).append(prefix)
    return [option], by_count.get(1, []), by_count.get(2, []), \
        by_count.get(0, [])


@st.composite
def _flag(draw, name, switch, names):
    """A flag, spelled in full or by a prefix the level reads as one, several
    or none of its options, with a valid, an invalid, an `=` or a missing
    value; a switch with no value or an `=` value."""
    spellings = [s for s in _spellings(name, names) if s]
    spelled = draw(st.sampled_from(draw(st.sampled_from(spellings))))
    if switch:
        return draw(st.one_of(
            st.just([spelled]),
            SWITCH_VALUES.map(lambda v: ["%s=%s" % (spelled, v)])))
    values = VALUES[name] | JUNK
    # argparse 3.11 reads `--flag=--` as an empty list, where the flag table
    # keeps `--` (test_cli.py::test_two_dashes_after_equals_are_the_value)
    given = values.filter(lambda v: v != "--")
    return draw(st.one_of(values.map(lambda v: [spelled, v]),
                          given.map(lambda v: ["%s=%s" % (spelled, v)]),
                          st.just([spelled])))


# the long options every level has besides its own flags
LEVEL_OPTIONS = tuple(option[2:] for option in cli._LEVELS[None]
                      if option[:2] == "--")
# every flag of every subcommand -> whether it is a switch
ALL_FLAGS = {name: kind is bool for _, flags in cli._COMMANDS.values()
             for name, (kind, _, _) in flags.items()}


@st.composite
def broad_argvs(draw):
    sub = draw(st.sampled_from(tuple(cli._COMMANDS)))
    flags = cli._COMMANDS[sub][1]
    names = LEVEL_OPTIONS + tuple(flags)
    own = draw(st.permutations(tuple(flags)))
    chosen = own[:draw(st.integers(0, len(own)))]
    # and up to two of any level's flags, so a level meets another's too
    chosen += draw(st.lists(st.sampled_from(sorted(ALL_FLAGS) + ["format"]),
                            max_size=2))
    argv = [sub]
    for name in chosen:
        argv += draw(_flag(name, ALL_FLAGS.get(name, False), names))
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(JUNK))
    # --format before the subcommand, after it, or twice
    for where in draw(st.lists(st.sampled_from(("before", "after")),
                               max_size=2)):
        if where == "before":
            argv = draw(_flag("format", False, LEVEL_OPTIONS)) + argv
        else:
            argv += draw(_flag("format", False, names))
    return argv


# (--group, --rank, --prime) of each served case at rank <= 4, as the CLI
# spells it; a case of one rank leaves its rank out
SERVED = tuple((row.group, rank, str(p))
               for row in catalog._SERVED for p in row.primes
               for rank in ((None,) if row.least == row.most else
                            map(str, range(row.least, 5))))
# a value that parses, and mostly makes the call exit 0, for each other flag
GOOD = {
    "maxdeg": _ints(0, 30),
    "n": _ints(1, 3),
    "p": st.sampled_from(("2", "3", "5")),
    "table": st.sampled_from(tuple(t.name for t in restriction_tables())),
    "op": st.sampled_from(("Q0", "Q1", "beta", "Sq1", "Sq2")),
    "gen": st.sampled_from(("x1", "x2", "x3")),
    "case": st.sampled_from(tuple(name for name, _ in CASES)),
    "format": st.sampled_from(("text", "json")),
}


@st.composite
def _given(draw, name, value):
    """--name value or --name=value, in full."""
    return draw(st.sampled_from((["--" + name, value],
                                 ["--%s=%s" % (name, value)])))


@st.composite
def well_formed_argvs(draw):
    sub = draw(st.sampled_from(tuple(cli._COMMANDS)))
    flags = cli._COMMANDS[sub][1]
    group, rank, prime = draw(st.sampled_from(SERVED))
    case = {"group": group, "rank": rank, "prime": prime}
    given = []
    for name, (kind, _, required) in flags.items():
        if name in case:
            if case[name] is not None:
                given.append(draw(_given(name, case[name])))
        elif required or draw(st.booleans()):
            given.append(["--" + name] if kind is bool
                         else draw(_given(name, draw(GOOD[name]))))
    argv = [sub] + [word for flag in draw(st.permutations(given))
                    for word in flag]
    # --format before the subcommand, after it, or twice
    for where in draw(st.lists(st.sampled_from(("before", "after")),
                               max_size=2)):
        spelled = draw(_given("format", draw(GOOD["format"])))
        argv = spelled + argv if where == "before" else argv + spelled
    # and at most one junk token or one flag spelled by a prefix
    change = draw(st.sampled_from(("none", "junk", "prefix")))
    if change == "junk":
        argv.insert(draw(st.integers(0, len(argv))), draw(JUNK))
    options = [i for i, word in enumerate(argv) if word[:2] == "--"]
    if change == "prefix" and options:
        i = draw(st.sampled_from(options))
        option, eq, value = argv[i].partition("=")
        level = (LEVEL_OPTIONS if i < argv.index(sub)
                 else LEVEL_OPTIONS + tuple(flags))
        prefixes = [p for group in _spellings(option[2:], level)[1:]
                    for p in group]
        if prefixes:
            argv[i] = draw(st.sampled_from(prefixes)) + eq + value
    return argv


@st.composite
def argvs(draw):
    """Three in four draws well formed, the rest broad."""
    if draw(st.integers(0, 3)):
        return draw(well_formed_argvs())
    return draw(broad_argvs())


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
@hypothesis.given(argvs())
def test_every_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv, out=out)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv


@oracles.ON_REFERENCE_PYTHON
@hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
@hypothesis.given(argvs())
def test_the_flag_table_reads_every_argv_as_the_argparse_reference(argv):
    # the same outcome (parsed, help or usage error); once parsed, the same
    # value of every namespace attribute, and otherwise the usage line of
    # the same level
    assert oracles.table_outcome(argv) == oracles.argparse_outcome(argv), argv
