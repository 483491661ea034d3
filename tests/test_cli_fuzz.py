"""Property tests of the CLI argument grammar.

Every argv keeps the contract: exit 0, 1 or 2, never a traceback on stderr
and never an escaping exception.  And the flag table reads every argv as the
argparse parser it replaced does (`oracles.build_parser`).  All calls run
in one process, so they share the one flag table.  Sizes stay small
(rank <= 4, maxdeg <= 30 or just over the cap 60, rost n <= 3 and
p <= 12) because the CLI has no work budget yet.
"""

import contextlib
import io

import oracles
import pytest

from flagchow import cli
from flagchow.catalog import restriction_tables
from flagchow.verify import CASES

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SUBCOMMANDS = ("catalog", "present", "hilbert", "rost", "restrict",
               "decompose", "torsion-index", "steenrod", "verify")
GROUP_FLAGS = ("--group", "--rank", "--prime")
OWN_FLAGS = {
    "catalog": GROUP_FLAGS,
    "present": GROUP_FLAGS,
    "hilbert": GROUP_FLAGS + ("--maxdeg",),
    "rost": ("--n", "--p"),
    "restrict": ("--table",),
    "decompose": GROUP_FLAGS + ("--maxdeg",),
    "torsion-index": GROUP_FLAGS + ("--witness",),
    "steenrod": GROUP_FLAGS + ("--op", "--gen"),
    "verify": ("--all", "--case"),
}
SWITCHES = ("--all", "--witness")


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


VALUES = {
    "--group": st.sampled_from(("U", "Sp", "PU", "SO", "SOeven", "Spin", "G2",
                                "F4", "E7", "E8", "E6", "so", "")),
    "--rank": _ints(-1, 4),
    "--prime": st.sampled_from(("-2", "0", "1", "2", "3", "4", "5", "7")),
    "--maxdeg": st.one_of(_ints(-2, 30), _ints(61, 63)),
    "--n": _ints(-2, 3),
    "--p": _ints(-3, 12),
    "--table": st.sampled_from(
        tuple(t.name for t in restriction_tables()) + ("nope",)),
    "--op": st.sampled_from(("Q0", "Q1", "Q2", "beta", "Sq0", "Sq1", "Sq2",
                             "Sq3", "Sq4", "P1", "Qx", "Sq", "")),
    "--gen": st.sampled_from(("x1", "x2", "x3", "x4", "x5", "z3", "z7",
                              "y4", "y6", "b_1", "")),
    "--case": st.sampled_from(tuple(name for name, _ in CASES) + ("nope",)),
    "--format": st.sampled_from(("text", "json", "xml")),
}
JUNK = st.sampled_from(("--bogus", "-x", "--", "-", "7", "junk", "--rank=2",
                        "--format=json", "-h", "--maxdeg=-1", "é"))


def _flag(flag):
    """A flag with a valid, an invalid or a missing value."""
    if flag in SWITCHES:
        return st.just([flag])
    return st.one_of(VALUES[flag].map(lambda v: [flag, v]),
                     JUNK.map(lambda v: [flag, v]),
                     st.just([flag]))


@st.composite
def argvs(draw):
    sub = draw(st.sampled_from(SUBCOMMANDS))
    own = draw(st.permutations(OWN_FLAGS[sub]))
    flags = own[:draw(st.integers(0, len(own)))]
    flags += draw(st.lists(st.sampled_from(sorted(VALUES) + list(SWITCHES)),
                           max_size=2))
    argv = [sub]
    for flag in flags:
        argv += draw(_flag(flag))
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(JUNK))
    where = draw(st.sampled_from(("none", "before", "after")))
    if where != "none":
        fmt = draw(_flag("--format"))
        argv = fmt + argv if where == "before" else argv + fmt
    return argv


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
    # the same outcome (parsed, help or usage error) and, once parsed, the
    # same value of every namespace attribute
    assert oracles.table_outcome(argv) == oracles.argparse_outcome(argv), argv
