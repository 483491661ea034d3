import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import time

import oracles
import pytest
from flagchow import catalog, cli
from flagchow.cli import main
from flagchow.errors import ValidationError

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_cli(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def run_json(argv):
    code, text = run_cli(["--format", "json"] + argv)
    return code, json.loads(text) if text else None


def test_hilbert_u3():
    code, payload = run_json(["hilbert", "--group", "U", "--rank", "3",
                              "--prime", "2", "--maxdeg", "12"])
    assert code == 0
    assert payload["dims_by_topdeg"] == [1, 0, 2, 0, 2, 0, 1] + [0] * 6
    assert payload["total"] == 6


def _u_coinvariant_dims(l, maxdeg):
    """prod_{i=1..l} (1 + q^2 + ... + q^{2(i-1)}) by direct expansion."""
    dims = [1]
    for i in range(1, l + 1):
        out = [0] * (len(dims) + 2 * (i - 1))
        for d, c in enumerate(dims):
            for k in range(i):
                out[d + 2 * k] += c
        dims = out
    return (dims + [0] * (maxdeg + 1))[:maxdeg + 1]


def test_hilbert_large_unitary_ranks():
    # sizes whose brute-force standard-monomial count did not finish
    code, payload = run_json(["hilbert", "--group", "U", "--rank", "8",
                              "--prime", "2", "--maxdeg", "56"])
    assert code == 0
    assert payload["dims_by_topdeg"] == _u_coinvariant_dims(8, 56)
    assert payload["total"] == 40320
    code, payload = run_json(["hilbert", "--group", "U", "--rank", "9",
                              "--prime", "2", "--maxdeg", "60"])
    assert code == 0
    assert payload["dims_by_topdeg"] == _u_coinvariant_dims(9, 60)
    # by theorem, with no presentation built: U(30)'s e_15 alone has
    # comb(30, 15) terms, and this call ran without bound while hilbert
    # built one
    start = time.perf_counter()
    code, payload = run_json(["hilbert", "--group", "U", "--rank", "30",
                              "--prime", "2", "--maxdeg", "60"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert payload["dims_by_topdeg"] == _u_coinvariant_dims(30, 60)
    assert catalog.lookup_model("U", 30, 2)._presentation is None
    assert elapsed < 1.0


def _times_exterior(dims, degs):
    """dims times prod (1 + q^d) over degs, truncated to len(dims)."""
    dims = list(dims)
    for d in degs:
        for k in range(len(dims) - 1, d - 1, -1):
            dims[k] += dims[k - d]
    return dims


@pytest.mark.parametrize("group,family,exterior", [
    ("SO", "SO_odd", range(1, 31)),
    ("SOeven", "SO_even", range(1, 30)),
])
def test_hilbert_large_orthogonal_ranks(group, family, exterior):
    # the U(30) coinvariants times the exterior factors prod (1 + q^|c_i|):
    # the summand basis has 2^30 - 1 or 2^29 - 1 square-free products, so
    # a series read by enumerating them would not finish
    start = time.perf_counter()
    code, payload = run_json(["hilbert", "--group", group, "--rank", "30",
                              "--prime", "2", "--maxdeg", "60"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert payload["dims_by_topdeg"] == _times_exterior(
        _u_coinvariant_dims(30, 60), [2 * i for i in exterior])
    assert catalog.lookup_model(family, 30, 2)._presentation is None
    assert elapsed < 1.0


@pytest.mark.parametrize("flags", [
    ["--group", "U", "--rank", "3", "--prime", "2"],
    ["--group", "F4", "--prime", "3"],
], ids=["torus-forms", "symbolic"])
def test_hilbert_refuses_a_negative_maxdeg_on_both_routes(flags, capsys):
    # a symbolic case builds its presentation for the note, after the
    # degree is checked
    for fmt in ("text", "json"):
        code, out = run_cli(["--format", fmt, "hilbert"] + flags
                            + ["--maxdeg", "-1"])
        assert (code, out, capsys.readouterr().err) == (
            2, "", "error: maxdeg must be non-negative\n")


@pytest.mark.parametrize("flags", [
    ["--group", "U", "--rank", "3", "--prime", "2"],
    ["--group", "Spin", "--rank", "5", "--prime", "2"],
    ["--group", "F4", "--prime", "3"],
], ids=["checked", "surjection-target", "symbolic"])
def test_decompose_refuses_a_negative_maxdeg_before_any_skip(flags, capsys):
    # a case whose check is skipped printed `status: skipped` and exited 0
    for fmt in ("text", "json"):
        code, out = run_cli(["--format", fmt, "decompose"] + flags
                            + ["--maxdeg", "-1"])
        assert (code, out, capsys.readouterr().err) == (
            2, "", "error: maxdeg must be non-negative\n")


def test_hilbert_carries_the_note_of_a_symbolic_presentation():
    # in JSON and as the last text line, as `present` carries it, on exactly
    # the four symbolic cases
    symbolic = {("Spin", 3, 2), ("Spin", 4, 2), ("F4", 4, 3), ("E8", 8, 5)}
    for g, l, p in (s for spellings in CATALOG_CASE_SPELLINGS.values()
                    for s in spellings):
        flags = ["--group", g, "--rank", str(l), "--prime", str(p)]
        code, payload = run_json(["hilbert", "--maxdeg", "12"] + flags)
        present_code, present = run_json(["present"] + flags)
        assert code == present_code, (g, l, p)
        if code:
            # a case known only through a surjection has no presentation
            continue
        note = present["presentation"].get("note")
        assert (note is not None) == ((g, l, p) in symbolic), (g, l, p)
        assert payload.get("note") == note, (g, l, p)
        _, text = run_cli(["hilbert", "--maxdeg", "12"] + flags)
        assert text.endswith("total: %d\n" % payload["total"] if note is None
                             else "note: %s\n" % note), (g, l, p)

def test_rost_cli():
    code, payload = run_json(["rost", "--n", "2", "--p", "2"])
    assert code == 0
    assert payload["count"] == 3
    assert sorted(b["topdeg"] for b in payload["basis"]) == [0, 4, 6]


def test_torsion_index_cli():
    code, payload = run_json(["torsion-index", "--group", "SO", "--rank", "3"])
    assert code == 0
    assert payload["value"] == 8
    assert payload["verification"] == "EXACT"
    assert payload["monomials_checked"] == 55


def test_torsion_index_witness_flag():
    code, payload = run_json(["torsion-index", "--group", "E7", "--prime", "2",
                              "--witness"])
    assert code == 0
    assert payload["value"] == 4
    assert payload["verification"] == "UPPER-WITNESS"
    assert payload["witness"]["indices"] == ["2", "7"]
    assert payload["witness"]["p_exponent"] == 2


def test_steenrod_cli():
    code, payload = run_json(["steenrod", "--group", "SO", "--rank", "5",
                              "--prime", "2", "--op", "Q1", "--gen", "x3"])
    assert code == 0
    assert payload["image"] == "y6"
    # q_milnor reads the transgression table alone, never a stored rule
    assert payload["provenance"] == "transgression table"
    code, payload = run_json(["steenrod", "--group", "E8", "--prime", "3",
                              "--op", "Q0", "--gen", "z7"])
    assert payload["image"] == "y8"
    assert payload["provenance"] == "transgression table"
    code, payload = run_json(["steenrod", "--group", "SO", "--rank", "3",
                              "--prime", "2", "--op", "Sq2", "--gen", "x4"])
    assert payload["image"] == "0"
    assert payload["provenance"] == "derived from the binomial rule"


def test_catalog_dump():
    code, payload = run_json(["catalog", "--group", "E8", "--prime", "3"])
    assert code == 0
    assert payload["torsion_index_p"] == 9
    assert len(payload["transgression"]) == 8
    assert payload["j_invariant"] == [1, 1]


def test_unknown_group_exits_2():
    code, text = run_cli(["catalog", "--group", "E6", "--prime", "2"])
    assert code == 2
    code, text = run_cli(["hilbert", "--group", "Nope"])
    assert code == 2


def test_unsupported_case_message_lists_only_the_supported_primes(capsys):
    for argv in (["torsion-index", "--group", "U", "--rank", "2", "--prime", "7"],
                 ["catalog", "--group", "Sp", "--rank", "2", "--prime", "7"],
                 ["catalog", "--group", "PU", "--prime", "7"]):
        code, out = run_cli(argv)
        err = capsys.readouterr().err
        assert (code, out) == (2, ""), argv
        assert "any p" not in err, err
        for group in ("U(l)", "Sp(l)", "PU(p)"):
            assert "%s at p in (2, 3, 5)" % group in err, err


def test_unavailable_presentation_exits_2():
    code, _ = run_cli(["present", "--group", "E8", "--prime", "2"])
    assert code == 2


def test_maxdeg_cap(monkeypatch):
    monkeypatch.setenv("FLAGCHOW_MAXDEG", "10")
    code, _ = run_cli(["hilbert", "--group", "U", "--rank", "2", "--prime", "2",
                       "--maxdeg", "40"])
    assert code == 2
    monkeypatch.delenv("FLAGCHOW_MAXDEG")
    code, _ = run_cli(["hilbert", "--group", "U", "--rank", "2", "--prime", "2",
                       "--maxdeg", "40"])
    assert code == 0


def test_restrict_cli():
    code, payload = run_json(["restrict", "--table", "e8-2-rost-restriction"])
    assert code == 0
    table = payload["tables"][0]
    assert table["status"] == "pass"
    assert table["image_cardinality"] == 5
    code, payload = run_json(["restrict"])
    assert code == 0
    assert len(payload["tables"]) == 6


def test_decompose_cli():
    code, payload = run_json(["decompose", "--group", "SO", "--rank", "2",
                              "--prime", "2", "--maxdeg", "24"])
    assert code == 0
    assert payload["status"] == "pass"
    # skipped cases are reported, not failures
    code, payload = run_json(["decompose", "--group", "Spin", "--rank", "5",
                              "--prime", "2", "--maxdeg", "24"])
    assert code == 0
    assert payload["status"] == "skipped"


def test_verify_single_case():
    code, payload = run_json(["verify", "--case", "sq-hits"])
    assert code == 0
    assert payload["reports"][0]["status"] == "pass"


def test_sq_hits_case_exits_1_on_a_broken_parity_function(monkeypatch, capsys):
    # the case reads binomial parities from math.comb, not from the parity
    # function that sq_hits uses, so a fault there is a diff
    from flagchow import steenrod, symclass
    monkeypatch.setattr(steenrod, "lucas_binomial",
                        lambda n, k, p: 1 - symclass.lucas_binomial(n, k, p))
    code, payload = run_json(["verify", "--case", "sq-hits"])
    assert (code, payload["reports"][0]["status"]) == (1, "fail")
    assert payload["reports"][0]["details"]["failures"]
    assert capsys.readouterr().err == ""


def test_output_is_deterministic():
    for argv in (["catalog", "--group", "SO", "--rank", "3", "--prime", "2"],
                 ["rost", "--n", "4", "--p", "2"]):
        a = run_cli(["--format", "json"] + argv)
        b = run_cli(["--format", "json"] + argv)
        assert a == b
        t1 = run_cli(argv)
        t2 = run_cli(argv)
        assert t1 == t2


def test_text_and_json_agree_on_numbers():
    code_j, payload = run_json(["hilbert", "--group", "PU", "--prime", "3",
                                "--maxdeg", "18"])
    code_t, text = run_cli(["hilbert", "--group", "PU", "--prime", "3",
                            "--maxdeg", "18"])
    assert code_j == code_t == 0
    assert ("total: %d" % payload["total"]) in text
    for d in payload["dims_by_topdeg"]:
        assert ("- %d" % d) in text


def test_verify_quick_cases_exit_zero():
    a = run_json(["verify", "--case", "rost-basis"])
    b = run_json(["verify", "--case", "catalog-validate"])
    assert a[0] == 0 and b[0] == 0


def test_format_flag_accepted_after_subcommand():
    code, text = run_cli(["rost", "--n", "1", "--p", "2", "--format", "json"])
    assert code == 0
    assert json.loads(text)["count"] == 2
    # both placements agree
    _, before = run_cli(["--format", "json", "rost", "--n", "1", "--p", "2"])
    assert before == text


def test_present_json_round_trips_through_schema():
    from flagchow.groebner import hilbert_series
    code, payload = run_json(["present", "--group", "SO", "--rank", "2",
                              "--prime", "2"])
    assert code == 0
    pres = oracles.presentation_from_json(payload["presentation"])
    assert hilbert_series(pres, 8).total() == 8


def test_torsion_index_cli_computes_the_index_once(monkeypatch):
    from flagchow import torsion
    calls = []

    def counted(name):
        fn = getattr(torsion, name)

        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    for name in ("build_integral_flag_ring", "torsion_index_so"):
        monkeypatch.setattr(torsion, name, counted(name))
    code, payload = run_json(["torsion-index", "--group", "SO", "--rank", "3"])
    assert code == 0
    assert payload["monomials_checked"] == 55
    assert sorted(calls) == ["build_integral_flag_ring", "torsion_index_so"]


def test_contract_breaks_exit_2_without_traceback(capsys):
    # usage errors that once raised or exited 0; each names what it accepts
    cases = [
        (["rost", "--n", "2", "--p", "1"], "prime"),
        (["rost", "--n", "2", "--p", "4"], "prime"),
        (["steenrod", "--group", "SO", "--rank", "5", "--prime", "2",
          "--op", "Qx", "--gen", "x3"], "Q<n>, beta, Sq1 or Sq<k>"),
        (["steenrod", "--group", "SO", "--rank", "5", "--prime", "2",
          "--op", "Sq2", "--gen", "y4"], "x<i> or z<i>"),
        (["verify", "--case", "nope"], "sq-hits"),
        (["verify", "--all", "--case", "rost-basis"], "--all or --case"),
    ]
    for argv, named in cases:
        code, out = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and named in err, (argv, err)
        assert "Traceback" not in err


def test_sq0_on_an_even_index_with_no_class_prints_zero(capsys):
    # each raised AttributeError out of main while Sq^0 had its own rule
    for group, rank, gen in (("SOeven", 2, "x4"), ("Spin", 3, "x2")):
        argv = ["steenrod", "--group", group, "--rank", str(rank),
                "--prime", "2", "--op", "Sq0", "--gen", gen]
        code, out = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 0, argv
        assert "image: 0\n" in out, (argv, out)
        assert "Traceback" not in err, argv


def test_a_square_on_an_odd_index_that_names_no_generator_is_a_data_error(capsys):
    # Spin(7) has no x1: Sq0 and Sq1 already said so, Sq2 and Sq4 printed 0
    for op in ("Sq0", "Sq1", "Sq2", "Sq4"):
        argv = ["steenrod", "--group", "Spin", "--rank", "3", "--prime", "2",
                "--op", op, "--gen", "x1"]
        code, _ = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert "no x-generator named 'x1'" in err, (argv, err)
        assert "Traceback" not in err, argv


def test_squares_on_small_orthogonal_models_keep_the_contract(capsys):
    # every orthogonal model of rank <= 5, Sq^0..Sq^4 on x1..x10
    for case in ("SO(2l+1) p=2", "SO(2l) p=2", "Spin(2l+1) p=2"):
        for g, l, p in CATALOG_CASE_SPELLINGS[case]:
            if l > 5:
                continue
            for k in range(5):
                for i in range(1, 11):
                    argv = ["steenrod", "--group", g, "--rank", str(l),
                            "--prime", str(p), "--op", "Sq%d" % k,
                            "--gen", "x%d" % i]
                    code, _ = run_cli(argv)
                    err = capsys.readouterr().err
                    assert code in (0, 2), (argv, code)
                    assert "Traceback" not in err, argv


def test_shared_parser_gives_each_call_its_stand_alone_result(capsys):
    # usage error, help and valid calls in one process, each compared with
    # the same call run again after all of them, in reverse order
    calls = [
        (["hilbert", "--group", "U", "--maxdeg", "x"], 2),
        (["--help"], 0),
        (["hilbert", "--help"], 0),
        (["rost", "--n", "2", "--p", "3"], 0),
        (["--format", "json", "catalog", "--group", "G2", "--prime", "2"], 0),
        (["hilbert", "--group", "Sp", "--rank", "2", "--prime", "3",
          "--maxdeg", "16", "--format", "json"], 0),
        (["verify", "--case", "sq-hits"], 0),
        (["nosuch"], 2),
        (["rost", "--n", "1", "--p", "2"], 0),
    ]

    def run(argv):
        code, out = run_cli(argv)
        captured = capsys.readouterr()
        return code, out, captured.out, captured.err

    shared = [run(argv) for argv, _ in calls]
    assert [r[0] for r in shared] == [code for _, code in calls]
    assert "usage: flagchow hilbert" in shared[0][3]
    assert "usage: flagchow" in shared[1][2]
    assert "--maxdeg MAXDEG" in shared[2][2]
    for (argv, _), result in reversed(list(zip(calls, shared))):
        assert run(argv) == result, argv


def test_dispatch_sees_a_handler_replaced_after_the_first_call(monkeypatch):
    assert run_cli(["rost", "--n", "1", "--p", "2"])[0] == 0
    seen = []

    def patched(args):
        seen.append(args.n)
        return 0, {"patched": True}

    monkeypatch.setattr(cli, "_cmd_rost", patched)
    code, text = run_cli(["rost", "--n", "3", "--p", "2"])
    assert (code, text, seen) == (0, "patched: True\n", [3])


CATALOG_U = ["catalog", "--group", "U"]
# the namespace Python 3.11's argparse gave each subcommand below when none
# of its flags was given, kept as data so that every Python checks it
_UNSET = {"format": None, "format_sub": None}
_GROUP_UNSET = dict(_UNSET, group=None, rank=None, prime=None)
UNSET_NAMESPACE = {
    "catalog": _GROUP_UNSET,
    "hilbert": dict(_GROUP_UNSET, maxdeg=20),
    "verify": dict(_UNSET, all=False, case=None),
}
# argv, the outcome (parsed, help or usage error), attributes it sets
GRAMMAR_EDGES = [
    # --flag=value, a value holding `=`, and unique prefixes
    (["catalog", "--gr=U"], "parsed", {"group": "U"}),
    (["catalog", "--group=U=V"], "parsed", {"group": "U=V"}),
    (["catalog", "--gro", "U"], "parsed", {"group": "U"}),
    (["hilbert", "--group", "U", "--p", "3"], "parsed",
     {"group": "U", "prime": 3}),
    # --g could be --group or --gen; every word is read before help acts
    (["steenrod", "--g", "x3", "--group", "SO", "--op", "Q1"], "usage error", {}),
    (["steenrod", "-h", "--g"], "usage error", {}),
    (["steenrod", "--group", "SO", "--op", "Q1", "--g=x3"], "usage error", {}),
    # --format before the subcommand, by prefix, and after it, which wins
    (["--f", "json"] + CATALOG_U, "parsed", {"format": "json", "group": "U"}),
    (["--fo", "json"] + CATALOG_U, "parsed", {"format": "json", "group": "U"}),
    (["--format", "json"] + CATALOG_U + ["--format", "text"], "parsed",
     {"format": "json", "format_sub": "text", "group": "U"}),
    (CATALOG_U + ["--format", "xml"], "usage error", {}),
    # the walk reads on past a word before the subcommand: a repeat before
    # it is still an option, and the last one wins
    (["--format", "json", "--format", "text"] + CATALOG_U, "parsed",
     {"format": "text", "group": "U"}),
    (["--f", "json", "--fo", "text"] + CATALOG_U, "parsed",
     {"format": "text", "group": "U"}),
    (["--format=json"] + CATALOG_U, "parsed", {"format": "json", "group": "U"}),
    (["--format", "json", "-h", "catalog"], "help", {}),
    (["--format", "-"] + CATALOG_U, "usage error", {}),
    # `--=x` could match every long option of the level before the
    # subcommand, wherever it stands, and fails before a bad value applies
    (["--format", "xml", "--=x"] + CATALOG_U, "usage error", {}),
    (CATALOG_U + ["--=x"], "usage error", {}),
    (["--=x"] + CATALOG_U, "usage error", {}),
    # a value may be `-` or a negative number, never another dash-word
    (["catalog", "--group", "-"], "parsed", {"group": "-"}),
    (["catalog", "--group", "-.5"], "parsed", {"group": "-.5"}),
    (CATALOG_U + ["--rank", "-1"], "parsed", {"group": "U", "rank": -1}),
    (CATALOG_U + ["--rank", "-.5"], "usage error", {}),
    (CATALOG_U + ["--rank", "-x"], "usage error", {}),
    (CATALOG_U + ["--rank", "-1e3"], "usage error", {}),
    # the last repeat wins
    (CATALOG_U + ["--group", "SO", "--rank", "2", "--rank", "3"], "parsed",
     {"group": "SO", "rank": 3}),
    # a switch takes no value
    (["verify", "--all"], "parsed", {"all": True}),
    (["verify", "--all=yes"], "usage error", {}),
    # a bad int or a missing value fails where the walk reaches it
    (CATALOG_U + ["--rank", "x"], "usage error", {}),
    (["catalog", "--group"], "usage error", {}),
    (["catalog", "--group", "U", "--rank", "x", "-h"], "usage error", {}),
    # help where the walk reaches it; -h with more letters than h fails
    (["-h"], "help", {}),
    (["--help"], "help", {}),
    (["--he"], "help", {}),
    (["hilbert", "-h"], "help", {}),
    (["-hh"], "help", {}),
    (["-hx"], "usage error", {}),
    (["catalog", "--bogus", "-h"], "help", {}),
    (["-x", "catalog", "-h"], "help", {}),
    # `--` in each position
    (["--"] + CATALOG_U, "usage error", {}),
    (["catalog", "--", "--group", "U"], "usage error", {}),
    (["catalog", "--group", "--", "U"], "usage error", {}),
    (CATALOG_U + ["--"], "usage error", {}),
    (["catalog", "--", "-h"], "usage error", {}),
    # unknown flags, stray words and subcommands, reported at the end
    (CATALOG_U + ["--bogus"], "usage error", {}),
    (["--bogus"] + CATALOG_U, "usage error", {}),
    (CATALOG_U + ["junk"], "usage error", {}),
    (["nosuch"], "usage error", {}),
    ([], "usage error", {}),
]


EDGE_IDS = [" ".join(argv) or "(empty)" for argv, _, _ in GRAMMAR_EDGES]


@pytest.mark.parametrize("argv, outcome, attrs", GRAMMAR_EDGES, ids=EDGE_IDS)
def test_argument_grammar_edges_read_as_recorded(argv, outcome, attrs, capsys):
    read = oracles.table_outcome(argv)
    assert read[0] == outcome
    if outcome == "parsed":
        command = next(word for word in argv if word in UNSET_NAMESPACE)
        assert read[1] == dict(UNSET_NAMESPACE[command], command=command,
                               **attrs)
        return
    code, out = run_cli(argv)
    captured = capsys.readouterr()
    assert (code, out) == ((0, "") if outcome == "help" else (2, ""))
    if outcome == "help":
        assert captured.out.startswith("usage: flagchow")
    else:
        assert captured.err.startswith("error: ")
        assert "\nusage: flagchow" in captured.err


@oracles.ON_REFERENCE_PYTHON
@pytest.mark.parametrize("argv", [argv for argv, _, _ in GRAMMAR_EDGES],
                         ids=EDGE_IDS)
def test_argument_grammar_edges_match_the_argparse_reference(argv):
    assert oracles.table_outcome(argv) == oracles.argparse_outcome(argv)


def test_an_empty_long_option_names_the_top_level_options(capsys):
    # only the read of every token at the level before the subcommand gives
    # this message and usage line, whichever level `--=x` stands in
    usage = ("usage: flagchow [-h] [--format {text,json}] {catalog,present,"
             "hilbert,rost,restrict,decompose,torsion-index,steenrod,verify} ...")
    for argv in (["--format", "xml", "--=x"] + CATALOG_U, CATALOG_U + ["--=x"],
                 ["--=x"] + CATALOG_U):
        assert run_cli(argv) == (2, "")
        assert capsys.readouterr().err == (
            "error: ambiguous option: --=x could match --help, --format\n"
            + usage + "\n"), argv


# the argv of each `flagchow ...` line of the README's usage block
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
with open(README) as f:
    README_INVOCATIONS = [line.split("#")[0].split()[1:] for line in f
                          if line.startswith("flagchow ")]


def _reads(monkeypatch):
    """The tokens `cli._read` is given from now on, in order."""
    tokens = []
    read = cli._read

    def counted(token, cmd):
        tokens.append(token)
        return read(token, cmd)
    monkeypatch.setattr(cli, "_read", counted)
    return tokens


def test_each_readme_invocation_reads_each_token_once(monkeypatch):
    # the level before the subcommand reads up to it and the subcommand
    # reads the rest, so a walk that reads the tail twice changes the count
    assert len(README_INVOCATIONS) == 10
    tokens = _reads(monkeypatch)
    for argv in README_INVOCATIONS:
        del tokens[:]
        assert cli._parse(argv) is not None
        assert tokens == argv, argv


def test_an_ambiguous_token_fails_before_any_token_is_read(monkeypatch):
    tokens = _reads(monkeypatch)
    with pytest.raises(ValidationError):
        cli._parse(CATALOG_U + ["--=x"])
    assert tokens == []


def test_two_dashes_after_equals_are_the_value(capsys):
    # argparse 3.11 made `--group=--` an empty list, which raised in the
    # handler; the flag table keeps `--` as the value
    assert oracles.table_outcome(["catalog", "--group=--"])[1]["group"] == "--"
    assert run_cli(["catalog", "--group=--"]) == (2, "")
    assert "unknown group '--'" in capsys.readouterr().err


def test_help_lists_every_subcommand_and_flag(capsys):
    assert run_cli(["--help"]) == (0, "")
    top = capsys.readouterr().out
    for name, (about, flags) in cli._COMMANDS.items():
        assert "  %s " % name in top and about in top
        assert run_cli([name, "--help"]) == (0, "")
        text = capsys.readouterr().out
        assert text.startswith("usage: flagchow %s " % name)
        for flag in list(flags) + ["format", "help"]:
            assert "--" + flag in text


def _fresh_process(*args):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_a_fresh_process_answers_as_the_in_process_call(monkeypatch, capsys):
    # this process has loaded every module, a fresh one loads each on its
    # first read: a handler that read a module it had not loaded fails here
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    for name in ON_FIRST_READ:
        importlib.import_module("flagchow." + name)
    calls = (README_INVOCATIONS
             + [argv.split() for argv, _, _ in workloads.USAGE_ERRORS]
             + [["--bogus"], ["-h"], ["--help"], ["verify", "-h"]])
    for argv in calls:
        done = _fresh_process("-m", "flagchow.cli", *argv)
        code = main(argv)
        captured = capsys.readouterr()
        assert (done.returncode, done.stdout, done.stderr) == (
            code, captured.out, captured.err), argv


def test_a_closed_stdout_ends_the_run_with_its_code_and_no_traceback():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    cases = [(["verify", "--all"], 0),
             (["--format", "json", "verify", "--all"], 0),
             (["--help"], 0),
             (["verify", "--case", "nope"], 2)]
    for argv, code in cases:
        # the read end closed before the first write, and after the first
        # line, as `| head -1` does
        for lines in (0, 1):
            read, write = os.pipe()
            with subprocess.Popen([sys.executable, "-m", "flagchow.cli", *argv],
                                  stdout=write, stderr=subprocess.PIPE,
                                  text=True, env=env) as proc:
                os.close(write)
                with os.fdopen(read) as reader:
                    for _ in range(lines):
                        reader.readline()
                err = proc.stderr.read()
                assert proc.wait(timeout=120) == code, (argv, lines)
            assert "Traceback" not in err and "Exception" not in err, (argv, err)


def test_importing_the_cli_leaves_argparse_unloaded():
    # and every flagchow module but errors: each call loads its own
    done = _fresh_process(
        "-c", "import sys, flagchow.cli; print('argparse' in sys.modules, "
        "sorted(m for m in sys.modules if m.startswith('flagchow')))")
    assert (done.returncode, done.stdout) == (
        0, "False ['flagchow', 'flagchow.cli', 'flagchow.errors']\n")


# the flagchow modules besides cli and errors that one call loads in a fresh
# process, and whether it loads json: a module added to a call's path is a
# one-line diff here
LOADS = {
    "-h": ("", False),
    "catalog --group XX": ("catalog ring symclass", False),
    "verify --all": (
        "catalog chow groebner ring steenrod symclass torsion verify", False),
    "hilbert --group U --rank 3 --prime 2 --maxdeg 12": (
        "catalog chow groebner ring symclass", False),
    "present --group SO --rank 3 --prime 2": (
        "catalog chow groebner ring serialize symclass", True),
    "rost --n 2 --p 2": ("chow groebner ring serialize symclass", True),
    "torsion-index --group SO --rank 3": (
        "catalog ring symclass torsion", False),
    "torsion-index --group E8 --prime 2 --witness": (
        "catalog ring symclass torsion", False),
    "steenrod --group SO --rank 5 --prime 2 --op Q1 --gen x3": (
        "catalog ring steenrod symclass", False),
    "catalog --group E8 --prime 3": ("catalog ring symclass", False),
    "--format json catalog --group E8 --prime 3": (
        "catalog ring serialize symclass", True),
    "restrict": ("catalog ring symclass", False),
    "decompose --group SO --rank 4 --prime 2 --maxdeg 40": (
        "catalog chow groebner ring symclass", False),
}
# runs `flagchow <argv>` as the console script does, then prints the
# modules of its LOADS row and whether json is loaded
_LOADED = """import sys, flagchow.cli
flagchow.cli.main()
loaded = sorted(m[9:] for m in sys.modules if m.startswith("flagchow.")
                and m not in ("flagchow.cli", "flagchow.errors"))
print(" ".join(loaded), "json" in sys.modules, sep="|")
"""


def test_each_call_in_a_fresh_process_loads_the_modules_of_its_row():
    assert set(LOADS) == {" ".join(argv) for argv in README_INVOCATIONS} | {
        "-h", "catalog --group XX", "--format json catalog --group E8 --prime 3"}
    for line, (modules, json_loaded) in LOADS.items():
        done = _fresh_process("-c", _LOADED, *line.split())
        assert done.stdout.splitlines()[-1] == "%s|%s" % (
            modules, json_loaded), line


# the modules `cli` binds to a global `_<name>` on its first read
ON_FIRST_READ = ("catalog", "chow", "serialize", "steenrod", "torsion",
                 "verify")


def test_after_its_first_call_a_call_reads_each_module_global_as_the_module(
        monkeypatch):
    assert {name[1:] for name, value in vars(cli).items()
            if isinstance(value, cli._OnFirstRead)
            or getattr(value, "__name__", "").startswith("flagchow.")} == set(
                ON_FIRST_READ)

    def read_again(self, attr):
        raise AssertionError("_%s.%s read through the stand-in again"
                             % (self.name, attr))
    for argv in README_INVOCATIONS + [["--format", "json"] + argv
                                      for argv in README_INVOCATIONS]:
        with monkeypatch.context() as patch:
            for name in ON_FIRST_READ:
                patch.setattr(cli, "_" + name, cli._OnFirstRead(name))
            first = run_cli(argv)
            patch.setattr(cli._OnFirstRead, "__getattr__", read_again)
            assert run_cli(argv) == first, argv


def test_main_without_argv_reads_sys_argv(monkeypatch):
    argv = ["rost", "--n", "2", "--p", "3"]
    monkeypatch.setattr(sys, "argv", ["flagchow"] + argv)
    out = io.StringIO()
    assert (main(None, out=out), out.getvalue()) == run_cli(argv)


def test_shared_models_read_the_same_after_every_benchmark_call(monkeypatch):
    # the cli_mix calls, the contract probe and `verify --all` twice in one
    # process: the models lookup_model serves, and the presentations kept on
    # them, must not change, and each call must print what it printed before,
    # and what it prints with every model built afresh
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    calls = ([argv for argv, _, _ in workloads.cli_mix_calls()]
             + [argv for argv, _, _ in workloads.contract_probe_calls()]
             + ["verify --all", "--format json verify --all"])
    served = {}
    memo = catalog._build

    def recorded(*case):
        model = memo(*case)
        served[id(model)] = model
        return model
    monkeypatch.setattr(catalog, "_build", recorded)

    def run_round():
        results = []
        for argv in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv.split(), out=out)
            results.append((argv, code, out.getvalue(), err.getvalue()))
        state = [(oracles.object_state(m), oracles.object_state(m._presentation))
                 for m in served.values()]
        return results, state

    first, state = run_round()
    assert served and any(m._presentation is not None for m in served.values())
    again, state_again = run_round()
    assert again == first
    assert state_again == state
    memo.cache_clear()
    assert run_round()[0] == first


# every model validate_catalog checks, by case id, in its CLI spelling
CATALOG_CASE_SPELLINGS = {
    "U/Sp (any p)": [(g, l, p) for g in ("U", "Sp") for l in (1, 2, 3, 5)
                     for p in (2, 3, 5)],
    "PU(p)": [("PU", p - 1, p) for p in (2, 3, 5)],
    "SO(2l+1) p=2": [("SO", l, 2) for l in range(1, 9)],
    "SO(2l) p=2": [("SOeven", l, 2) for l in range(2, 9)],
    "Spin(2l+1) p=2": [("Spin", l, 2) for l in range(3, 9)],
    "(G2, 2)": [("G2", 2, 2)],
    "(F4, 3)": [("F4", 4, 3)],
    "(E8, 5)": [("E8", 8, 5)],
    "(E8, 3)": [("E8", 8, 3)],
    "(E8, 2)": [("E8", 8, 2)],
    "(E7, 2)": [("E7", 7, 2)],
}


def test_catalog_and_witness_outputs_match_the_pinned_digests(capsys):
    import hashlib
    # sha256 per case of the exit code, stdout and stderr of
    # `--format json catalog` and `--format json torsion-index --witness` on
    # each of its models; Spin(13) and Spin(15) have no torsion data (exit 2)
    expected = {
        "U/Sp (any p)":
            "31ab25b9f90ad4113a4f8273cfc5b22b9e54ed9efd745276b6f324e40ccc6827",
        "PU(p)":
            "992cbbb74f2bd60b82c5b8650721bcfd77176fbe347de3560cab1d4f7cb38400",
        "SO(2l+1) p=2":
            "e4da52134925c2a4f7fdb6ca6a7213217084701bbce58a1671c5bc85a1e032f9",
        "SO(2l) p=2":
            "8524da9eb96716972e764619720b60184f8d5eb274f32009e8137e69f39df861",
        "Spin(2l+1) p=2":
            "ed26151f201c4d873d1078b28c8c2fbceba9f0ead7ebaebdc98ae94af101a0b9",
        "(G2, 2)":
            "3510180aed4543f14b7b48e30c3f312554f70b209d2f0fa69a19a8d989667b13",
        "(F4, 3)":
            "7fd4231ed6d162ceee16adc5eff970552be45bb30df3a3242baeadbc87e62a74",
        "(E8, 5)":
            "4f9351407404c4b52b20d7b1dac599cc2b8a4d297107496f555f7b4b958c67e1",
        "(E8, 3)":
            "419cc42a73c184892fe002a0d41c10240ef3c3b37be9397b21b4e40ece40555c",
        "(E8, 2)":
            "12da17def4a38e79f422016b6aaa879b43ca56291a88a4ce99f4257e8c324da3",
        "(E7, 2)":
            "323a9042cf9391526f91d285c88e51f87cfa9bd2da5ff321ce8727ab8a6020b9",
    }
    served_models = list(catalog._served_models())
    assert list(CATALOG_CASE_SPELLINGS) == list(
        dict.fromkeys(case for case, _ in served_models))
    got = {}
    for case, spellings in CATALOG_CASE_SPELLINGS.items():
        served = [m for c, m in served_models if c == case]
        assert [catalog.lookup_model(catalog.GROUP_FAMILIES[g], l, p)
                for g, l, p in spellings] == served, case
        digest = hashlib.sha256()
        for g, l, p in spellings:
            flags = ["--group", g, "--rank", str(l), "--prime", str(p)]
            for command in (["catalog"], ["torsion-index", "--witness"]):
                code, out = run_cli(["--format", "json"] + command + flags)
                err = capsys.readouterr().err
                digest.update(repr((command, flags, code, out, err)).encode())
        got[case] = digest.hexdigest()
    assert got == expected


def test_text_outputs_match_the_pinned_digests(capsys, monkeypatch):
    import hashlib
    # sha256 per case of the argv, exit code, stdout and stderr of text
    # `catalog`, `present`, `hilbert` at --maxdeg 0, 12 and 30, and
    # `torsion-index` with and without --witness on each of its models, then
    # of `rost` in text and JSON on the criterion-5 pairs
    expected = {
        "U/Sp (any p)":
            "c62aa9813cc270ddedbc1ab1db97c10ebad8c2a888577a9d9382cc2f7c6291e6",
        "PU(p)":
            "cffa0e2a811d56f622311bb8344abf94902f88c603c43bf4fd8787d7791a194c",
        "SO(2l+1) p=2":
            "5eed30bcc16465e4742125274db27be80fb8fa62323c11e89b1ad69f752e9b97",
        "SO(2l) p=2":
            "2feca58f5fc977d0d4102deaddbbc28abc883ea7116242e2bf75f97c855a0a44",
        "Spin(2l+1) p=2":
            "89a2bc4a86441ebb5598ec568cde82b3568e852eb96aa50b55744dc0cebb1157",
        "(G2, 2)":
            "abd2aefb33854a4c1b96fff461fa9b47d33a6a7e9c7bcf4377d115583689051a",
        "(F4, 3)":
            "244378f07a9136c8e6b9c0b29129f3ab797cbbff9f134031ff8e26256bd19119",
        "(E8, 5)":
            "ff9a3618d55705cf2d50b6a98aeb14b3d7be26d335ad22fb515b17726ae935d9",
        "(E8, 3)":
            "cf79aafdb59297763bbcf4e93a2213651faaba8129598113da9dbe4c5845e105",
        "(E8, 2)":
            "1a9fe5afaf36fccfeae0489857a31e7b02e75be265f01ab11ce38b6ed89b2f9a",
        "(E7, 2)":
            "d099f3c439b3bf1f3c6db044dc958571a9f858b2396911134bb01be2c11ae8f1",
        "rost":
            "8da4ede6534907db225b2e94148d5e7b56c691849a4561d5685bfcec16f9229e",
    }
    got = {}
    for case, spellings in CATALOG_CASE_SPELLINGS.items():
        digest = hashlib.sha256()
        for g, l, p in spellings:
            flags = ["--group", g, "--rank", str(l), "--prime", str(p)]
            commands = [["catalog"], ["present"]]
            commands += [["hilbert", "--maxdeg", str(d)] for d in (0, 12, 30)]
            commands += [["torsion-index"], ["torsion-index", "--witness"]]
            for command in commands:
                argv = command + flags
                code, out = run_cli(argv)
                err = capsys.readouterr().err
                digest.update(repr((argv, code, out, err)).encode())
        got[case] = digest.hexdigest()
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    digest = hashlib.sha256()
    for n, p in workloads.CRITERION_5_PAIRS:
        for fmt in ("text", "json"):
            argv = ["--format", fmt, "rost", "--n", str(n), "--p", str(p)]
            code, out = run_cli(argv)
            err = capsys.readouterr().err
            digest.update(repr((argv, code, out, err)).encode())
    got["rost"] = digest.hexdigest()
    assert got == expected


def test_row_by_row_outputs_at_many_ranks_match_the_pinned_digests(capsys):
    import hashlib
    # sha256 per group of the argv, exit code, stdout and stderr of
    # `catalog` and `torsion-index --witness`, in text and JSON, on U and Sp
    # at ranks 1-12 and on PU(p), with `decompose --maxdeg 24` (Stanley's
    # product reads the entry degrees) on U and Sp at ranks 1-6 and on PU(p)
    expected = {
        "U": "7cb5bed219ceaa2f356689d55cb5c914a3fec5ffca534688558ba6dfafe9fe78",
        "Sp": "bf418c5b2db4646c9fd428bd8c1d99eb5d7672e833d3c8a030c6820426ed0d18",
        "PU": "d4e9448945bd1ad932cffaa09dadcb62e9b3ae6e25e83a309235b3b486846aeb",
    }
    got = {}
    for group in expected:
        if group == "PU":
            cases = [(p - 1, p) for p in (2, 3, 5)]
        else:
            cases = [(l, p) for l in range(1, 13) for p in (2, 3, 5)]
        digest = hashlib.sha256()
        for l, p in cases:
            flags = ["--group", group, "--rank", str(l), "--prime", str(p)]
            commands = [["catalog"], ["torsion-index", "--witness"]]
            if group == "PU" or l <= 6:
                commands.append(["decompose", "--maxdeg", "24"])
            for fmt in ("text", "json"):
                for command in commands:
                    argv = ["--format", fmt] + command + flags
                    code, out = run_cli(argv)
                    err = capsys.readouterr().err
                    digest.update(repr((argv, code, out, err)).encode())
        got[group] = digest.hexdigest()
    assert got == expected


RESTRICTION_TABLE_NAMES = (
    "so-rost-restriction-l3", "so-rost-restriction-l7", "e8-2-rost-restriction",
    "e8-3-rost-restriction", "e8-to-e7-rost-restriction", "e7-2-rost-restriction")


def test_restriction_and_counting_outputs_match_the_pinned_digests(capsys):
    import hashlib
    # sha256 of the exit code, stdout and stderr of `restrict` on all tables
    # and on each by name, in text and JSON, and of the restriction and
    # counting verify cases in JSON
    calls = [[fmt, "restrict"] + table
             for table in [[]] + [["--table", n] for n in RESTRICTION_TABLE_NAMES]
             for fmt in ("--format=text", "--format=json")]
    calls += [["--format", "json", "verify", "--case", case]
              for case in ("restriction-tables", "sharp-e8-2")]
    assert RESTRICTION_TABLE_NAMES == tuple(
        t.name for t in catalog.restriction_tables())
    expected = {
        "--format=text restrict":
            "d66fa42d2cfea55dd4d83a50b4308190806544d616e93b6e205740f3f7056849",
        "--format=json restrict":
            "f790119de857e9e8406cd4f32a92629136d9f201d79c070622628f775220ab67",
        "--format=text restrict --table so-rost-restriction-l3":
            "32e153f6c77bb9ea69f705ee2fe8ad7e2ca4e7379bbd7896fe997464883d0d56",
        "--format=json restrict --table so-rost-restriction-l3":
            "23eb0e01087195e3ec1efe348dc20223b091053d9063edbbe7fcd0b4f3bf3a39",
        "--format=text restrict --table so-rost-restriction-l7":
            "c81fca9f23af1a6e9dcf233a16bd2361405be09e78a7762a3d571e464496cbaf",
        "--format=json restrict --table so-rost-restriction-l7":
            "86f5a1707775e1322519645f0da9c1ffdd5f7bf73709f433495c0ffe5fef01f6",
        "--format=text restrict --table e8-2-rost-restriction":
            "20ee5f1c6ab3ca2f8e621152a86b71dfcfa8e848d477942b691e467cb59e3dfd",
        "--format=json restrict --table e8-2-rost-restriction":
            "39641129152ef076dc8584e76561568975faf49a1a2be28a79cfba4c13ab0c99",
        "--format=text restrict --table e8-3-rost-restriction":
            "409365ddc59e18ab24bbff955f133b42ce859e9edff4592a4ce2c77bc08f5803",
        "--format=json restrict --table e8-3-rost-restriction":
            "11e966ab5d3ffe8b69d8e4c5750be818c5f8ab468bf745dc8b35092c99904b77",
        "--format=text restrict --table e8-to-e7-rost-restriction":
            "1fcb5da8406e7e6e3d47a9fccc6ea3006838aeb9b8655d6d018a4351318d0a89",
        "--format=json restrict --table e8-to-e7-rost-restriction":
            "6fddacb1567dbd2783761342f570118c718ce452da5d45934abeec71a9178cd1",
        "--format=text restrict --table e7-2-rost-restriction":
            "bcaecbe6107d240948d12f2e8a4e1450fdc545e0e122d0b5b4ebe9c6bb0b9dec",
        "--format=json restrict --table e7-2-rost-restriction":
            "3116bd805d1b8df9350e626f5976a1137d98011262edffd0aba7b6d90170ad49",
        "--format json verify --case restriction-tables":
            "24b815ff3573959e75d475dd412c75d7175927a53e3ec27ab83cc88c62a89a5a",
        "--format json verify --case sharp-e8-2":
            "d3d51614fc7c8196407f903f000a104ef773f471ac6854a6304fee70f4c73719",
    }
    got = {}
    for argv in calls:
        code, out = run_cli(argv)
        err = capsys.readouterr().err
        got[" ".join(argv)] = hashlib.sha256(
            repr((code, out, err)).encode()).hexdigest()
    assert got == expected


STEENROD_OPS = ("Q0", "Q1", "Q2", "Q3", "beta", "Sq1", "Sq2", "Sq4", "Sq8")


def _generator_names(model):
    """Each x-name, the z<degree> spelling of each x-generator (its alias
    where it has one) and each y-name of the model."""
    names = [x.name for x in model.x_gens]
    names += ["z%d" % x.topdeg for x in model.x_gens]
    names += [g.name for g in model.y_gens]
    return list(dict.fromkeys(names))


def test_steenrod_outputs_match_the_pinned_digests(capsys):
    import hashlib
    # sha256 per case of the exit code, stdout and stderr of `steenrod` with
    # each of STEENROD_OPS on each generator name of each of its models, in
    # text and JSON, then of the two Milnor verify cases in JSON
    expected = {
        "U/Sp (any p)":
            "8b46956e626e0778b17d7e450bcc9bd3598b8fbf246a2f0787bec5bdac9af3f9",
        "PU(p)":
            "a987fd861d5dd656cf6f4c21f8a97247f9da23fa2bcfd909799492ec2441a601",
        "SO(2l+1) p=2":
            "25d793c508f1f716057d7683bb9c7b5286caf122759269d12fd924442360fef3",
        "SO(2l) p=2":
            "d6c7fcf8decd8e883e47e4f6d25e437f93171ffc078ad0db411d988a319072fc",
        "Spin(2l+1) p=2":
            "63ebe479245315aa209331cda1c3df1ded7b367758e9772b63097e531a4afd4c",
        "(G2, 2)":
            "59e6251448f8f3a295124487643473896478ff2f2067510b56ad797e9e03bc05",
        "(F4, 3)":
            "6720dd23ecbea72f4764f716e625d39313fe80d42ad5b5506afc8fa8b1fd6e3c",
        "(E8, 5)":
            "5fbe72cd82058d1379869384a78e8053de290824d80a025c389444ce4e1bdbbe",
        "(E8, 3)":
            "409a3451212b91260e32764432d5c3f125d3b62a9f3c5636f35c0768e2d5e101",
        "(E8, 2)":
            "e7c8dc3c23a7c9a4c78a27f3558246f2672afc37827041c4c4653e516016e7bb",
        "(E7, 2)":
            "97f19823b6882fdd35bb0af8b1011f2debe08c21b8b378757b7c671f65eb4024",
        "q1-derivation":
            "72b15b05c49d69ee137f5406d054e39fc3e048601945f1ed7ab202ff15fd1b91",
        "beta-no-preimage":
            "c11e14a567c259cfabb9bf536185f5b2fbf29010485ce74986596461bdf306df",
    }
    got = {}
    for case, spellings in CATALOG_CASE_SPELLINGS.items():
        digest = hashlib.sha256()
        for g, l, p in spellings:
            model = catalog.lookup_model(catalog.GROUP_FAMILIES[g], l, p)
            flags = ["--group", g, "--rank", str(l), "--prime", str(p)]
            for op in STEENROD_OPS:
                for name in _generator_names(model):
                    for fmt in ("--format=text", "--format=json"):
                        argv = [fmt, "steenrod"] + flags + ["--op", op,
                                                           "--gen", name]
                        code, out = run_cli(argv)
                        err = capsys.readouterr().err
                        digest.update(repr((argv, code, out, err)).encode())
        got[case] = digest.hexdigest()
    for case in ("q1-derivation", "beta-no-preimage"):
        code, out = run_cli(["--format", "json", "verify", "--case", case])
        err = capsys.readouterr().err
        got[case] = hashlib.sha256(repr((code, out, err)).encode()).hexdigest()
    assert got == expected


# the squares STEENROD_OPS leaves out, and the index-named sources x<i> and
# z<i>, odd and even, that the model's own names do not spell
SQUARE_OPS = ("Sq0", "Sq1", "Sq2", "Sq3", "Sq4", "Sq8")
INDEX_SOURCES = tuple("%s%d" % (c, i) for c in "xz" for i in range(1, 9))


def test_squares_on_index_named_sources_match_the_pinned_digests(capsys):
    import hashlib
    # sha256 per case of the exit code, stdout and stderr of `steenrod` with
    # Sq0 and Sq3 on each generator name of each of its models, then each of
    # SQUARE_OPS on each of INDEX_SOURCES, in text and JSON
    expected = {
        "U/Sp (any p)":
            "f949a18214b980227e0a520f5dbb822c59b88f4a897636dc77ee5a59adccf628",
        "PU(p)":
            "ea991e17ba9de80ba97b4c0ce7bb4352e29b45fd145371a4290be4b63f62cce2",
        "SO(2l+1) p=2":
            "ab330195cac67503d56f1bf7fc58bc7de5ce73d528f6525ce46bd2f85c5d37ed",
        "SO(2l) p=2":
            "8173d24099e45180f79a39fd0e275aa50c960abdbbc99d00ac539364beedc8fa",
        "Spin(2l+1) p=2":
            "7bf4456a4d9d8855ee0c01da60e6f640dd2d13f22617114bad3466bdec412800",
        "(G2, 2)":
            "8807b02e5e64d5b6463d68e13141a98bfc7d860305a13ac99669505d049992d7",
        "(F4, 3)":
            "8ab19d635728806749e0a0554f518746b01dbe2b5bc69c54790601768ed7d913",
        "(E8, 5)":
            "b67d3af44225c9fc832540da32b9ae076a04e5c61398d243fa2b144951faba8e",
        "(E8, 3)":
            "af9a1a7867527f87556d34a3980f2e01e15e0afd6ff5a3e771e390e5a6f867bf",
        "(E8, 2)":
            "3310e5d0ceb04cef5571397a907c869d0d7c677903ba642cbe26cdf62b30f6d5",
        "(E7, 2)":
            "a10df3c381870c4d0523a24207b2f81792a06a81daa64741b5c6c704d769a744",
    }
    got = {}
    for case, spellings in CATALOG_CASE_SPELLINGS.items():
        digest = hashlib.sha256()
        for g, l, p in spellings:
            model = catalog.lookup_model(catalog.GROUP_FAMILIES[g], l, p)
            flags = ["--group", g, "--rank", str(l), "--prime", str(p)]
            calls = [(op, name) for op in ("Sq0", "Sq3")
                     for name in _generator_names(model)]
            calls += [(op, name) for op in SQUARE_OPS for name in INDEX_SOURCES]
            for op, name in calls:
                for fmt in ("--format=text", "--format=json"):
                    argv = [fmt, "steenrod"] + flags + ["--op", op, "--gen", name]
                    code, out = run_cli(argv)
                    err = capsys.readouterr().err
                    assert "Traceback" not in err, argv
                    digest.update(repr((argv, code, out, err)).encode())
        got[case] = digest.hexdigest()
    assert got == expected


def _digests(argvs, capsys):
    """sha256 of the exit code, stdout and stderr of each argv, by argv."""
    import hashlib
    got = {}
    for argv in argvs:
        code, out = run_cli(argv.split())
        err = capsys.readouterr().err
        got[argv] = hashlib.sha256(repr((code, out, err)).encode()).hexdigest()
    return got


def test_verify_outputs_match_the_pinned_digests(capsys):
    # `verify --all` in text and JSON, and each case alone in JSON
    expected = {
        "verify --all":
            "4f1c6bfed3fd143e7ea75bba42393d50231479ba8d705b1c2e26eaf61a99c2d4",
        "--format json verify --all":
            "844f9d995749aad648185b23f2b4511d7379f56d600d00023a64ecfb88df2565",
    }
    cases = {
        "torsion-so-l2":
            "320d5a6b74cb1ba7ffa33b206a8f9e1572e8e8ee54c772f680915abe2f2c9718",
        "torsion-so-l3":
            "5916c33a77e663692757f982a63ec530d1d80b4454340c8b3186f92bf5e32e83",
        "torsion-so-l4":
            "6546f55f9f4e3c946754d87fcb7d67e357540b49ca37073eaf06226eee52d713",
        "decomp-so(5)p=2":
            "adb1e89014e5f9e3177916147923b4aaeaddfd1ec34949b4e7f824b3b6acfa91",
        "decomp-so(7)p=2":
            "47661e3700222ccef86b466c8effff99a9c07d7439ed2646aca4e531479a128e",
        "decomp-so(9)p=2":
            "80589eefe7b3a8f7be27128965d088e2ae48592e7995f909669b026201fe6f5c",
        "decomp-pu(3)":
            "9f2041272acbc81f0a0e4b12e7594cb8bdc6e243aa3dc050c72519f5f952b4ea",
        "decomp-pu(5)":
            "b497fc18e9dc54d5003cfff3df8222bc5374c44d7bd37854f76266da36946416",
        "coinvariant-counts":
            "ee2122900dea04f99157d94e8980605a58ec57f7e6627005b1c0c9c864545d69",
        "rost-basis":
            "f70260cacf60d1897be2b6a4c14b687a189a44d29fe948bcdabd9f4e67a9f10b",
        "sq-hits":
            "4f75b10b4da2cb47ca43c6a8664dd80948faced12d4143b5eef63a79e3ce1001",
        "witness-e8-2":
            "fcc9e52cdca1ef603520db50c5c0a164dd92ca5d9ec41a74ff21d62df80971d4",
        "sharp-e8-2":
            "d3d51614fc7c8196407f903f000a104ef773f471ac6854a6304fee70f4c73719",
        "witness-e8-3":
            "e9a19e82e8d5a888c86390c6e7411d024d504666e483452a2b3f07d6afbd88f4",
        "witness-e7-2":
            "7e159f0e1220133694ad6021b1c5ecef29b968f05de233ecdd157bca6e5fdb7a",
        "witness-g2-2":
            "00e9c7a2f8d508097ec15379871532d6ac1cb54f57957c4a219cb1fbf806f981",
        "witness-f4-3":
            "dc984ab357370be5c5f95ea525925dc57bfdcf7349ac6ed569137629a5d78b71",
        "witness-e8-5":
            "aaf6a70f3b32a69f4945ebe80ed638974572c609c3752bbeb15eaac72313a3af",
        "beta-no-preimage":
            "c11e14a567c259cfabb9bf536185f5b2fbf29010485ce74986596461bdf306df",
        "restriction-tables":
            "24b815ff3573959e75d475dd412c75d7175927a53e3ec27ab83cc88c62a89a5a",
        "catalog-validate":
            "a769cb8a91d11d0a868630d4947ac6acd14b8b551e4d3c5eac1a0b68a3a1aa9a",
        "q1-derivation":
            "72b15b05c49d69ee137f5406d054e39fc3e048601945f1ed7ab202ff15fd1b91",
    }
    expected.update(("--format json verify --case " + name, digest)
                    for name, digest in cases.items())
    assert _digests(expected, capsys) == expected


def test_unsupported_and_unknown_groups_match_the_pinned_digests(capsys):
    # each exits 2 with its one-line error on stderr and nothing on stdout
    expected = {
        "catalog --group U --rank 2 --prime 7":
            "511838b0ab2f00be10d1336bb046daea5e60286739cd76ffc0448f8489d7300b",
        "catalog --group PU --prime 7":
            "1fcc46bdc10365d8f309717aa110a32800c1711aacc69cd5779197f97828b28d",
        "catalog --group G2 --prime 3":
            "7fa37ef6ba9b13c6a0b71520149acea31eafb6517676299357939b12934f7e4c",
        "catalog --group E8 --rank 7 --prime 2":
            "e595e2de697154ebaa0ad180e6ef821c3626ae8166bf1ff151e03155dad4aca5",
        "catalog --group SOeven --rank 1 --prime 2":
            "930bf1ec4d4cfc21557844718be81f04957bcc1263b887d171d311d9b4f465f4",
        "catalog --group XX":
            "2d6825f917f6b3511b2b1c8749254520b7c872426a5937a40732e086653dac7e",
    }
    assert _digests(expected, capsys) == expected



DECOMPOSE_SWEEP_CASES = (
    [(g, l) for g, ranks in (("U", range(1, 7)), ("Sp", range(1, 7)),
                             ("SO", range(1, 9)), ("SOeven", range(2, 9)),
                             ("Spin", range(3, 9)))
     for l in ranks]
    + [(g, None) for g in ("PU", "G2", "F4", "E7", "E8")])


def test_decompose_sweep_matches_the_pinned_digest(monkeypatch, capsys):
    import hashlib
    # one sha256 over (argv, exit code, stdout, stderr) of `decompose` on
    # every group and rank above, with no prime or p in (2, 3, 5, 7), at
    # maxdeg 0, 1, 7, 20, 40, 60 and 61 (over the default cap), in text and
    # JSON: 2660 calls, served and unserved cases alike
    monkeypatch.delenv("FLAGCHOW_MAXDEG", raising=False)
    digest = hashlib.sha256()
    calls = 0
    for group, rank in DECOMPOSE_SWEEP_CASES:
        flags = ["--group", group] + ([] if rank is None else ["--rank", str(rank)])
        for prime in (None, 2, 3, 5, 7):
            pflags = [] if prime is None else ["--prime", str(prime)]
            for maxdeg in (0, 1, 7, 20, 40, 60, 61):
                for fmt in ([], ["--format", "json"]):
                    argv = fmt + ["decompose"] + flags + pflags + [
                        "--maxdeg", str(maxdeg)]
                    code, out = run_cli(argv)
                    err = capsys.readouterr().err
                    digest.update(repr((argv, code, out, err)).encode())
                    calls += 1
    assert calls == 2660
    assert digest.hexdigest() == (
        "7492af48b9296a4cf773cc0c8912acb1c5ad1bd8d1ee4700a65137d285bb223b")


# one-line data mutants of the stored restriction images, each of which
# `restrict` and `verify --case restriction-tables` passed when an image was
# stored as a label with a separate degree: (table, source, level, y-power)
RESTRICTION_MUTANTS = {
    "e8-3-b5-y20^2": ("e8-3-rost-restriction", "b_5", 0, ("y20", 2)),
    "e8-to-e7-b4-y10^3": ("e8-to-e7-rost-restriction", "b_4", 0, ("y10", 3)),
    "e8-3-b2-y8^3": ("e8-3-rost-restriction", "b_2", 0, ("y8", 3)),
}


@pytest.mark.parametrize("name", list(RESTRICTION_MUTANTS))
def test_each_restriction_mutant_fails_restrict_and_its_verify_case(
        name, monkeypatch, capsys):
    table, source, level, (y, power) = RESTRICTION_MUTANTS[name]
    mutated = tuple(
        oracles.with_restriction_image(t, source, (
            level, catalog.lookup_model(*t.key).y_ring().gen(y, power)))
        if t.name == table else t
        for t in catalog._stored_restriction_tables())
    monkeypatch.setattr(catalog, "_stored_restriction_tables", lambda: mutated)
    code, payload = run_json(["restrict", "--table", table])
    assert code == 1
    assert "%s -> v_%d*%s^%d fails the degree equation" % (source, level, y, power) \
        in payload["tables"][0]["failures"]
    assert run_json(["restrict"])[0] == 1
    code, payload = run_json(["verify", "--case", "restriction-tables"])
    assert (code, payload["reports"][0]["status"]) == (1, "fail")
    assert capsys.readouterr().err == ""
