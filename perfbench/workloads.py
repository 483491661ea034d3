"""The three benchmark workloads: their pools, seed draws and checks.

A workload builds a list of jobs from the seed; one pass runs every job once,
in order, from one client thread (a closed loop).  Each job is checked after
the pass against `reference`, never against flagchow itself.

A check returns None, or a one-line reason when the job failed: a computed
value disagrees with the reference, or a CLI call broke the README exit-code
contract (0 pass, 1 verification failed, 2 usage or data error; an exception
escaping `main` keeps none of them).  Any failed job makes the run incorrect.

Inputs that break the contract at the benchmark's first commit are not timed
jobs; they sit in the untimed contract probe (`contract_probe_calls`).
"""

import contextlib
import importlib
import io
import json
import random

import reference

# BENCHMARK.json declares the last two; verify_all runs by hand (see README)
WORKLOADS = ("verify_all", "hilbert_sweep", "cli_mix")

# flagchow modules each workload's set-up imports
MODULES = {
    "verify_all": ("flagchow.cli",),
    "hilbert_sweep": ("flagchow.catalog", "flagchow.chow", "flagchow.groebner"),
    "cli_mix": ("flagchow.cli",),
}

# the 22 cases of `verify --all`, in declaration order
VERIFY_CASES = (
    "torsion-so-l2", "torsion-so-l3", "torsion-so-l4",
    "decomp-so(5)p=2", "decomp-so(7)p=2", "decomp-so(9)p=2",
    "decomp-pu(3)", "decomp-pu(5)", "coinvariant-counts", "rost-basis",
    "sq-hits", "witness-e8-2", "sharp-e8-2", "witness-e8-3", "witness-e7-2",
    "witness-g2-2", "witness-f4-3", "witness-e8-5", "beta-no-preimage",
    "restriction-tables", "catalog-validate", "q1-derivation",
)


class Job:
    """One call the client makes; `call` is timed, `check` is not."""

    __slots__ = ("label", "call", "check")

    def __init__(self, label, call, check):
        self.label = label
        self.call = call
        self.check = check


def import_modules(workload):
    return {name.rsplit(".", 1)[1]: importlib.import_module(name)
            for name in MODULES[workload]}


def build(workload, seed, modules, tiny=False):
    """The job list of one pass.  Runs inside the timed set-up.

    `tiny` gives a few cheap jobs of the same kinds, for the self-test.
    """
    return _BUILDERS[workload](random.Random(seed), modules, tiny)


# --- cli calls ----------------------------------------------------------------


def _cli_call(cli, argv):
    def call():
        out = io.StringIO()
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv, out=out)
        return code, out.getvalue()
    return call


def _cli_check(expect_exit, check_payload=None):
    def check(result, error):
        if error is not None:
            return "raised %s, expected exit %d" % (type(error).__name__,
                                                    expect_exit)
        if result[0] != expect_exit:
            return "exit %r, expected exit %d" % (result[0], expect_exit)
        if check_payload is not None:
            return check_payload(json.loads(result[1]))
        return None
    return check


def _cli_job(cli, argv, expect_exit=0, check_payload=None):
    argv = argv.split()
    return Job(" ".join(argv), _cli_call(cli, argv),
               _cli_check(expect_exit, check_payload))


def _differs(what, expected, computed):
    if expected == computed:
        return None
    return "%s: expected %r, computed %r" % (what, expected, computed)


def _verify_payload(cases):
    """Check a `verify` payload: every named case present and passing, and
    each torsion case equal to 2^l."""
    def check(payload):
        reports = {r["case"]: r for r in payload["reports"]}
        wrong = (_differs("cases", sorted(cases), sorted(reports))
                 or _differs("summary", {"cases": len(cases), "failed": 0},
                             payload["summary"]))
        if wrong:
            return wrong
        for case in cases:
            if reports[case]["status"] != "pass":
                return "%s: status %s" % (case, reports[case]["status"])
            if case.startswith("torsion-so-l"):
                l = int(case[len("torsion-so-l"):])
                wrong = _differs(case, reference.torsion_index_so(l),
                                 reports[case]["details"]["computed"])
                if wrong:
                    return wrong
        return None
    return check


def _hilbert_payload(family, rank, prime, maxdeg):
    def check(payload):
        return _differs("dims_by_topdeg",
                        reference.hilbert_reference(family, rank, prime, maxdeg),
                        payload["dims_by_topdeg"])
    return check


def _rost_payload(n, p):
    def check(payload):
        return (_differs("count", 1 + n * (p - 1), payload["count"])
                or _differs("topdegs", reference.rost_degrees(n, p),
                            [b["topdeg"] for b in payload["basis"]]))
    return check


def _torsion_payload(value=None, level=None, p_exponent=None):
    def check(payload):
        if value is not None:
            wrong = (_differs("value", value, payload["value"])
                     or _differs("verification", level, payload["verification"]))
            if wrong:
                return wrong
        if p_exponent is not None:
            return _differs("witness p_exponent", p_exponent,
                            payload.get("witness", {}).get("p_exponent"))
        return None
    return check


def _restrict_payload(cardinalities):
    def check(payload):
        tables = {t["name"]: t for t in payload["tables"]}
        for t in tables.values():
            if t["status"] != "pass":
                return "%s: status %s" % (t["name"], t["status"])
        computed = {name: tables[name]["image_cardinality"]
                    for name in cardinalities if name in tables}
        return _differs("image cardinalities", cardinalities, computed)
    return check


def _status_pass(payload):
    return _differs("status", "pass", payload["status"])


# --- verify_all ---------------------------------------------------------------


def _build_verify_all(rng, m, tiny):
    # the seed draws nothing: `verify --all` has no input to vary
    if tiny:
        return [_cli_job(m["cli"], "--format json verify --case torsion-so-l2",
                         0, _verify_payload(("torsion-so-l2",)))]
    return [_cli_job(m["cli"], "--format json verify --all", 0,
                     _verify_payload(VERIFY_CASES))]


# --- hilbert_sweep --------------------------------------------------------------

# (family, rank, prime, maxdeg); prime None means the seed draws it from
# {2, 3, 5}.  A pass takes about 0.6 s at reference speed, so a run holds
# dozens of passes.
HILBERT_POOL = (
    ("U", 6, None, 32), ("Sp", 5, None, 40), ("Sp", 6, None, 26),
    ("SO_odd", 5, 2, 36), ("SO_odd", 6, 2, 26),
    ("SO_even", 5, 2, 36), ("SO_even", 6, 2, 26),
    ("PU", 4, 5, 60),
)
HILBERT_TINY_POOL = (("U", 3, None, 12), ("SO_even", 3, 2, 20), ("PU", 2, 3, 20))


def _build_hilbert_sweep(rng, m, tiny):
    pool = [(fam, rank, prime or rng.choice((2, 3, 5)), maxdeg)
            for fam, rank, prime, maxdeg in (HILBERT_TINY_POOL if tiny
                                             else HILBERT_POOL)]
    rng.shuffle(pool)
    groebner = m["groebner"]
    jobs = []
    for fam, rank, prime, maxdeg in pool:
        pres = m["chow"].chow_presentation(
            m["catalog"].lookup_model(fam, rank, prime))
        check_dims = _hilbert_series_check(fam, rank, prime, maxdeg)
        jobs.append(Job("hilbert_series %s(%d) p=%d maxdeg=%d"
                        % (fam, rank, prime, maxdeg),
                        _hilbert_call(groebner, pres, maxdeg), check_dims))
    return jobs


def _hilbert_call(groebner, pres, maxdeg):
    # looked up on the module at call time, so a tracer's wrapper is seen
    return lambda: groebner.hilbert_series(pres, maxdeg)


def _hilbert_series_check(family, rank, prime, maxdeg):
    def check(result, error):
        if error is not None:
            return "raised %s: %s" % (type(error).__name__, error)
        return _differs(
            "dims", reference.hilbert_reference(family, rank, prime, maxdeg),
            result.dims)
    return check


# --- cli_mix ----------------------------------------------------------------------

# `verify --case` calls of the mix, all cheap
CLI_MIX_VERIFY_CASES = ("torsion-so-l2", "rost-basis", "sq-hits",
                        "restriction-tables", "catalog-validate", "q1-derivation")
E8_RESTRICTIONS = {"e8-3-rost-restriction": 7, "e8-2-rost-restriction": 5}
CRITERION_5_PAIRS = ((1, 2), (1, 3), (2, 2), (2, 3), (2, 5), (4, 2))


def cli_mix_calls():
    """(argv, expected exit, payload check or None) for one cli_mix pass."""
    calls = [
        # README invocations, except `verify --all`, which is verify_all
        ("--format json hilbert --group U --rank 3 --prime 2 --maxdeg 12", 0,
         _hilbert_payload("U", 3, 2, 12)),
        ("present --group SO --rank 3 --prime 2", 0, None),
        ("--format json rost --n 2 --p 2", 0, _rost_payload(2, 2)),
        ("--format json torsion-index --group SO --rank 3", 0,
         _torsion_payload(8, "EXACT")),
        ("--format json torsion-index --group E8 --prime 2 --witness", 0,
         _torsion_payload(p_exponent=6)),
        ("steenrod --group SO --rank 5 --prime 2 --op Q1 --gen x3", 0, None),
        ("catalog --group E8 --prime 3", 0, None),
        ("--format json restrict", 0, _restrict_payload(E8_RESTRICTIONS)),
        ("--format json decompose --group SO --rank 4 --prime 2 --maxdeg 40", 0,
         _status_pass),
        # catalog for each supported case
        ("catalog --group U --rank 3 --prime 2", 0, None),
        ("catalog --group Sp --rank 2 --prime 3", 0, None),
        ("catalog --group PU --prime 5", 0, None),
        ("catalog --group SO --rank 5 --prime 2", 0, None),
        ("catalog --group SOeven --rank 4 --prime 2", 0, None),
        ("catalog --group Spin --rank 5 --prime 2", 0, None),
        ("catalog --group G2 --prime 2", 0, None),
        ("catalog --group F4 --prime 3", 0, None),
        ("catalog --group E8 --prime 5", 0, None),
        ("catalog --group E8 --prime 2", 0, None),
        ("catalog --group E7 --prime 2", 0, None),
        # torsion-index for each supported case; SO(7) and (E8, 2) are above
        # and SO(9) is left to verify_all, which carries its 6 s walk
        ("--format json torsion-index --group SO --rank 2", 0,
         _torsion_payload(4, "EXACT")),
        ("torsion-index --group U --rank 3 --prime 2", 0, None),
        ("torsion-index --group Sp --rank 2 --prime 3", 0, None),
        ("torsion-index --group PU --prime 3", 0, None),
        ("torsion-index --group SOeven --rank 3", 0, None),
        ("torsion-index --group Spin --rank 3", 0, None),
        ("--format json torsion-index --group G2 --prime 2 --witness", 0,
         _torsion_payload(p_exponent=1)),
        ("--format json torsion-index --group F4 --prime 3 --witness", 0,
         _torsion_payload(p_exponent=1)),
        ("--format json torsion-index --group E8 --prime 5 --witness", 0,
         _torsion_payload(p_exponent=1)),
        ("--format json torsion-index --group E8 --prime 3 --witness", 0,
         _torsion_payload(p_exponent=2)),
        ("--format json torsion-index --group E7 --prime 2 --witness", 0,
         _torsion_payload(p_exponent=2)),
        # present for the classical families
        ("present --group U --rank 3 --prime 3", 0, None),
        ("present --group Sp --rank 3 --prime 2", 0, None),
        ("present --group PU --prime 3", 0, None),
        ("present --group SOeven --rank 3 --prime 2", 0, None),
        # small decompose and hilbert calls
        ("--format json decompose --group SO --rank 2 --prime 2 --maxdeg 40", 0,
         _status_pass),
        ("--format json decompose --group PU --prime 3 --maxdeg 30", 0,
         _status_pass),
        ("--format json decompose --group SO --rank 3 --prime 2 --maxdeg 40", 0,
         _status_pass),
        ("--format json hilbert --group Sp --rank 3 --prime 5 --maxdeg 30", 0,
         _hilbert_payload("Sp", 3, 5, 30)),
        ("--format json hilbert --group SOeven --rank 4 --prime 2 --maxdeg 30", 0,
         _hilbert_payload("SO_even", 4, 2, 30)),
        ("--format json hilbert --group PU --prime 3 --maxdeg 20", 0,
         _hilbert_payload("PU", 2, 3, 20)),
        ("--format json hilbert --group SO --rank 3 --prime 2 --maxdeg 24", 0,
         _hilbert_payload("SO_odd", 3, 2, 24)),
        # restrict by name, and verify on cheap cases
        ("--format json restrict --table e8-3-rost-restriction", 0,
         _restrict_payload({"e8-3-rost-restriction": 7})),
    ]
    for case in CLI_MIX_VERIFY_CASES:
        calls.append(("--format json verify --case %s" % case, 0,
                      _verify_payload((case,))))
    for n, p in CRITERION_5_PAIRS:
        if (n, p) != (2, 2):
            calls.append(("--format json rost --n %d --p %d" % (n, p), 0,
                          _rost_payload(n, p)))
    calls += USAGE_ERRORS
    return calls


# usage and data errors: unknown group, maxdeg over the cap, unsupported
# case, no full presentation; each must exit 2
USAGE_ERRORS = [
    ("catalog --group XX --rank 3 --prime 2", 2, None),
    ("hilbert --group U --rank 3 --prime 2 --maxdeg 61", 2, None),
    ("catalog --group G2 --prime 3", 2, None),
    ("present --group E8 --prime 2", 2, None),
]

# usage errors that break the contract at the benchmark's first commit
# (ROADMAP item 4): they raise or exit 0.  They are not timed, so that fixing
# them changes no timing; the contract probe runs them once per run.
CONTRACT_BREAKS = [
    ("rost --n 2 --p 1", 2, None),
    ("rost --n 2 --p 4", 2, None),
    ("steenrod --group SO --rank 5 --prime 2 --op Qx --gen x3", 2, None),
    ("steenrod --group SO --rank 5 --prime 2 --op Sq2 --gen y4", 2, None),
    ("verify --case nope", 2, None),
]


def contract_probe_calls():
    """(argv, expected exit, None) for the untimed contract probe."""
    return USAGE_ERRORS + CONTRACT_BREAKS


def contract_probe(cli):
    """Jobs of the contract probe; `ok_ratio` is the share that pass."""
    return [_cli_job(cli, argv, code, check)
            for argv, code, check in contract_probe_calls()]


def _build_cli_mix(rng, m, tiny):
    calls = cli_mix_calls()
    if tiny:
        calls = calls[:3] + calls[-3:]
    jobs = [_cli_job(m["cli"], argv, code, check) for argv, code, check in calls]
    rng.shuffle(jobs)
    return jobs


_BUILDERS = {
    "verify_all": _build_verify_all,
    "hilbert_sweep": _build_hilbert_sweep,
    "cli_mix": _build_cli_mix,
}
