"""The verification harness: every headline identity as a named case.

Each case recomputes its values from scratch and returns its status and
details, which always carry the expected/computed pair, so a failure is a
diff, never a bare flag; `run_case` and `run_all` make the Report under the
case's name.  One table, CRITERIA, names each case once, under its
criterion.  Cases are independent and run in the fixed case order.
"""

from math import comb, factorial

from .catalog import lookup_model, restriction_reports, validate_catalog
from .chow import rost_chow_basis, verify_additive_decomposition
from .errors import ValidationError
from .groebner import hilbert_series
from .steenrod import beta_preimage, derive_q1_check, sq_hits
from .torsion import (
    sharp_of_y_top,
    sharp_y_bound,
    torsion_index_so,
    witness_product,
)
from . import chow as _chow


class Report:
    """Outcome of one verification case; failures always carry a diff."""

    __slots__ = ("case", "status", "details")

    def __init__(self, case, status, details):
        if status == "fail" and ("expected" not in details
                                 and "failures" not in details):
            raise ValueError("fail reports must carry a diff")
        self.case = case
        self.status = status
        self.details = details

    def as_dict(self):
        return {"case": self.case, "status": self.status,
                "details": self.details}

    def __repr__(self):
        return "Report(%s: %s)" % (self.case, self.status)


def _outcome(expected, computed, provenance):
    status = "pass" if expected == computed else "fail"
    return status, {"expected": expected, "computed": computed,
                    "provenance": provenance}


# --- criterion 1: exact torsion indices ---------------------------------------


def case_torsion_so(l):
    value, details = torsion_index_so(l, return_details=True)
    status, out = _outcome(2 ** l, value, "gcd over top torus monomials")
    out.update(details)
    return status, out


# --- criteria 2-3: series decompositions --------------------------------------


def case_decomposition(family, rank, prime, maxdeg):
    model = lookup_model(family, rank, prime)
    rep = verify_additive_decomposition(model, maxdeg)
    details = {"expected": rep.get("rhs"), "computed": rep.get("lhs"),
               "provenance": "series product vs quotient series",
               "maxdeg": maxdeg, "basis_size": rep.get("basis_size")}
    return rep["status"], details


# --- criterion 4: coinvariant dimensions --------------------------------------


def case_coinvariant_counts():
    failures = []
    checked = []
    for l in range(1, 5):
        bound_u = l * (l - 1) + 4
        bound_sp = 2 * l * l + 4
        fact = factorial(l)
        for p in (2, 3, 5):
            u = hilbert_series(_chow.chow_presentation(lookup_model("U", l, p)),
                               bound_u).total()
            sp = hilbert_series(_chow.chow_presentation(lookup_model("Sp", l, p)),
                                bound_sp).total()
            checked.append(("U", l, p, u))
            checked.append(("Sp", l, p, sp))
            if u != fact:
                failures.append("U(%d) p=%d: %d != %d" % (l, p, u, fact))
            if sp != 2 ** l * fact:
                failures.append("Sp(%d) p=%d: %d != %d" % (l, p, sp, 2 ** l * fact))
    status = "fail" if failures else "pass"
    return status, {"failures": failures, "cases": len(checked),
                    "provenance": "quotient series totals"}


# --- criterion 5: height-n summand bases --------------------------------------


def case_rost_basis():
    expected = {
        (1, 2): ["1", "c_0(y)"],
        (1, 3): ["1", "c_0(y)", "c_0(y^2)"],
        (2, 2): ["1", "c_0(y)", "c_1(y)"],
    }
    degree_cases = {(1, 2): [0, 2], (1, 3): [0, 2, 4], (2, 2): [0, 6, 4],
                    (2, 3): [0, 8, 4, 16, 12],
                    (2, 5): [0, 12, 4, 24, 16, 36, 28, 48, 40],
                    (4, 2): [0, 30, 28, 24, 16]}
    failures = []
    for (n, p), degs in degree_cases.items():
        basis = rost_chow_basis(n, p)
        if len(basis) != 1 + n * (p - 1):
            failures.append("(%d,%d): count %d" % (n, p, len(basis)))
        if [b.topdeg for b in basis] != degs:
            failures.append("(%d,%d): degrees %r != %r"
                            % (n, p, [b.topdeg for b in basis], degs))
        names = expected.get((n, p))
        if names and [b.name for b in basis] != names:
            failures.append("(%d,%d): names %r" % (n, p, [b.name for b in basis]))
    status = "fail" if failures else "pass"
    return status, {"failures": failures, "cases": sorted(degree_cases),
                    "provenance": "degree formula of the summand basis"}


# --- criterion 6: squares reach every non-Mersenne index -----------------------


def case_sq_hits():
    failures = []
    for i in range(1, 65):
        mersenne = (i & (i + 1)) == 0
        computed = sq_hits(i)
        exists = any(comb(i - k, k) % 2 == 1 for k in range(1, i))
        if computed != (not mersenne) or computed != exists:
            failures.append(i)
    status = "fail" if failures else "pass"
    return status, {"failures": failures, "range": 64,
                    "provenance": "exhaustive binomial search"}


# --- criteria 7-8: witnesses ----------------------------------------------------


def case_witness(family, rank, prime, expected_s):
    """The catalog witness of the case multiplies to p^expected_s times the
    top class; the expected exponents are the paper's."""
    model = lookup_model(family, rank, prime)
    w = witness_product(model, model.witness)
    expected = {"exponent": expected_s, "body": model.y_top().pretty()}
    computed = {"exponent": w.s, "body": w.body.pretty()}
    status, details = _outcome(expected, computed, "leading-witness product")
    details["indices"] = list(model.witness)
    return status, details


def case_sharp_e8():
    model = lookup_model("E8", prime=2)
    bound = sharp_y_bound(model, 5)
    top = sharp_of_y_top(model)
    expected = {"bound": 11, "top": 12, "separated": True}
    computed = {"bound": bound, "top": top, "separated": bound < top}
    return _outcome(expected, computed, "greedy factor fill")


def case_beta_preimage():
    model = lookup_model("E8", prime=3)
    R = model.y_ring()
    top = R.gen("y8", 2) * R.gen("y20", 2)
    probe = R.gen("y8") * R.gen("y20")
    expected = {"top_hit": None, "probe_hit": "x5"}
    computed = {"top_hit": beta_preimage(model, top),
                "probe_hit": beta_preimage(model, probe)}
    return _outcome(expected, computed, "Bockstein table scan")


# --- criterion 9: restriction tables -------------------------------------------


def case_restrictions():
    reports = restriction_reports()
    failures = []
    for rep in reports:
        if rep["status"] != "pass":
            failures.append(rep)
    cards = {rep["table"]: rep["image_cardinality"] for rep in reports}
    if cards.get("e8-3-rost-restriction") != 7:
        failures.append("image cardinality for the odd-prime table != 7")
    if cards.get("e8-2-rost-restriction") != 5:
        failures.append("image cardinality for the height-4 table != 5")
    status = "fail" if failures else "pass"
    return status, {"failures": failures, "cardinalities": cards,
                    "provenance": "degree equations and cited counts"}


# --- criterion 10: catalog + derived convention ---------------------------------


def case_catalog():
    report = validate_catalog()
    failures = [(case, fails) for case, ok, fails in report if not ok]
    expected = {"entries": 11, "failing": []}
    computed = {"entries": len(report), "failing": failures}
    return _outcome(expected, computed, "catalog invariants")


def case_q1_derivation():
    failures = []
    for l in range(2, 6):
        for rep in derive_q1_check(l):
            if not rep["agree"]:
                failures.append((l, rep))
    status = "fail" if failures else "pass"
    return status, {"failures": failures, "ranks": [2, 3, 4, 5],
                    "provenance": "composed squares vs stored rule"}


# --- the suite -------------------------------------------------------------------


# each acceptance criterion and its cases, (name, function) in run order
CRITERIA = (
    ("1 exact torsion indices", (
        ("torsion-so-l2", lambda: case_torsion_so(2)),
        ("torsion-so-l3", lambda: case_torsion_so(3)),
        ("torsion-so-l4", lambda: case_torsion_so(4)))),
    ("2 squared-relation decomposition", (
        ("decomp-so(5)p=2", lambda: case_decomposition("SO_odd", 2, 2, 40)),
        ("decomp-so(7)p=2", lambda: case_decomposition("SO_odd", 3, 2, 40)),
        ("decomp-so(9)p=2", lambda: case_decomposition("SO_odd", 4, 2, 40)))),
    ("3 projective-unitary decomposition", (
        ("decomp-pu(3)", lambda: case_decomposition("PU", 2, 3, 30)),
        ("decomp-pu(5)", lambda: case_decomposition("PU", 4, 5, 30)))),
    ("4 coinvariant dimensions", (
        ("coinvariant-counts", case_coinvariant_counts),)),
    ("5 summand basis formula", (("rost-basis", case_rost_basis),)),
    ("6 square-hitting criterion", (("sq-hits", case_sq_hits),)),
    ("7 rank-8 two-primary witness and count", (
        ("witness-e8-2", lambda: case_witness("E8", 8, 2, 6)),
        ("sharp-e8-2", case_sharp_e8))),
    ("8 remaining witnesses and Bockstein gap", (
        ("witness-e8-3", lambda: case_witness("E8", 8, 3, 2)),
        ("witness-e7-2", lambda: case_witness("E7", 7, 2, 2)),
        ("witness-g2-2", lambda: case_witness("G2", 2, 2, 1)),
        ("witness-f4-3", lambda: case_witness("F4", 4, 3, 1)),
        ("witness-e8-5", lambda: case_witness("E8", 8, 5, 1)),
        ("beta-no-preimage", case_beta_preimage))),
    ("9 restriction tables", (("restriction-tables", case_restrictions),)),
    ("10 catalog and derived convention", (
        ("catalog-validate", case_catalog),
        ("q1-derivation", case_q1_derivation))),
)

# (name, function) of every case in run order; read at call time, so a
# wrapper set on verify.CASES is the one run
CASES = tuple(case for _, cases in CRITERIA for case in cases)


def run_case(name):
    for case, fn in CASES:
        if case == name:
            return Report(case, *fn())
    raise ValidationError("unknown verification case %r; known cases: %s"
                          % (name, ", ".join(case for case, _ in CASES)))


def run_all():
    """Run every case; reports come back in the fixed declaration order."""
    return [Report(case, *fn()) for case, fn in CASES]


def criteria_summary(reports):
    """(criterion label, ok, case statuses) per acceptance criterion."""
    by_case = {r.case: r for r in reports}
    out = []
    for label, cases in CRITERIA:
        statuses = {c: by_case[c].status for c, _ in cases}
        ok = all(s == "pass" for s in statuses.values())
        out.append((label, ok, statuses))
    return out
