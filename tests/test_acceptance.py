"""Acceptance suite: every headline criterion at its stated bound.

Exact arithmetic throughout: tolerance is zero everywhere.  Each test
prints one pass/fail line for its criterion; the underlying computations
run once per session.
"""

import time

import pytest

from flagchow.catalog import (
    lookup_model,
    restriction_check,
    restriction_tables,
    validate_catalog,
)
from flagchow.chow import rost_chow_basis, verify_additive_decomposition
from flagchow.groebner import hilbert_series
from flagchow.steenrod import beta_preimage, derive_q1_check, sq_hits
from flagchow.symclass import lucas_binomial
from flagchow.torsion import (
    sharp_of_y_top,
    sharp_y_bound,
    torsion_index_so,
    witness_product,
)
from flagchow import chow


def _announce(number, ok, detail):
    print("ACCEPTANCE %2d: %s  %s" % (number, "PASS" if ok else "FAIL", detail))
    assert ok, detail


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_torsion_indices_exact():
    t0 = time.time()
    small = {l: torsion_index_so(l) for l in (2, 3)}
    small_elapsed = time.time() - t0
    t0 = time.time()
    big = torsion_index_so(4)
    big_elapsed = time.time() - t0
    ok = small == {2: 4, 3: 8} and big == 16
    ok = ok and small_elapsed < 10.0 and big_elapsed < 300.0
    _announce(1, ok, "t=(%d,%d,%d), %.1fs + %.1fs"
              % (small[2], small[3], big, small_elapsed, big_elapsed))


# -- criterion 2 ---------------------------------------------------------------


@pytest.fixture(scope="module")
def so_decompositions():
    return {l: verify_additive_decomposition(lookup_model("SO_odd", l, 2), 40)
            for l in (2, 3, 4)}


def test_criterion_2_squared_relation_series(so_decompositions):
    ok = all(rep["status"] == "pass" for rep in so_decompositions.values())
    # the right-hand side is exactly exterior-basis x plain-relation series
    for l, rep in so_decompositions.items():
        assert rep["basis_size"] == 2 ** l
    _announce(2, ok, "ranks 2,3,4 to topdeg 40, coefficient-exact")


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_3_projective_unitary_series():
    reps = {p: verify_additive_decomposition(lookup_model("PU", prime=p), 30)
            for p in (3, 5)}
    ok = all(rep["status"] == "pass" for rep in reps.values())
    ok = ok and reps[3]["basis_size"] == 3 and reps[5]["basis_size"] == 5
    _announce(3, ok, "primes 3 and 5 to topdeg 30")


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_4_coinvariant_totals():
    failures = []
    for l in range(1, 5):
        fact = 1
        for i in range(2, l + 1):
            fact *= i
        for p in (2, 3, 5):
            u = hilbert_series(chow.chow_presentation(lookup_model("U", l, p)),
                               l * (l - 1) + 4).total()
            sp = hilbert_series(chow.chow_presentation(lookup_model("Sp", l, p)),
                                2 * l * l + 4).total()
            if u != fact or sp != 2 ** l * fact:
                failures.append((l, p, u, sp))
    _announce(4, not failures, "l!=dims and 2^l*l!=dims for l<=4, p in {2,3,5}")


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_5_rost_basis_formula():
    degree_cases = {(1, 2): [0, 2], (1, 3): [0, 2, 4], (2, 2): [0, 6, 4],
                    (2, 3): [0, 8, 4, 16, 12],
                    (2, 5): [0, 12, 4, 24, 16, 36, 28, 48, 40],
                    (4, 2): [0, 30, 28, 24, 16]}
    ok = True
    for (n, p), degs in degree_cases.items():
        basis = rost_chow_basis(n, p)
        ok = ok and len(basis) == 1 + n * (p - 1)
        ok = ok and [b.topdeg for b in basis] == degs
    # verbatim worked cases
    ok = ok and [b.name for b in rost_chow_basis(2, 2)] == ["1", "c_0(y)", "c_1(y)"]
    ok = ok and [b.name for b in rost_chow_basis(1, 3)] == ["1", "c_0(y)", "c_0(y^2)"]
    ok = ok and [b.name for b in rost_chow_basis(1, 2)] == ["1", "c_0(y)"]
    _announce(5, ok, "counts 1+n(p-1) and the degree formula on 6 cases")


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_6_square_hitting():
    ok = True
    for i in range(1, 65):
        mersenne = (i & (i + 1)) == 0
        exists = any(lucas_binomial(i - k, k, 2) == 1 for k in range(1, i))
        ok = ok and sq_hits(i) == (not mersenne) == exists
    _announce(6, ok, "hit criterion == (index not one below a 2-power), i <= 64")


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_7_rank8_two_primary():
    m = lookup_model("E8", prime=2)
    w = witness_product(m, [5, 5, 5, 4, 6, 8])
    bound = sharp_y_bound(m, 5)
    top = sharp_of_y_top(m)
    ok = (w.s, w.body) == (6, m.y_top()) and bound == 11 and top == 12
    _announce(7, ok, "witness (6, top class); count bound 11 < 12")


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_8_witnesses_and_bockstein_gap():
    ok = True
    m = lookup_model("E8", prime=3)
    w = witness_product(m, [2, 8])
    ok = ok and (w.s, w.body) == (2, m.y_top())
    m = lookup_model("E7", prime=2)
    w = witness_product(m, [2, 7])
    ok = ok and (w.s, w.body) == (2, m.y_top())
    for fam, rank, p in (("G2", 2, 2), ("F4", 4, 3), ("E8", 8, 5)):
        m = lookup_model(fam, rank, p)
        w = witness_product(m, [2 * p - 2])
        ok = ok and (w.s, w.body) == (1, m.y_top())
        ok = ok and w.body == m.y_ring().gen(m.y_gens[0].name, p - 1)
    e83 = lookup_model("E8", prime=3)
    R = e83.y_ring()
    ok = ok and beta_preimage(e83, R.gen("y8", 2) * R.gen("y20", 2)) is None
    ok = ok and beta_preimage(e83, R.gen("y8") * R.gen("y20")) is not None
    _announce(8, ok, "(2,y^2y'^2), (2,y1y2y3), (1,y^(p-1)) x3; top class misses "
                     "the Bockstein table")


# -- criterion 9 ---------------------------------------------------------------


def test_criterion_9_restriction_tables():
    reports = {t.name: restriction_check(t) for t in restriction_tables()}
    ok = all(rep["status"] == "pass" for rep in reports.values())
    needed = {"so-rost-restriction-l3", "so-rost-restriction-l7",
              "e8-2-rost-restriction", "e8-3-rost-restriction",
              "e8-to-e7-rost-restriction", "e7-2-rost-restriction"}
    ok = ok and needed <= set(reports)
    ok = ok and reports["e8-3-rost-restriction"]["image_cardinality"] == 7
    ok = ok and reports["e8-2-rost-restriction"]["image_cardinality"] == 5
    _announce(9, ok, "degree-consistent, image counts 7 and 5")


# -- criterion 10 ----------------------------------------------------------------


def test_criterion_10_catalog_and_derived_convention():
    report = validate_catalog()
    ok = len(report) == 11 and all(okay for _, okay, _ in report)
    for l in range(2, 6):
        ok = ok and all(rep["agree"] for rep in derive_q1_check(l))
    _announce(10, ok, "11 catalog entries pass; derived rule agrees, ranks 2..5")
