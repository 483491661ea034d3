import importlib
import os

from flagchow.verify import CASES, CRITERIA, criteria_summary, run_all, run_case

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def test_all_cases_pass_in_the_criteria_order():
    reports = run_all()
    assert [r.case for r in reports] == [name for name, _ in CASES]
    assert all(r.status == "pass" for r in reports), \
        [(r.case, r.details) for r in reports if r.status != "pass"]
    summary = criteria_summary(reports)
    assert len(summary) == len(CRITERIA) == 10
    assert all(ok for _, ok, _ in summary)
    assert [c for _, cases in CRITERIA for c in cases] == list(CASES)


def test_the_case_names_are_the_benchmark_verify_cases_in_order(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    assert tuple(name for name, _ in CASES) == workloads.VERIFY_CASES


def test_each_case_alone_reports_under_its_own_name():
    for name, _ in CASES:
        assert run_case(name).case == name


def test_a_mutated_catalog_witness_fails_its_verify_case(monkeypatch):
    from flagchow.catalog import lookup_model
    assert run_case("witness-e8-3").details["indices"] == [2, 8]
    monkeypatch.setattr(lookup_model("E8", prime=3), "witness", (8,))
    rep = run_case("witness-e8-3")
    assert rep.status == "fail"
    assert rep.details["indices"] == [8]
    assert rep.details["computed"]["exponent"] == 1


def test_single_case_lookup():
    rep = run_case("sq-hits")
    assert rep.status == "pass"
    assert rep.details["range"] == 64


def test_fail_reports_must_carry_a_diff():
    import pytest
    from flagchow.verify import Report
    with pytest.raises(ValueError):
        Report("x", "fail", {})
    Report("x", "fail", {"expected": 1, "computed": 2})


def test_a_case_that_raises_a_library_error_reports_fail(monkeypatch, capsys):
    # (G2, 2) witnessed by entry 1, which has no leading term: the witness
    # case raises DataMissingError, and the run reports it and goes on
    from flagchow.catalog import lookup_model
    from flagchow.cli import main
    monkeypatch.setattr(lookup_model("G2", prime=2), "witness", (1,))
    reports = {r.case: r for r in run_all()}
    assert reports["witness-g2-2"].status == "fail"
    assert reports["witness-g2-2"].details == {
        "failures": ["entry 1 of (G2, 2) has no leading witness"],
        "provenance": "DataMissingError"}
    assert run_case("witness-g2-2").details == reports["witness-g2-2"].details
    assert [c for c, r in reports.items() if r.status == "fail"] == [
        "witness-g2-2", "catalog-validate"]
    assert main(["verify", "--all"]) == 1
    out, err = capsys.readouterr()
    assert "entry 1 of (G2, 2) has no leading witness" in out and err == ""


def test_a_flipped_root_product_sign_fails_the_torsion_cases(monkeypatch, capsys):
    # one term of the alternant negated: each certificate misses |W|, and the
    # InternalInconsistencyError is that case's fail report
    from flagchow import torsion
    from flagchow.cli import main
    closed = torsion._positive_root_product

    def flipped(l):
        (m, c), *rest = closed(l)
        return ((m, -c), *rest)

    monkeypatch.setattr(torsion, "_positive_root_product", flipped)
    for l, order in ((2, 8), (3, 48), (4, 384)):
        rep = run_case("torsion-so-l%d" % l)
        assert rep.status == "fail"
        assert rep.details["provenance"] == "InternalInconsistencyError"
        assert rep.details["failures"] == [
            "the positive-root product has degree %d, not |W| = %d"
            % (order - 2 ** (l + 1), order)]
    assert main(["verify", "--all"]) == 1
    out, err = capsys.readouterr()
    assert out.count("the positive-root product has degree") == 3
    assert err == ""
