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
