from flagchow.verify import CASES, CRITERIA, criteria_summary, run_all, run_case


def test_all_cases_pass_on_a_worker_pool():
    reports = run_all()
    assert [r.case for r in reports] == [name for name, _ in CASES]
    assert all(r.status == "pass" for r in reports), \
        [(r.case, r.details) for r in reports if r.status != "pass"]
    summary = criteria_summary(reports)
    assert len(summary) == len(CRITERIA) == 10
    assert all(ok for _, ok, _ in summary)


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
