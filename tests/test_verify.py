from flagchow.verify import CASES, CRITERIA, criteria_summary, run_all, run_case


def test_all_cases_pass_on_a_worker_pool():
    reports = run_all()
    assert [r.case for r in reports] == [name for name, _ in CASES]
    assert all(r.status == "pass" for r in reports), \
        [(r.case, r.details) for r in reports if r.status != "pass"]
    summary = criteria_summary(reports)
    assert len(summary) == len(CRITERIA) == 10
    assert all(ok for _, ok, _ in summary)


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
