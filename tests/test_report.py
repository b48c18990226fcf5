"""Tests for the JSON report plumbing."""

from fractions import Fraction

import pytest

from halfgraph.report import (
    CheckResult,
    IdentityReport,
    emit_report,
    parse_exact,
    parse_report,
    run_check,
)


def test_check_result_roundtrip():
    c = CheckResult("id.x", "claim", "195/4096", "1/50", True, 12)
    assert CheckResult.from_dict(c.to_dict()) == c
    assert c.to_dict()["pass"] is True


def test_report_roundtrip():
    sections = [
        IdentityReport("alpha", [CheckResult("a.1", "c", "3/98", "1/32", True, 1)]),
        IdentityReport("beta", [CheckResult("b.1", "d", "0", "0", False, 0)]),
    ]
    data = emit_report(sections)
    assert parse_report(data) == sections
    assert data["version"] == 1


def test_parse_report_rejects_unknown_version():
    with pytest.raises(ValueError):
        parse_report({"version": 99, "sections": []})


def test_exact_strings_parse_back():
    assert parse_exact("195/4096") == Fraction(195, 4096)
    assert parse_exact("38") == 38
    assert parse_exact("-1/2") == Fraction(-1, 2)
    with pytest.raises(ValueError):
        parse_exact("0.25")


def test_run_check_records_outcome():
    c = run_check("x", "two is two", lambda: (2, 2, 2 == 2))
    assert c.passed and c.computed == "2" and c.runtime_ms >= 0


def test_run_check_turns_an_exception_into_an_error_row():
    c = run_check("x", "never computed", lambda: 1 // 0)
    assert not c.passed and c.computed == "" and c.bound == ""
    assert c.error.startswith("ZeroDivisionError: integer division or modulo by zero (at ")
    assert "test_report.py:" in c.error
    data = c.to_dict()
    assert data["error"] == c.error
    assert CheckResult.from_dict(data) == c


def test_passing_check_has_no_error_field():
    c = run_check("x", "two is two", lambda: (2, 2, True))
    assert c.error is None
    assert set(c.to_dict()) == {"id", "claim", "computed", "bound", "pass", "runtime_ms"}


def test_identity_report_failures():
    rep = IdentityReport("s", [
        CheckResult("ok", "c", "1", "1", True, 0),
        CheckResult("bad", "c", "1", "2", False, 0),
    ])
    assert not rep.ok
    assert [c.id for c in rep.failures()] == ["bad"]
