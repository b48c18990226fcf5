"""Tests for the JSON report plumbing."""

import json

from halfgraph.report import CheckResult, IdentityReport, dump_report, run_check


def test_check_result_roundtrip():
    c = CheckResult("id.x", "claim", "195/4096", "1/50", True, 12)
    data = json.loads(json.dumps(c.to_dict()))
    assert data == {"id": "id.x", "claim": "claim", "computed": "195/4096",
                    "bound": "1/50", "pass": True, "runtime_ms": 12}
    assert data["pass"] is True
    assert CheckResult(data["id"], data["claim"], data["computed"], data["bound"],
                       data["pass"], data["runtime_ms"]) == c


def test_report_roundtrip(tmp_path):
    c = CheckResult("a.1", "c", "3/98", "1/32", True, 1)
    sections = [
        IdentityReport("alpha", [c]),
        IdentityReport("beta", [CheckResult("b.1", "d", "0", "0", False, 0)]),
    ]
    path = tmp_path / "report.json"
    dump_report(sections, str(path))
    assert json.loads(path.read_text()) == {
        "version": 1,
        "sections": [
            {"name": "alpha", "checks": [{"id": "a.1", "claim": "c", "computed": "3/98",
                                          "bound": "1/32", "pass": True, "runtime_ms": 1}]},
            {"name": "beta", "checks": [{"id": "b.1", "claim": "d", "computed": "0",
                                         "bound": "0", "pass": False, "runtime_ms": 0}]},
        ],
    }


def test_run_check_records_outcome():
    c = run_check("x", "two is two", lambda: (2, 2, 2 == 2))
    assert c.passed and c.computed == "2" and c.runtime_ms >= 0


def test_run_check_turns_an_exception_into_an_error_row():
    c = run_check("x", "never computed", lambda: 1 // 0)
    assert not c.passed and c.computed == "" and c.bound == ""
    assert c.error.startswith("ZeroDivisionError: integer division or modulo by zero (at ")
    assert "test_report.py:" in c.error
    assert c.to_dict()["error"] == c.error


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
