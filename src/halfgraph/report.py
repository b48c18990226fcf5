"""Machine-readable check results shared by the verification suites and the CLI.

Every numeric field is an exact string ("195/4096", never a decimal); the
JSON layout is {"version": 1, "sections": [{"name", "checks": [...]}]}; a
check that raised instead of returning also carries an "error" string.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import dataclass

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CheckResult:
    id: str
    claim: str
    computed: str
    bound: str
    passed: bool
    runtime_ms: int = 0
    error: str | None = None  # only when the check raised: "Type: message (at file:line in fn)"

    def to_dict(self) -> dict:
        data = {
            "id": self.id,
            "claim": self.claim,
            "computed": self.computed,
            "bound": self.bound,
            "pass": self.passed,
            "runtime_ms": self.runtime_ms,
        }
        if self.error is not None:
            data["error"] = self.error
        return data


def run_check(check_id: str, claim: str, compute) -> CheckResult:
    """Time a check; `compute` returns (computed, bound, passed).

    A check that raises becomes a failing result whose `error` holds the
    exception's type and message and the line that raised it, so the other
    checks still run and report.
    """
    t0 = time.perf_counter()
    try:
        computed, bound, passed = compute()
    except Exception as exc:  # one crashing check must not abort the report
        ms = int((time.perf_counter() - t0) * 1000)
        where = traceback.extract_tb(exc.__traceback__)[-1]
        error = (f"{type(exc).__name__}: {exc} "
                 f"(at {os.path.basename(where.filename)}:{where.lineno} in {where.name})")
        return CheckResult(check_id, claim, "", "", False, ms, error)
    ms = int((time.perf_counter() - t0) * 1000)
    return CheckResult(check_id, claim, str(computed), str(bound), bool(passed), ms)


@dataclass
class IdentityReport:
    """A named bundle of identity checks (one verification suite's outcome)."""

    name: str
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def dump_report(sections: list[IdentityReport], path: str) -> None:
    data = {"version": SCHEMA_VERSION,
            "sections": [{"name": s.name, "checks": [c.to_dict() for c in s.checks]}
                         for s in sections]}
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
