"""Self-test of the gates: each must accept the real output and reject a corrupted one.

    python3 perfbench/selftest.py

Runs in one process without timing.  verify_all is fed a report rebuilt from
reference.json instead of a real run; graph_queries uses a handful of its
graphs.  Exits 0 when every gate behaved as expected.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import halfgraph as hg  # noqa: E402
import workloads as w  # noqa: E402

with open(os.path.join(HERE, "reference.json")) as fh:
    REFERENCE = json.load(fh)
WORKDIR = os.path.join(HERE, ".work")


def gate(workload: str, inputs, outputs, ops=None, seed: int = w.DEFAULT_SEED):
    """Problems the workload's gate finds, and the operation counts after it."""
    ops = ops or w.Ops()
    reference = REFERENCE[workload]
    summary, problems = w.WORKLOADS[workload][2](inputs, outputs, ops, reference)
    return problems + w.compare(summary, reference, seed), ops


def verify_outputs(inputs, rows):
    report = {"version": 1, "sections": [{"name": "all", "checks": rows}]}
    with open(inputs["json"], "w") as fh:
        json.dump(report, fh)
    stdout = f"{len(rows)}/{len(rows)} checks passed\n"
    return {"code": 0, "stdout": stdout, "error": None}


def verify_rows(changed: str | None = None, drop: str | None = None):
    rows = []
    for check_id, (computed, bound) in REFERENCE["verify_all"]["fixed"].items():
        if check_id == drop:
            continue
        computed = "1/49" if check_id == changed else computed
        rows.append({"id": check_id, "claim": "", "computed": computed, "bound": bound,
                     "pass": True, "runtime_ms": 0})
    return rows


def main() -> int:
    os.makedirs(WORKDIR, exist_ok=True)
    results = []

    def expect(label: str, problems, should_fail: bool) -> None:
        ok = bool(problems) == should_fail
        results.append(ok)
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict} {problems[:1]}")

    def holds(label: str, condition: bool) -> None:
        results.append(condition)
        print(f"{'ok  ' if condition else 'FAIL'} {label}")

    # verify_all: rebuilt report, a changed computed string, a missing row, a crash.
    inputs = w.prepare_verify_all(w.DEFAULT_SEED, WORKDIR)
    expect("verify_all as recorded", gate("verify_all", inputs,
                                          verify_outputs(inputs, verify_rows()))[0], False)
    changed = verify_outputs(inputs, verify_rows(changed="quad.beta_c5"))
    expect("verify_all with a changed computed string", gate("verify_all", inputs, changed)[0],
           True)
    problems, ops = gate("verify_all", inputs,
                         verify_outputs(inputs, verify_rows(drop="counts.m8")))
    expect("verify_all with a missing check", problems, True)
    holds("missing check counted as a failed operation", ops.failed == 1)
    problems, ops = gate("verify_all", inputs, {"code": None, "stdout": "",
                                                "error": "RuntimeError: injected"})
    expect("verify_all that raised", problems, True)
    holds("a raising verify counts every check as failed",
          ops.failed == len(REFERENCE["verify_all"]["fixed"]))

    # enumerate_n9: the real enumeration, one class short, and a triangle.
    inputs = w.prepare_enumerate_n9(w.DEFAULT_SEED, WORKDIR)
    graphs = hg.enumerate_triangle_free(inputs["n"])
    expect("enumerate_n9 as computed", gate("enumerate_n9", inputs, graphs)[0], False)
    expect("enumerate_n9 with 1,896 classes", gate("enumerate_n9", inputs, graphs[1:])[0], True)
    triangle = hg.Graph.from_edges(9, [(0, 1), (1, 2), (0, 2)])
    expect("enumerate_n9 with a triangle",
           gate("enumerate_n9", inputs, graphs[:-1] + [triangle])[0], True)

    # graph_queries: invariants on a few graphs, a beta one edge too low, a raising query.
    inputs = w.prepare_graph_queries(w.DEFAULT_SEED, WORKDIR)
    picked = [0, len(w.SCAN_SPECS), len(inputs["graphs"]) - 3]
    inputs["graphs"] = [inputs["graphs"][i] for i in picked]
    ops = w.Ops()
    outputs = w.execute_graph_queries(inputs, ops)
    problems = w.summarize_graph_queries(inputs, outputs, ops, {})[1]
    expect("graph_queries as computed", problems, False)
    beta, witness = outputs[0]["beta"]
    n = inputs["graphs"][0][1].n
    outputs[0]["beta"] = (beta - Fraction(1, n * n), witness)
    expect("graph_queries with beta one edge too low",
           w.summarize_graph_queries(inputs, outputs, ops, {})[1], True)
    inputs["graphs"].append(("edgeless", hg.Graph(4, [0, 0, 0, 0])))
    ops = w.Ops()
    outputs = w.execute_graph_queries(inputs, ops)
    expect("graph_queries with a raising query",
           w.summarize_graph_queries(inputs, outputs, ops, {})[1], True)
    holds("raising query counted, run finished",
          ops.failed >= 1 and len(outputs) == len(inputs["graphs"]))

    # algebra: the real run, then a changed computed string and a broken grid cell.
    inputs = w.prepare_algebra(w.DEFAULT_SEED, WORKDIR)
    outputs = w.execute_algebra(inputs, w.Ops())
    expect("algebra as computed", gate("algebra", inputs, outputs)[0], False)
    srg = outputs["srg"]
    changed = dataclasses.replace(srg.checks[0], computed="corrupted")
    bad = dict(outputs, srg=dataclasses.replace(srg, checks=[changed] + srg.checks[1:]))
    expect("algebra with a changed computed string", gate("algebra", inputs, bad)[0], True)
    lhs, rhs = outputs["grid"][7]
    bad = dict(outputs, grid=outputs["grid"][:7] + [(lhs, rhs + 1)] + outputs["grid"][8:])
    expect("algebra with a broken identity cell", gate("algebra", inputs, bad)[0], True)

    print(f"{sum(results)}/{len(results)} gate self-tests behaved as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
