"""The four workloads: seeded inputs, the timed work, and the gates on its outputs.

A workload is three functions:

- `prepare(seed, workdir)` builds the inputs.  It runs before the timed region,
  so its cost lands in `setup_s`.
- `execute(inputs, ops)` is the timed work.  Every call into halfgraph goes
  through `ops.call`, which counts it and turns an exception into a failed
  operation instead of aborting the run.
- `summarize(inputs, outputs, ops, reference)` runs after the timed region.
  It returns `(summary, problems)`: `summary` holds the values `compare`
  checks against `reference.json`, and `problems` lists every invariant the
  outputs break.

Only halfgraph's public API and stable CLI flags are used, so the benchmark
keeps working when private helpers move.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

import halfgraph as hg
from halfgraph import cli

DEFAULT_SEED = 1


class Ops:
    """Counts attempted and failed operations; an exception is a failure, not a crash."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, label: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as err:  # the run must go on and report the failure
            self.fail(label, f"{type(err).__name__}: {err}")
            return None

    def fail(self, label: str, reason: str) -> None:
        self.failed += 1
        self.errors.append(f"{label}: {reason}")


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _report_strings(report) -> dict[str, str]:
    return {c.id: c.computed for c in report.checks}


# ---------------------------------------------------------------------------
# verify_all: `halfgraph verify paper --section all --json <tmp> --seed <seed>`
# ---------------------------------------------------------------------------


def prepare_verify_all(seed: int, workdir: str) -> dict:
    path = os.path.join(workdir, f"report-{os.getpid()}.json")
    argv = ["verify", "paper", "--section", "all", "--json", path, "--seed", str(seed)]
    return {"argv": argv, "json": path, "sizes": {"argv": " ".join(argv[:4])}}


def execute_verify_all(inputs: dict, ops: Ops) -> dict:
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(inputs["argv"])
        error = None
    except Exception as err:  # counted as failed checks by summarize
        code, error = None, f"{type(err).__name__}: {err}"
    return {"code": code, "stdout": stdout.getvalue(), "error": error}


def summarize_verify_all(inputs: dict, outputs: dict, ops: Ops, reference: dict):
    problems = []
    rows = {}
    if os.path.exists(inputs["json"]):
        with open(inputs["json"]) as fh:
            report = json.load(fh)
        os.remove(inputs["json"])
        rows = {c["id"]: c for sec in report["sections"] for c in sec["checks"]}
    for check_id in sorted(set(reference.get("fixed", ())) | set(rows)):
        ops.attempted += 1
        row = rows.get(check_id)
        if row is None:
            ops.fail(check_id, outputs["error"] or "missing from the report")
        elif not row["pass"]:
            ops.fail(check_id, f"FAIL: computed {row['computed']} bound {row['bound']}")
    if outputs["error"]:
        problems.append(f"verify raised {outputs['error']}")
    if outputs["code"] != 0:
        problems.append(f"verify exited with {outputs['code']}")
    total = len(rows)
    if f"{total}/{total} checks passed" not in outputs["stdout"].splitlines():
        problems.append(f"no '{total}/{total} checks passed' line in the output")
    summary = {"fixed": {i: [r["computed"], r["bound"]] for i, r in rows.items()}, "seeded": {}}
    return summary, problems


# ---------------------------------------------------------------------------
# enumerate_n9: one deep enumeration
# ---------------------------------------------------------------------------

ENUMERATE_N = 9


def prepare_enumerate_n9(seed: int, workdir: str) -> dict:
    return {"n": ENUMERATE_N, "sizes": {"n": ENUMERATE_N}}


def execute_enumerate_n9(inputs: dict, ops: Ops):
    return ops.call("enumerate", hg.enumerate_triangle_free, inputs["n"])


def summarize_enumerate_n9(inputs: dict, graphs, ops: Ops, reference: dict):
    if graphs is None:
        return {"fixed": {}, "seeded": {}}, ["enumeration failed"]
    problems = []
    histogram: dict[str, int] = {}
    for g in graphs:
        if g.n != inputs["n"] or not hg.is_triangle_free(g):
            problems.append(f"bad graph {hg.save_graph6(g)}")
        key = str(g.edge_count())
        histogram[key] = histogram.get(key, 0) + 1
    histogram = dict(sorted(histogram.items(), key=lambda kv: int(kv[0])))
    fixed = {"classes": len(graphs), "classes_by_edges": histogram}
    return {"fixed": fixed, "seeded": {}}, problems


# ---------------------------------------------------------------------------
# graph_queries: what `halfgraph beta exact/bound` computes, on seeded graphs
# ---------------------------------------------------------------------------

# (n, target edges) of the random graphs.  Up to n = 20 beta_exact scans every
# half; those graphs have no independent half, so no scan stops early and its
# cost does not depend on the seed.  From n = 21 to 36 it runs branch-and-bound.
# Denser graphs with n >= 28 are left out: their branch-and-bound time has a
# heavy tail (up to 2 s for one seed), which would make the workload's cost
# depend on the seed.
SCAN_SPECS = ((18, 54), (18, 72), (19, 57), (20, 80))
BRANCH_SPECS = ((22, 44), (22, 66), (24, 72), (24, 96), (26, 52), (26, 78), (28, 56), (30, 30),
                (32, 32), (34, 34), (36, 36))
BLOWUPS = (("c5", 4), ("c5", 5), ("c5", 6), ("petersen", 2), ("petersen", 3))
LOCAL_SEARCH_GRAPHS = ("hoffman_singleton", "gewirtz", "higman_sims")
LOCAL_SEARCH_SEEDS = 3
# Donath-Hoffman: beta >= (k + s)/(8n) for a k-regular graph with least
# eigenvalue s, so a 0-1 half induces at least n(k + s)/8 edges.
SPECTRAL_MIN_EDGES = {"hoffman_singleton": 25, "gewirtz": 42, "higman_sims": 175}


def random_triangle_free(rng: random.Random, n: int, edges: int) -> list[int]:
    """Adjacency rows: random pairs that close no triangle, every degree below n/2."""
    rows = [0] * n
    cap = (n - 1) // 2
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    added = 0
    for u, v in pairs:
        if added == edges:
            break
        if rows[u] & rows[v] or max(rows[u].bit_count(), rows[v].bit_count()) >= cap:
            continue
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        added += 1
    return rows


def has_independent_set(rows: list[int], size: int) -> bool:
    """Whether some `size` vertices span no edge (plain branching; n <= 20 here)."""
    def grow(candidates: int, need: int) -> bool:
        if need == 0:
            return True
        if candidates.bit_count() < need:
            return False
        v = candidates.bit_length() - 1
        rest = candidates & ~(1 << v)
        return grow(rest & ~rows[v], need - 1) or grow(rest, need)

    return grow((1 << len(rows)) - 1, size)


def prepare_graph_queries(seed: int, workdir: str) -> dict:
    rng = random.Random(seed)
    graphs = []
    for n, edges in SCAN_SPECS:
        rows = random_triangle_free(rng, n, edges)
        while has_independent_set(rows, (n + 1) // 2):
            rows = random_triangle_free(rng, n, edges)
        graphs.append((f"random.scan.{len(graphs)}.n{n}", hg.Graph(n, rows)))
    for n, edges in BRANCH_SPECS:
        rows = random_triangle_free(rng, n, edges)
        graphs.append((f"random.branch.{len(graphs)}.n{n}", hg.Graph(n, rows)))
    graphs += [(f"{name}x{t}", hg.blowup(hg.named(name).graph, t)) for name, t in BLOWUPS]
    graphs += [(name, hg.named(name).graph) for name in LOCAL_SEARCH_GRAPHS]
    seeds = [seed * LOCAL_SEARCH_SEEDS + r for r in range(LOCAL_SEARCH_SEEDS)]
    sizes = {"graphs": len(graphs), "scan": sum(g.n <= 20 for _, g in graphs),
             "branch_bound": sum(20 < g.n <= 36 for _, g in graphs),
             "local_search": len(LOCAL_SEARCH_GRAPHS) * len(seeds)}
    return {"graphs": graphs, "local_search_seeds": seeds, "sizes": sizes}


def execute_graph_queries(inputs: dict, ops: Ops) -> list[dict]:
    results = []
    for label, g in inputs["graphs"]:
        res = {}
        if g.n <= 36:
            res["beta"] = ops.call(f"{label} beta_exact", hg.beta_exact, g)
        res["maxdeg"] = ops.call(f"{label} maxdeg_halves", hg.maxdeg_halves, g)
        res["krivelevich"] = ops.call(f"{label} krivelevich_bound", hg.krivelevich_bound, g)
        res["c4"] = ops.call(f"{label} c4_density", hg.c4_density, g)
        if label in LOCAL_SEARCH_GRAPHS:
            res["local_search"] = [
                ops.call(f"{label} local_search_half", hg.local_search_half, g, seed=s)
                for s in inputs["local_search_seeds"]
            ]
        results.append(res)
    return results


def summarize_graph_queries(inputs: dict, results: list[dict], ops: Ops, reference: dict):
    problems = []
    fixed, seeded = {}, {}
    for (label, g), res in zip(inputs["graphs"], results):
        if any(v is None for v in res.values()) or None in res.get("local_search", ()):
            problems.append(f"{label}: a query failed")
            continue
        bounds = [res["maxdeg"].bound, res["maxdeg"].params["analytic_bound"],
                  res["krivelevich"]]
        if hg.beta_of_half(g, res["maxdeg"].half) != res["maxdeg"].bound:
            problems.append(f"{label}: max-degree certificate does not match its half")
        row = {"c4": str(res["c4"]), "krivelevich": str(res["krivelevich"]),
               "maxdeg": str(res["maxdeg"].bound)}
        if "beta" in res:
            beta, witness = res["beta"]
            if hg.beta_of_half(g, witness) != beta:
                problems.append(f"{label}: beta {beta} is not the value of its witness")
            if any(beta > b for b in bounds):
                problems.append(f"{label}: beta {beta} exceeds a certified bound")
            row["beta"] = str(beta)
        if "local_search" in res:
            edges = []
            for cert in res["local_search"]:
                count = cert.params["induced_edges"]
                if not hg.beta_of_half(g, cert.half) == cert.bound == Fraction(count, g.n**2):
                    problems.append(f"{label}: local-search certificate is inconsistent")
                if count < SPECTRAL_MIN_EDGES[label]:
                    problems.append(f"{label}: {count} induced edges beats the spectral bound")
                edges.append(count)
            seeded[f"{label}.local_search_edges"] = edges
        (seeded if label.startswith("random.") else fixed)[label] = row
    return {"fixed": fixed, "seeded": seeded}, problems


# ---------------------------------------------------------------------------
# algebra: Polynomial / RationalFunc / QuadNum work
# ---------------------------------------------------------------------------

GRID_MAX_Q = 14
SPARSE_STEP = Fraction(1, 800)


def prepare_algebra(seed: int, workdir: str) -> dict:
    cells = [(q, c) for q in range(1, GRID_MAX_Q + 1) for c in range(1, q * (q + 1) + 1)]
    sizes = {"grid_cells": len(cells), "sparse_step": str(SPARSE_STEP)}
    return {"seed": seed, "cells": cells, "step": SPARSE_STEP, "sizes": sizes}


def _identity_cell(q: int, c: int):
    params = hg.srg_from_qc(q, c)
    return hg.srg_beta_bound(q, c), hg.regular_beta_bound(hg.rho_qc(q, c), hg.srg_c4(params))


def execute_algebra(inputs: dict, ops: Ops) -> dict:
    out = {"srg": ops.call("srg_case_analysis", hg.srg_case_analysis,
                           local_search_seed=inputs["seed"])}
    out["grid"] = [ops.call(f"cell {q},{c}", _identity_cell, q, c) for q, c in inputs["cells"]]
    out["sparse"] = ops.call("verify_sparse_identities", hg.verify_sparse_identities,
                             inputs["step"])
    out["independence"] = ops.call("independence_formula_checks",
                                   hg.independence_formula_checks)
    for variant in ("plain", "truncated"):
        out[f"girth5_{variant}"] = ops.call(f"girth5_report {variant}", hg.girth5_report,
                                            truncated_inner=variant == "truncated")
    return out


def summarize_algebra(inputs: dict, out: dict, ops: Ops, reference: dict):
    problems, fixed = [], {}
    for key in ("srg", "sparse", "independence"):
        report = out[key]
        if report is None:
            problems.append(f"{key}: call failed")
            continue
        if not report.ok:
            ops.fail(key, ", ".join(c.id for c in report.failures()))
            problems.append(f"{key}: failing checks {[c.id for c in report.failures()]}")
        fixed.update(_report_strings(report))
    lines = []
    for (q, c), cell in zip(inputs["cells"], out["grid"]):
        if cell is None or cell[0] != cell[1]:
            problems.append(f"identity fails at ({q}, {c})")
        else:
            lines.append(f"{q},{c},{cell[0]}")
    fixed["grid.cells"] = len(lines)
    fixed["grid.digest"] = _digest(lines)
    for variant in ("plain", "truncated"):
        rows = out[f"girth5_{variant}"]
        if rows is None:
            problems.append(f"girth5 {variant}: call failed")
            continue
        if not all(r.passed for r in rows):
            ops.fail(f"girth5 {variant}", "rows above 1/50")
            problems.append(f"girth5 {variant}: rows above 1/50")
        fixed[f"girth5.{variant}.rows"] = len(rows)
        fixed[f"girth5.{variant}.digest"] = _digest(
            f"{r.k},{r.n},{r.u_star},{r.beta_bound}" for r in rows)
    return {"fixed": fixed, "seeded": {}}, problems


WORKLOADS = {
    "verify_all": (prepare_verify_all, execute_verify_all, summarize_verify_all),
    "enumerate_n9": (prepare_enumerate_n9, execute_enumerate_n9, summarize_enumerate_n9),
    "graph_queries": (prepare_graph_queries, execute_graph_queries, summarize_graph_queries),
    "algebra": (prepare_algebra, execute_algebra, summarize_algebra),
}


def compare(summary: dict, reference: dict, seed: int) -> list[str]:
    """Every recorded value must reappear unchanged; extra keys are tolerated.

    `fixed` values do not depend on the seed; `seeded` values were recorded
    with the default seed and are compared only on that seed.
    """
    problems = []
    parts = ["fixed"] + (["seeded"] if seed == reference.get("seed", DEFAULT_SEED) else [])
    for part in parts:
        for key, expected in reference.get(part, {}).items():
            got = summary[part].get(key)
            if got != expected:
                problems.append(f"{key}: expected {expected!r}, got {got!r}")
    return problems
