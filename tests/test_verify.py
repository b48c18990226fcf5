"""Tests for the check registry: its rows, their order, and the layering around it."""

import ast
import hashlib
import json
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

import halfgraph
from halfgraph import independence
from halfgraph.density import c4_lower_general
from halfgraph.exactmath import Polynomial
from halfgraph.girth5 import FIFTIETH
from halfgraph.report import run_check
from halfgraph.srg import srg_c4
from halfgraph.verify import (
    INDEPENDENCE_IDENTITIES,
    SECTIONS,
    SRG_CASES,
    _sparse_identities,
    run,
)

REPORT_ORDER = [
    "counts.m6", "counts.m8", "counts.flags4",
    "quad.beta_c5", "quad.beta_petersen", "quad.trivial_bound", "quad.general_line",
    "quad.clebsch_tight", "quad.matchingfree_line", "quad.c5_tight",
    "quad.averaged_split_bound", "quad.general_27_1024",
    "sparse.q_is_polynomial", "sparse.dq_drho", "sparse.q_degrees",
    "sparse.q_vanishes_at_rho0", "sparse.alpha0_minus_gamma", "sparse.taylor_signs",
    "sparse.case2_boundary", "sparse.maxdeg_petersen", "sparse.maxdeg_combination",
    "sparse.triple_small_graphs",
    "srg.closed_forms", "srg.dq_dc_identity", "srg.q_increasing_in_c",
    "srg.krein_density_decreasing", "srg.krein_q4_below_rho0", "srg.q2_c1_below_rho0",
    "srg.q3_c11_below_rho0", "srg.q1_c1_petersen", "srg.q1_c2_clebsch", "srg.q2_c2_gewirtz",
    "srg.q2_c4_m22", "srg.q2_c6_higman_sims", "srg.q2_c3_excluded", "srg.q2_c3_multiplicities",
    "srg.q2_c5_excluded", "srg.q3_c12_krein", "srg.closed_form_matches_graphs",
    "srg.beta_bound_identity",
    "independence.dq_drbd", "independence.q_saturated_is_q1", "independence.dq1_dpb",
    "independence.q1_diagonal", "independence.q_concave_in_rbd", "independence.two_fifths",
    "independence.petersen",
    "independence.random_graphs",
    "girth5.table_plain", "girth5.table_truncated",
]


def test_registry_lists_every_row_once_in_report_order():
    assert list(SECTIONS) == ["counts", "quadrilaterals", "sparse", "srg", "independence",
                              "girth5"]
    ids = [check.id for checks in SECTIONS.values() for check in checks]
    assert ids == REPORT_ORDER
    assert len(set(ids)) == len(ids) == 50


def test_wrapped_sub_lists_lead_their_sections():
    # srg_case_analysis, verify_sparse_identities and independence_formula_checks
    # run these sub-lists; their sections splice them in first
    sparse = _sparse_identities(Fraction(1, 100))
    assert (len(SRG_CASES), len(sparse), len(INDEPENDENCE_IDENTITIES)) == (16, 7, 5)
    assert SECTIONS["srg"][:16] == SRG_CASES
    assert [c.id for c in SECTIONS["sparse"][:7]] == [c.id for c in sparse]
    assert SECTIONS["independence"][:5] == INDEPENDENCE_IDENTITIES


@pytest.mark.parametrize("check", [c for checks in SECTIONS.values() for c in checks],
                         ids=lambda c: c.id)
def test_every_registry_row_passes(check):
    result = run_check(check.id, check.claim, partial(check.compute, 1))
    assert result.error is None
    assert result.passed, (result.computed, result.bound)


def test_the_whole_report_is_pinned():
    # every row's id, claim, both shown sides and verdict, in report order at seed 1
    rows = [[c.id, c.claim, c.computed, c.bound, c.passed]
            for r in run(list(SECTIONS), 1) for c in r.checks]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "8aa6674534122551c295785e3a4a281f7ddeb07b1b07b68343ef59b500d0531c"


def _row(check_id):
    check = next(c for checks in SECTIONS.values() for c in checks if c.id == check_id)
    return check.compute(1)


def test_equality_rows_fail_on_a_wrong_q1(monkeypatch):
    # Q1 + pb: the right-hand side of q_saturated_is_q1 and the left of dq1_dpb
    # and q1_diagonal change; dq_drbd and q_concave_in_rbd never read Q1
    wrong = independence._q1_form() + Polynomial.var("pb")
    monkeypatch.setattr(independence, "_q1_form", lambda: wrong)
    rows = {c.id: c.compute(1) for c in INDEPENDENCE_IDENTITIES}
    failing = {check_id: (computed, bound)
               for check_id, (computed, bound, passed) in rows.items() if not passed}
    assert failing == {
        "independence.q_saturated_is_q1": (
            "(13)*alpha^2*pb^2 + (-18)*alpha*pb^3 + (-3)*pb^4 + (-4)*alpha*pb^2 + (8)*pb^3",
            "(13/16)*alpha^2 + (-9/8)*alpha*pb + (-3/16)*pb^2 + (-1/4)*alpha + (3/2)*pb"),
        "independence.dq1_dpb": ("(-3/2)*alpha + (3/2)", "(-3/2)*alpha + (1/2)"),
        "independence.q1_diagonal": ("(-1/2)*alpha^2 + (5/4)*alpha",
                                     "(-1/2)*alpha^2 + (1/4)*alpha"),
    }


def test_count_row_fails_when_graphs_lie_below_the_line(monkeypatch):
    # the 8 edgeless graphs (rho = 0, C4 = 0) meet the general line; raised by
    # 10^-6 it lies above exactly these
    raised = lambda r: c4_lower_general(r) + Fraction(1, 10**6)
    monkeypatch.setattr("halfgraph.verify.c4_lower_general", raised)
    assert _row("quad.general_line") == ("8 violations", "0", False)


def test_one_value_row_fails_on_a_wrong_krein_bound(monkeypatch):
    monkeypatch.setattr("halfgraph.verify.srg_beta_bound", lambda q, c: Fraction(1, 49))
    assert _row("srg.q3_c12_krein") == ("1/49", "= 11/560 <= 1/50", False)


def test_scan_row_counts_each_mismatched_named_graph(monkeypatch):
    # the six named SRGs each differ from a closed-form C4 raised by 1
    monkeypatch.setattr("halfgraph.verify.srg_c4", lambda p: srg_c4(p) + 1)
    assert _row("srg.closed_form_matches_graphs") == ("6 mismatches", "0", False)


def test_general_bound_row_is_27_1024():
    assert _row("quad.general_27_1024") == ("(27/1024)", "27/1024, constant in rho", True)
    # by hand: rho/8 - ((3/2)rho^2 - (81/256)rho)/(12 rho) = 81/3072 at every rho > 0
    for r in (Fraction(1, 100), Fraction(5, 16), Fraction(2, 5), Fraction(1, 2)):
        assert r / 8 - c4_lower_general(r) / (12 * r) == Fraction(27, 1024)


def test_two_fifths_row():
    assert _row("independence.two_fifths") == (
        "(1/2)(alpha - 2/5)(alpha - 1/10) = (1/2)*alpha^2 + (-1/4)*alpha + (1/50), "
        "factors >= 0 on [2/5, 1/2]",
        "1/50 - (alpha/2)(1/2 - alpha) = (1/2)*alpha^2 + (-1/4)*alpha + (1/50)", True)
    # by hand: the guarantee is 3/128 > 1/50 at alpha = 3/8, 1/50 at 2/5 and 0 at 1/2
    guarantee = lambda alpha: alpha / 2 * (Fraction(1, 2) - alpha)
    assert guarantee(Fraction(3, 8)) == Fraction(3, 128) > FIFTIETH
    assert guarantee(Fraction(2, 5)) == FIFTIETH and guarantee(Fraction(1, 2)) == 0


def _imports_report(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "halfgraph.report" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if (node.level and module == "report") or module == "halfgraph.report":
                return True
            if (node.level and not module) or module == "halfgraph":
                if any(alias.name == "report" for alias in node.names):
                    return True
    return False


def test_only_verify_and_cli_import_report():
    package = Path(halfgraph.__file__).parent
    importers = {
        path.name for path in sorted(package.glob("*.py"))
        if _imports_report(ast.parse(path.read_text()))
    }
    assert importers <= {"verify.py", "cli.py"}, importers
