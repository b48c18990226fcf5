"""Tests for the check registry: its rows, their order, and the layering around it."""

import ast
from fractions import Fraction
from pathlib import Path

import halfgraph
from halfgraph.verify import INDEPENDENCE_IDENTITIES, SECTIONS, SRG_CASES, _sparse_identities

REPORT_ORDER = [
    "counts.m6", "counts.m8", "counts.flags4",
    "quad.beta_c5", "quad.beta_petersen", "quad.trivial_bound", "quad.general_line",
    "quad.clebsch_tight", "quad.matchingfree_line", "quad.c5_tight",
    "quad.averaged_split_bound",
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
    "independence.q1_diagonal", "independence.q_concave_in_rbd", "independence.petersen",
    "independence.random_graphs",
    "girth5.table_plain", "girth5.table_truncated",
]


def test_registry_lists_every_row_once_in_report_order():
    assert list(SECTIONS) == ["counts", "quadrilaterals", "sparse", "srg", "independence",
                              "girth5"]
    ids = [check.id for checks in SECTIONS.values() for check in checks]
    assert ids == REPORT_ORDER
    assert len(set(ids)) == len(ids) == 48


def test_wrapped_sub_lists_lead_their_sections():
    # srg_case_analysis, verify_sparse_identities and independence_formula_checks
    # run these sub-lists; their sections splice them in first
    sparse = _sparse_identities(Fraction(1, 100))
    assert (len(SRG_CASES), len(sparse), len(INDEPENDENCE_IDENTITIES)) == (16, 7, 5)
    assert SECTIONS["srg"][:16] == SRG_CASES
    assert [c.id for c in SECTIONS["sparse"][:7]] == [c.id for c in sparse]
    assert SECTIONS["independence"][:5] == INDEPENDENCE_IDENTITIES


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
