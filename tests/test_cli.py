"""End-to-end tests of the command-line interface."""

import json
import re
from fractions import Fraction

import pytest

from halfgraph import cli
from halfgraph.cli import main
from halfgraph.exactmath import ExactDivisionError
from halfgraph.graphcore import load_graph6, named, save_graph6
from halfgraph.halves import HalfError


def _is_exact(text):
    """An exact rational string such as "195/4096", "38" or "-1/2", never a decimal."""
    return re.fullmatch(r"-?\d+(/\d+)?", text) is not None


def test_enumerate_count_only(capsys):
    assert main(["graphs", "enumerate", "--n", "6", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "38"


def test_enumerate_rejects_zero(capsys):
    assert main(["graphs", "enumerate", "--n", "0"]) == 1
    assert capsys.readouterr().err == "error: vertex count must be >= 1\n"


def test_enumerate_above_the_limit_is_an_error_line(capsys, monkeypatch):
    def level(n):
        pytest.fail(f"the enumeration of level {n} started")

    monkeypatch.setattr("halfgraph.graphcore._triangle_free_level", level)
    assert main(["graphs", "enumerate", "--n", "40"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n=40 exceeds the enumeration limit of 10 vertices\n"


def test_enumerate_emits_decodable_graph6(capsys):
    assert main(["graphs", "enumerate", "--n", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    for line in lines:
        assert load_graph6(line).n == 4


def test_info_named(capsys):
    assert main(["graphs", "info", "--named", "petersen"]) == 0
    out = capsys.readouterr().out
    assert "girth         5" in out
    assert "edges         15" in out
    assert "triangle_free True" in out


def test_info_from_file(tmp_path, capsys):
    path = tmp_path / "g.g6"
    path.write_text(save_graph6(named("c5").graph) + "\n")
    assert main(["graphs", "info", "--file", str(path)]) == 0
    assert "vertices      5" in capsys.readouterr().out


def test_beta_exact_pentagon(capsys):
    assert main(["beta", "exact", "--named", "c5"]) == 0
    out = capsys.readouterr().out
    assert "beta = 1/50" in out
    assert "half =" in out


def test_beta_bound_maxdeg(capsys):
    assert main(["beta", "bound", "--method", "maxdeg", "--named", "petersen"]) == 0
    out = capsys.readouterr().out
    assert "analytic = 3/98" in out


def test_beta_bound_krivelevich(capsys):
    assert main(["beta", "bound", "--method", "krivelevich", "--named", "petersen"]) == 0
    assert "bound = 1/40" in capsys.readouterr().out


def test_beta_bound_edge_and_independence(capsys):
    assert main(["beta", "bound", "--method", "edge", "--named", "petersen"]) == 0
    assert main(["beta", "bound", "--method", "independence", "--named", "petersen"]) == 0
    out = capsys.readouterr().out
    assert "bound =" in out


def test_beta_bound_edge_takes_the_first_edge_that_qualifies(tmp_path, capsys):
    # Es_G: vertex 0 joined to 1-4, plus the edge 4-5; edge (0, 1) has
    # relative degree 2/3 at vertex 0, edge (4, 5) qualifies
    (tmp_path / "g.g6").write_text("Es_G\n")
    assert main(["beta", "bound", "--method", "edge", "--file", str(tmp_path / "g.g6")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "bound = 0"


def test_beta_bound_edge_with_no_qualifying_edge_reports_the_first(tmp_path, capsys):
    (tmp_path / "k2.g6").write_text("A_\n")
    assert main(["beta", "bound", "--method", "edge", "--file", str(tmp_path / "k2.g6")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: degenerate split: e1 + e2 = 1 >= 1\n"


def test_beta_bound_edge_does_not_skip_a_broken_half(capsys, monkeypatch):
    real = cli.edge_halves

    def broken_on_the_first_edge(g, edge):
        if edge == g.edges()[0]:
            raise HalfError("weights out of range")
        return real(g, edge)

    monkeypatch.setattr(cli, "edge_halves", broken_on_the_first_edge)
    assert main(["beta", "bound", "--method", "edge", "--named", "petersen"]) == 1
    assert capsys.readouterr().err == "error: weights out of range\n"


def test_beta_bound_triple_precondition_surfaces(capsys):
    assert main(["beta", "bound", "--method", "triple", "--named", "petersen"]) == 1
    err = capsys.readouterr().err
    assert "1/4" in err


def test_beta_bound_local_search_seeded(capsys):
    argv = ["beta", "bound", "--method", "local-search", "--named", "higman_sims",
            "--seed", "1"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    bound = out.splitlines()[0].split("= ")[1]
    assert _is_exact(bound)
    assert Fraction(bound) <= Fraction(199, 10000)


def test_verify_counts_section_and_json(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["verify", "paper", "--section", "counts", "--json", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] counts.m6" in out
    assert "3/3 checks passed" in out
    data = json.loads(report_path.read_text())
    assert data["version"] == 1
    [section] = data["sections"]
    assert section["name"] == "counts"
    assert all(c["pass"] is True for c in section["checks"])
    assert all(_is_exact(c["computed"]) for c in section["checks"])


def test_verify_reports_a_crashing_check_as_an_error_row(tmp_path, capsys, monkeypatch):
    def crash():
        raise ZeroDivisionError("boom")

    monkeypatch.setattr("halfgraph.verify.count_edge_rooted_flags4", crash)
    report_path = tmp_path / "report.json"
    assert main(["verify", "paper", "--section", "counts", "--json", str(report_path)]) == 1
    out = capsys.readouterr().out
    assert "[PASS] counts.m6" in out and "[PASS] counts.m8" in out
    assert "[ERROR] counts.flags4" in out
    assert "error ZeroDivisionError: boom (at test_cli.py:" in out
    assert "2/3 checks passed" in out
    [section] = json.loads(report_path.read_text())["sections"]
    checks = {c["id"]: c for c in section["checks"]}
    assert checks["counts.flags4"]["pass"] is False
    assert checks["counts.flags4"]["error"].startswith("ZeroDivisionError: boom (at ")
    assert checks["counts.m6"]["pass"] is True
    assert [c["id"] for c in section["checks"] if "error" in c] == ["counts.flags4"]


def test_verify_sparse_reports_a_failed_division_as_rows(capsys, monkeypatch):
    def no_division():
        raise ExactDivisionError("not divisible", remainder="rho")

    monkeypatch.setattr("halfgraph.exactmath.sparse_margin_poly", no_division)
    assert main(["verify", "paper", "--section", "sparse"]) == 1
    captured = capsys.readouterr()
    assert "error:" not in captured.err
    assert "[FAIL] sparse.q_is_polynomial" in captured.out
    for check_id in ("dq_drho", "q_degrees", "q_vanishes_at_rho0", "taylor_signs",
                     "case2_boundary"):
        assert f"[ERROR] sparse.{check_id}:" in captured.out
    for check_id in ("alpha0_minus_gamma", "maxdeg_petersen", "maxdeg_combination",
                     "triple_small_graphs"):
        assert f"[PASS] sparse.{check_id}:" in captured.out
    assert "4/10 checks passed" in captured.out


def test_verify_girth5_with_table(tmp_path, capsys):
    table = tmp_path / "table.csv"
    assert main(["verify", "paper", "--section", "girth5", "--table", str(table)]) == 0
    capsys.readouterr()
    lines = table.read_text().strip().splitlines()
    assert len(lines) == 81
    assert "0.0," not in table.read_text()  # bounds stay exact
    assert all(_is_exact(line.split(",")[3]) for line in lines[1:])


@pytest.mark.parametrize("argv, message", [
    (["beta", "exact", "--file", "{tmp}/missing.g6"], "No such file"),
    (["beta", "exact", "--named", "gewirtz"], "n=56 exceeds"),
    (["beta", "bound", "--method", "edge", "--file", "{tmp}/edgeless.g6"],
     "graph has no edges"),
    (["beta", "exact", "--file", "{tmp}/two.g6"],
     "two.g6 holds 2 graph6 records; expected one"),
])
def test_bad_input_is_an_error_line_not_a_traceback(argv, message, tmp_path, capsys):
    (tmp_path / "edgeless.g6").write_text("A?\n")
    (tmp_path / "two.g6").write_text("A_\nDQc\n")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_beta_bound_independence_over_the_alpha_budget_is_an_error_line(tmp_path, capsys,
                                                                        monkeypatch):
    (tmp_path / "petersen.g6").write_text(save_graph6(named("petersen").graph) + "\n")
    monkeypatch.setattr("halfgraph.graphcore.ALPHA_MAX_NODES", 10)
    argv = ["beta", "bound", "--method", "independence", "--file", str(tmp_path / "petersen.g6")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: independence search exceeded 10 nodes\n"
    assert "Traceback" not in captured.err


def test_beta_bound_choices_come_from_the_method_table():
    beta = next(a for a in cli.build_parser()._actions if a.dest == "command").choices["beta"]
    bound = next(a for a in beta._actions if a.dest == "beta_cmd").choices["bound"]
    method = next(a for a in bound._actions if a.dest == "method")
    assert method.choices == [*cli.BOUND_METHODS, "krivelevich"]
    assert list(cli.BOUND_METHODS) == ["edge", "maxdeg", "triple", "independence", "local-search"]


@pytest.mark.parametrize("method", [*cli.BOUND_METHODS, "krivelevich"])
def test_beta_bound_rejects_a_graph_with_a_triangle(method, tmp_path, capsys):
    (tmp_path / "k3.g6").write_text("Bw\n")
    argv = ["beta", "bound", "--method", method, "--file", str(tmp_path / "k3.g6")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: graph has a triangle\n"
    assert "Traceback" not in captured.err + captured.out
