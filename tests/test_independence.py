"""Tests for the large-independence-number construction."""

import hashlib
import random
from fractions import Fraction

import pytest

from halfgraph import halves
from halfgraph.density import part_density
from halfgraph.graphcore import (
    Graph,
    _induced_edges,
    _mask_of,
    blowup,
    complete_bipartite,
    cycle,
    enumerate_triangle_free,
    independence_number,
    is_triangle_free,
    load_graph6,
    named,
)
from halfgraph.halves import CertificateError, beta_of_half
from halfgraph.independence import (
    grow_low_spill_set,
    independence_half,
)
from halfgraph.verify import _random_triangle_free, independence_formula_checks


def pivotless_gadget() -> Graph:
    """40 vertices: greedy stalls, nobody is crowded, and no pivot reaches the
    reservoir, forcing the fractional construction.  Vertices 15-39 then take
    every edge that keeps the graph triangle-free, in lexicographic order, so
    that 0-14 is a maximum independent set."""
    rows = [0] * 40

    def join(u, v):
        rows[u] |= 1 << v
        rows[v] |= 1 << u

    for i in range(10):
        for k in range(6):
            join(15 + i, (3 * i + k) % 15)
    for j in range(15):
        for k in range(6):
            join(25 + j, (j + k) % 15)
    for u in range(15, 40):
        for v in range(u + 1, 40):
            if not rows[u] & rows[v]:
                join(u, v)
    return Graph(40, rows)


def test_formula_checks_all_pass():
    report = independence_formula_checks()
    assert report.ok, report.failures()
    assert len(report.checks) == 5
    q1_diag = {c.id: c for c in report.checks}["independence.q1_diagonal"]
    assert q1_diag.passed
    # spot value: Q1(3/8, 3/8) = (3/16)(1/8) = 3/128
    alpha = Fraction(3, 8)
    assert alpha / 2 * (Fraction(1, 2) - alpha) == Fraction(3, 128)


def test_petersen_certificate():
    g = named("petersen").graph
    cert = independence_half(g)
    assert cert.bound <= Fraction(1, 50)
    assert cert.bound == beta_of_half(g, cert.half)
    assert cert.params["analytic_bound"] == Fraction(1, 50)
    assert not cert.params["outside_hypothesis"]


def test_pentagon_blowup_certificate():
    g = blowup(cycle(5), 2)
    assert independence_number(g)[0] == 4
    cert = independence_half(g)
    assert cert.bound <= Fraction(1, 50)


def test_bipartite_completes_immediately():
    g = complete_bipartite(4, 4)
    cert = independence_half(g)
    assert cert.bound == 0
    assert cert.params["analytic_bound"] == 0
    assert cert.params["case"] == "inside-independent-set"


def test_fractional_case_certificate():
    g = pivotless_gadget()
    assert is_triangle_free(g) and len(g.edges()) == 240
    assert independence_number(g) == (15, tuple(range(15)))
    cert = independence_half(g)
    assert cert.params["case"] == "fractional-rest"
    assert cert.params["alpha"] == Fraction(15, 40)
    assert cert.bound == Fraction(59, 2880)
    assert cert.bound <= cert.params["analytic_bound"] == Fraction(3, 128)
    assert cert.bound == beta_of_half(g, cert.half)


def test_fractional_case_certifies_only_its_winner(monkeypatch):
    # the pivots are ranked by their closed form; only the first minimum is certified
    calls = []
    monkeypatch.setattr(halves, "beta_of_half",
                        lambda g, mu: calls.append(mu) or beta_of_half(g, mu))
    cert = independence_half(pivotless_gadget())
    assert (cert.bound, cert.params["pivot"], cert.params["p"]) == (
        Fraction(59, 2880), 0, Fraction(1, 6))
    assert calls == [cert.half]


def test_fractional_case_checks_its_closed_form(monkeypatch):
    monkeypatch.setattr(halves, "part_density",
                        lambda g, x: part_density(g, x) + Fraction(1, g.n**2))
    with pytest.raises(CertificateError, match=r"^independence: bound \S+ != closed form "):
        independence_half(pivotless_gadget())


@pytest.fixture(scope="module")
def even_order_certificates():
    """(graph, certificate) for every class with n in {2, 4, 6, 8} and five named SRGs."""
    graphs = [g for n in (2, 4, 6, 8) for g in enumerate_triangle_free(n)]
    graphs += [named(x).graph
               for x in ("petersen", "clebsch", "hoffman_singleton", "gewirtz", "higman_sims")]
    return [(g, independence_half(g)) for g in graphs]


def test_independence_certificates_are_pinned(even_order_certificates):
    # 454 inside-independent-set, 7 greedy-filled, 1 pivot-fan
    lines = [f"{c.params['case']} {c.bound} " + ",".join(str(w) for w in c.half.weights)
             for _, c in even_order_certificates]
    assert len(lines) == 462
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest.startswith("ce5c05b5afa62f4b")


def test_mask_cases_carry_their_induced_edge_count(even_order_certificates):
    cases = set()
    for g, cert in even_order_certificates:
        cases.add(cert.params["case"])
        assert cert.half.weights.count(1) == len(cert.half.support()) == g.n // 2
        mask = _mask_of(cert.half.support())
        assert cert.params["induced_edges"] == _induced_edges(g.adj, mask)
        assert cert.bound == Fraction(cert.params["induced_edges"], g.n**2)
    assert cases == {"inside-independent-set", "greedy-filled", "pivot-fan"}


def test_input_validation(monkeypatch):
    def no_search(_g):
        raise AssertionError("odd n must be rejected before the alpha search")

    monkeypatch.setattr("halfgraph.independence.independence_number", no_search)
    with pytest.raises(ValueError, match="even n"):
        independence_half(cycle(5))


def test_failed_step_raises_a_certificate_error(monkeypatch):
    g = load_graph6("QiEqYIhiTQAViPkoTG_dtPMxCz_")
    assert is_triangle_free(g) and independence_number(g)[0] == 8
    cert = independence_half(g)
    assert cert.params["case"] == "pivot-fan"
    assert cert.params["alpha"] == Fraction(4, 9)
    assert cert.bound == Fraction(1, 108) <= cert.params["analytic_bound"] == Fraction(1, 81)
    # a maximal but not maximum set of density 7/18 >= 3/8 leaves the
    # reservoir short, and the failed step is a CertificateError
    monkeypatch.setattr("halfgraph.independence.independence_number",
                        lambda _g: (7, (0, 2, 4, 7, 11, 15, 16)))
    with pytest.raises(CertificateError, match="reservoir needs 3 vertices"):
        independence_half(g)


def test_set_larger_than_half_is_capped():
    star = Graph.from_edges(6, [(0, v) for v in range(1, 6)])
    cert = independence_half(star)
    assert cert.params["alpha"] == Fraction(1, 2)
    assert cert.params["analytic_bound"] == 0
    assert cert.bound == 0
    assert cert.half.support() == (1, 2, 3)


def test_outside_hypothesis_flag():
    g = named("clebsch").graph
    cert = independence_half(g)  # alpha = 5/16 < 3/8
    assert cert.params["alpha"] == Fraction(5, 16)
    assert cert.params["outside_hypothesis"]
    assert cert.params["case"] == "greedy-filled"
    assert cert.bound == Fraction(3, 128)
    assert cert.bound == beta_of_half(g, cert.half)


def test_grow_low_spill_set_order_and_cap():
    g = cycle(6)
    # vertex 0 seeded; only vertices not adjacent to the set qualify at cap 0,
    # so 2 and then 4 are absorbed
    assert grow_low_spill_set(g, 0b000001, spill_cap=0, target=3) == 0b010101


def test_random_graphs_meet_analytic_bound():
    rng = random.Random(7)
    tested = 0
    while tested < 60:
        n = rng.choice([12, 14, 16, 18, 20, 22, 24])
        g = _random_triangle_free(rng, n, rng.randint(3 * n, 8 * n))
        size = independence_number(g)[0]
        if Fraction(size, n) < Fraction(3, 8):
            continue
        tested += 1
        cert = independence_half(g)
        alpha = Fraction(min(size, n // 2), n)
        assert cert.bound <= alpha / 2 * (Fraction(1, 2) - alpha)
        assert cert.bound == beta_of_half(g, cert.half)
