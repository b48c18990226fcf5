"""Tests for the large-independence-number construction."""

import random
from fractions import Fraction

import pytest

from halfgraph.graphcore import (
    Graph,
    blowup,
    complete_bipartite,
    cycle,
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
from halfgraph.verify import independence_formula_checks


def random_triangle_free(rng, n, attempts):
    rows = [0] * n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs[:attempts]:
        if rows[u] & rows[v]:
            continue
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


def pivotless_gadget() -> Graph:
    """40 vertices: greedy stalls, nobody is crowded, and no pivot reaches the
    reservoir, forcing the fractional construction."""
    edges = set()
    for i in range(10):
        for k in range(6):
            edges.add(tuple(sorted((15 + i, (3 * i + k) % 15))))
    for j in range(15):
        for k in range(6):
            edges.add(tuple(sorted((25 + j, (j + k) % 15))))
    return Graph.from_edges(40, edges)


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
    _, witness = independence_number(g)
    cert = independence_half(g, witness)
    assert cert.bound <= Fraction(1, 50)
    assert cert.bound == beta_of_half(g, cert.half)
    assert cert.params["analytic_bound"] == Fraction(1, 50)
    assert not cert.params["outside_hypothesis"]


def test_pentagon_blowup_certificate():
    g = blowup(cycle(5), 2)
    _, witness = independence_number(g)
    assert len(witness) == 4
    cert = independence_half(g, witness)
    assert cert.bound <= Fraction(1, 50)


def test_bipartite_completes_immediately():
    g = complete_bipartite(4, 4)
    cert = independence_half(g, tuple(range(4)))
    assert cert.bound == 0
    assert cert.params["analytic_bound"] == 0
    assert cert.params["case"] == "inside-independent-set"


def test_fractional_case_certificate():
    g = pivotless_gadget()
    assert is_triangle_free(g)
    cert = independence_half(g, tuple(range(15)))
    assert cert.params["case"] == "fractional-rest"
    alpha = Fraction(15, 40)
    assert cert.bound <= alpha / 2 * (Fraction(1, 2) - alpha)
    assert cert.bound == beta_of_half(g, cert.half)


def test_input_validation():
    with pytest.raises(ValueError):
        independence_half(cycle(5), (0, 2))  # odd n
    with pytest.raises(ValueError):
        independence_half(cycle(6), (0, 1))  # not independent


def test_failed_step_raises_a_certificate_error():
    # triangle-free, alpha = 7/18 >= 3/8, yet the reservoir runs short
    g = load_graph6("QiEqYIhiTQAViPkoTG_dtPMxCz_")
    assert is_triangle_free(g) and independence_number(g)[0] == 8
    with pytest.raises(CertificateError, match="reservoir needs 3 vertices"):
        independence_half(g, (0, 2, 4, 7, 11, 15, 16))


def test_set_larger_than_half_is_capped():
    star = Graph.from_edges(6, [(0, v) for v in range(1, 6)])
    cert = independence_half(star, (1, 2, 3, 4, 5))
    assert cert.params["alpha"] == Fraction(1, 2)
    assert cert.params["analytic_bound"] == 0
    assert cert.bound == 0
    assert cert.half.support() == (1, 2, 3)


def test_outside_hypothesis_flag():
    g = named("petersen").graph
    _, witness = independence_number(g)
    cert = independence_half(g, witness[:3])  # alpha = 3/10 < 3/8
    assert cert.params["outside_hypothesis"]
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
        g = random_triangle_free(rng, n, rng.randint(3 * n, 8 * n))
        size, witness = independence_number(g)
        if Fraction(size, n) < Fraction(3, 8):
            continue
        tested += 1
        chosen = witness[: min(size, n // 2)]
        cert = independence_half(g, chosen)
        alpha = Fraction(len(chosen), n)
        assert cert.bound <= alpha / 2 * (Fraction(1, 2) - alpha)
        assert cert.bound == beta_of_half(g, cert.half)
